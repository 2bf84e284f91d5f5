"""Job and interstitial-project models.

This package defines the two fundamental workload objects of the
reproduction:

* :class:`~repro.jobs.job.Job` — a rigid, non-preemptive batch job (native
  or interstitial) with submit time, width (CPUs), actual runtime and the
  user's (usually grossly overestimated) runtime estimate;
* :class:`~repro.jobs.project.InterstitialProject` — the paper's unit of
  interstitial work: a fixed number of identical small jobs defined by
  CPUs/job and a runtime normalized to a 1 GHz processor, sized in
  peta-cycles;
* :class:`~repro.jobs.cohort.Cohort` — one record for ``count``
  identical jobs with consecutive ids, built once per interstitial
  offer (a plain job is a record of one).
"""

from repro.jobs.cohort import Cohort, Offer, expand, member_count
from repro.jobs.job import Job, JobKind, JobState
from repro.jobs.project import InterstitialProject

__all__ = [
    "Cohort",
    "InterstitialProject",
    "Job",
    "JobKind",
    "JobState",
    "Offer",
    "expand",
    "member_count",
]
