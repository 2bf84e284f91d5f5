"""repro — reproduction of *Interstitial Computing: Utilizing Spare
Cycles on Supercomputers* (Kleban & Clearwater, CLUSTER 2003).

A discrete-event supercomputer scheduler simulator plus the paper's
interstitial-computing controllers, calibrated ASCI-machine workload
models, analytical models and the full evaluation harness.

Quickstart::

    import numpy as np
    from repro import (
        InterstitialProject, blue_mountain, run_continual,
        synthetic_trace_for, utilization_summary,
    )

    machine = blue_mountain()
    trace = synthetic_trace_for(
        "blue_mountain", rng=np.random.default_rng(7), scale=0.1
    )
    project = InterstitialProject(
        n_jobs=10_000, cpus_per_job=32, runtime_1ghz=120.0
    )
    result, controller = run_continual(machine, trace.jobs, project,
                                       horizon=trace.duration)
    print(utilization_summary(result).describe())
"""

from repro.core import (
    InterstitialController,
    OmniscientPacking,
    pack_project,
    run_continual,
    run_native,
    run_omniscient_samples,
    run_with_controller,
    sample_short_projects,
)
from repro.elastic import (
    ElasticInterstitialController,
    ElasticitySpec,
    WidthPolicy,
    elastic_controller,
)
from repro.faults import FaultModel, FaultSchedule, NodeFault, RetryPolicy
from repro.jobs import InterstitialProject, Job, JobKind
from repro.machines import (
    Machine,
    blue_mountain,
    blue_pacific,
    preset,
    ross,
)
from repro.metrics import (
    format_table,
    hourly_utilization,
    log10_wait_histogram,
    makespan_stats,
    utilization_summary,
    wait_stats,
)
from repro.obs import (
    Counters,
    JsonlRecorder,
    MemoryRecorder,
    NullRecorder,
    PhaseTimers,
    TraceRecord,
    TraceRecorder,
)
from repro.sched import (
    QueueScheduler,
    dpcs_scheduler,
    fcfs_scheduler,
    lsf_scheduler,
    pbs_scheduler,
    scheduler_for,
)
from repro.sim import Engine, Outage, OutageSchedule, SimConfig, SimResult
from repro.theory import (
    breakage_factor,
    elastic_breakage_factor,
    fit_affine,
    ideal_makespan_for,
)
from repro.workload import (
    Trace,
    compute_stats,
    read_swf,
    synthetic_trace_for,
    write_swf,
)


def __getattr__(name: str):
    """Resolve ``__version__`` on first access: reading the
    distribution metadata imports :mod:`importlib.metadata`, which
    ``import repro`` itself does not need."""
    if name == "__version__":
        from repro.version import repro_version

        version = globals()["__version__"] = repro_version()
        return version
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # jobs
    "Job",
    "JobKind",
    "InterstitialProject",
    # machines
    "Machine",
    "ross",
    "blue_mountain",
    "blue_pacific",
    "preset",
    # sim
    "Engine",
    "SimConfig",
    "SimResult",
    "Outage",
    "OutageSchedule",
    # faults
    "FaultModel",
    "FaultSchedule",
    "NodeFault",
    "RetryPolicy",
    # schedulers
    "QueueScheduler",
    "pbs_scheduler",
    "lsf_scheduler",
    "dpcs_scheduler",
    "fcfs_scheduler",
    "scheduler_for",
    # elastic interstitials
    "ElasticInterstitialController",
    "ElasticitySpec",
    "WidthPolicy",
    "elastic_controller",
    # interstitial core
    "InterstitialController",
    "OmniscientPacking",
    "pack_project",
    "sample_short_projects",
    "run_native",
    "run_continual",
    "run_with_controller",
    "run_omniscient_samples",
    # workload
    "Trace",
    "synthetic_trace_for",
    "compute_stats",
    "read_swf",
    "write_swf",
    # observability
    "Counters",
    "TraceRecord",
    "TraceRecorder",
    "NullRecorder",
    "MemoryRecorder",
    "JsonlRecorder",
    "PhaseTimers",
    # metrics
    "wait_stats",
    "makespan_stats",
    "utilization_summary",
    "hourly_utilization",
    "log10_wait_histogram",
    "format_table",
    # theory
    "ideal_makespan_for",
    "breakage_factor",
    "elastic_breakage_factor",
    "fit_affine",
]
