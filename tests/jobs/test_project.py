"""Tests for InterstitialProject."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.jobs import Cohort, InterstitialProject, JobKind, Offer
from repro.machines import blue_mountain


class TestValidation:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValidationError):
            InterstitialProject(n_jobs=0, cpus_per_job=1, runtime_1ghz=120.0)

    def test_rejects_zero_cpus(self):
        with pytest.raises(ValidationError):
            InterstitialProject(n_jobs=1, cpus_per_job=0, runtime_1ghz=120.0)

    def test_rejects_zero_runtime(self):
        with pytest.raises(ValidationError):
            InterstitialProject(n_jobs=1, cpus_per_job=1, runtime_1ghz=0.0)


class TestSizing:
    def test_paper_77_peta_cycles(self):
        # Table 2 row 1: 64k single-CPU jobs of 120 s @ 1 GHz ~ 7.7 PC.
        project = InterstitialProject(
            n_jobs=64_000, cpus_per_job=1, runtime_1ghz=120.0
        )
        assert project.peta_cycles == pytest.approx(7.68)

    def test_paper_123_peta_cycles(self):
        project = InterstitialProject(
            n_jobs=32_000, cpus_per_job=32, runtime_1ghz=120.0
        )
        assert project.peta_cycles == pytest.approx(122.88)

    def test_from_peta_cycles_roundtrip(self):
        project = InterstitialProject.from_peta_cycles(
            7.7, cpus_per_job=32, runtime_1ghz=120.0
        )
        assert project.peta_cycles == pytest.approx(7.7, rel=0.01)

    def test_from_peta_cycles_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            InterstitialProject.from_peta_cycles(0.0, 1, 120.0)

    @given(
        peta=st.floats(0.001, 500.0),
        cpus=st.integers(1, 64),
        runtime=st.floats(10.0, 7200.0),
    )
    def test_from_peta_cycles_property(self, peta, cpus, runtime):
        project = InterstitialProject.from_peta_cycles(peta, cpus, runtime)
        # Rounding the job count keeps the size within half a job —
        # except tiny requests, which clamp up to a single job.
        per_job = cpus * runtime * 1e9 / 1e15
        if project.n_jobs == 1:
            assert peta <= per_job + per_job / 2 + 1e-12
        else:
            assert abs(project.peta_cycles - peta) <= per_job / 2 + 1e-12


class TestRuntimeNormalization:
    def test_blue_mountain(self):
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=32, runtime_1ghz=120.0
        )
        assert project.runtime_on(blue_mountain()) == pytest.approx(
            458.0, abs=0.1
        )

    def test_960s_on_blue_mountain(self):
        # Paper: 960 s @ 1 GHz -> 3664 s on Blue Mountain.
        project = InterstitialProject(
            n_jobs=1, cpus_per_job=32, runtime_1ghz=960.0
        )
        assert project.runtime_on(blue_mountain()) == pytest.approx(
            3664.1, abs=0.5
        )


class TestJobMaterialization:
    def test_make_job_fields(self, small_machine):
        project = InterstitialProject(
            n_jobs=10, cpus_per_job=4, runtime_1ghz=100.0, user="sweeper",
            group="sweeps",
        )
        job = project.make_job(small_machine, submit_time=55.0)
        assert job.kind is JobKind.INTERSTITIAL
        assert job.cpus == 4
        assert job.submit_time == 55.0
        assert job.user == "sweeper"
        # Interstitial runtimes are exactly known: estimate == runtime.
        assert job.estimate == job.runtime

    def test_cohort_members_count(self, small_machine):
        project = InterstitialProject(
            n_jobs=10, cpus_per_job=1, runtime_1ghz=100.0
        )
        template = project.make_job(small_machine, submit_time=5.0)
        cohort = Cohort(template, 7)
        jobs = cohort.members()
        assert len(cohort) == len(jobs) == 7
        assert [j.job_id for j in jobs] == list(
            range(template.job_id, template.job_id + 7)
        )
        assert jobs[0] == template
        assert {(j.cpus, j.runtime, j.submit_time, j.kind) for j in jobs} == {
            (1, template.runtime, 5.0, JobKind.INTERSTITIAL)
        }

    def test_cohort_split_keeps_ids(self, small_machine):
        project = InterstitialProject(
            n_jobs=5, cpus_per_job=2, runtime_1ghz=60.0
        )
        cohort = Cohort(project.make_job(small_machine), 5)
        first = cohort.job_id
        piece = cohort.split(3)
        assert (cohort.job_id, len(cohort)) == (first, 3)
        assert (piece.job_id, len(piece)) == (first + 3, 2)
        assert [j.job_id for j in cohort.members() + piece.members()] == (
            list(range(first, first + 5))
        )
        with pytest.raises(ValidationError):
            piece.split(2)

    def test_offer_counts_members_and_tests_records(self, small_machine):
        project = InterstitialProject(
            n_jobs=5, cpus_per_job=2, runtime_1ghz=60.0
        )
        template = project.make_job(small_machine)
        offer = Offer([Cohort(template, 4), template])
        assert len(offer) == 5
        assert offer and not Offer()

    def test_describe_mentions_size(self):
        project = InterstitialProject(
            n_jobs=64_000, cpus_per_job=1, runtime_1ghz=120.0, name="sweep"
        )
        text = project.describe()
        assert "sweep" in text and "64000" in text
