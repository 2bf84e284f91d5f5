"""Tests for priority policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sched.priority import (
    FcfsPolicy,
    HierarchicalFairSharePolicy,
    UserFairSharePolicy,
    UserGroupFairSharePolicy,
)

from tests.conftest import make_job


def order(policy, jobs, t):
    return sorted(jobs, key=lambda j: policy.sort_key(j, t))


class TestFcfs:
    def test_orders_by_submit_time(self):
        policy = FcfsPolicy()
        a = make_job(submit=10.0)
        b = make_job(submit=5.0)
        assert order(policy, [a, b], 100.0) == [b, a]

    def test_tie_breaks_by_job_id(self):
        policy = FcfsPolicy()
        a = make_job(submit=5.0)
        b = make_job(submit=5.0)
        first, second = order(policy, [b, a], 10.0)
        assert first.job_id < second.job_id

    def test_score_grows_with_wait(self):
        policy = FcfsPolicy()
        job = make_job(submit=0.0)
        assert policy.score(job, 86400.0) > policy.score(job, 0.0)


class TestUserFairShare:
    def test_idle_user_beats_hog(self):
        policy = UserFairSharePolicy()
        hog_done = make_job(cpus=8, runtime=10_000.0, user="hog")
        policy.on_finish([hog_done], 100.0)
        hog_job = make_job(user="hog", submit=0.0)
        idle_job = make_job(user="idle", submit=0.0)
        assert order(policy, [hog_job, idle_job], 100.0)[0] is idle_job

    def test_wait_eventually_dominates(self):
        # Starvation freedom: enough waiting overcomes any usage deficit.
        policy = UserFairSharePolicy(weight=2.0)
        policy.on_finish([make_job(cpus=8, runtime=1e6, user="hog")], 0.0)
        hog_old = make_job(user="hog", submit=0.0)
        idle_new = make_job(user="idle", submit=30 * 86400.0)
        assert (
            order(policy, [hog_old, idle_new], 30 * 86400.0)[0] is hog_old
        )

    def test_rejects_negative_weight(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            UserFairSharePolicy(weight=-1.0)


class TestHierarchical:
    def test_group_level_dominates(self):
        policy = HierarchicalFairSharePolicy(
            group_weight=2.0, user_weight=0.5
        )
        # Group g0 burned lots of cycles via user a.
        policy.on_finish(
            [make_job(cpus=8, runtime=10_000.0, user="a", group="g0")], 0.0
        )
        # A *different* user of the hog group still loses to a user of
        # the idle group.
        same_group = make_job(user="b", group="g0", submit=0.0)
        other_group = make_job(user="c", group="g1", submit=0.0)
        assert order(policy, [same_group, other_group], 1.0)[0] is other_group

    def test_within_group_user_factor(self):
        policy = HierarchicalFairSharePolicy()
        policy.on_finish(
            [make_job(cpus=8, runtime=10_000.0, user="a", group="g0")], 0.0
        )
        policy.on_finish(
            [make_job(cpus=1, runtime=10.0, user="b", group="g0")], 0.0
        )
        a_job = make_job(user="a", group="g0", submit=0.0)
        b_job = make_job(user="b", group="g0", submit=0.0)
        assert order(policy, [a_job, b_job], 1.0)[0] is b_job

    def test_explicit_group_shares(self):
        policy = HierarchicalFairSharePolicy(
            group_shares={"big": 9.0, "small": 1.0}
        )
        # Equal usage; "big" deserves far more.
        policy.on_finish(
            [make_job(cpus=1, runtime=100.0, user="x", group="big")], 0.0
        )
        policy.on_finish(
            [make_job(cpus=1, runtime=100.0, user="y", group="small")], 0.0
        )
        big = make_job(user="x", group="big", submit=0.0)
        small = make_job(user="y", group="small", submit=0.0)
        assert order(policy, [big, small], 1.0)[0] is big


class TestUserGroup:
    def test_both_levels_charge(self):
        policy = UserGroupFairSharePolicy()
        policy.on_finish(
            [make_job(cpus=8, runtime=1000.0, user="a", group="g0")], 0.0
        )
        assert policy.users.usage("a", 0.0) == 8000.0
        assert policy.groups.usage("g0", 0.0) == 8000.0

    def test_fresh_user_in_hog_group_middle_priority(self):
        policy = UserGroupFairSharePolicy()
        policy.on_finish(
            [make_job(cpus=8, runtime=10_000.0, user="a", group="g0")], 0.0
        )
        hog_user = make_job(user="a", group="g0", submit=0.0)
        fresh_same_group = make_job(user="b", group="g0", submit=0.0)
        fresh_other = make_job(user="c", group="g1", submit=0.0)
        ranking = order(
            policy, [hog_user, fresh_same_group, fresh_other], 1.0
        )
        assert ranking == [fresh_other, fresh_same_group, hog_user]


class TestDynamicReprioritization:
    def test_priorities_shift_with_new_usage(self):
        """The cascade mechanism: a queued job's rank can drop when its
        owner's group finishes more work mid-wait."""
        policy = HierarchicalFairSharePolicy()
        waiting = make_job(user="a", group="g0", submit=0.0)
        rival = make_job(user="b", group="g1", submit=50.0)
        assert order(policy, [waiting, rival], 60.0)[0] is waiting
        # Group g0 suddenly burns a lot of cycles.
        policy.on_finish(
            [make_job(cpus=8, runtime=50_000.0, user="a2", group="g0")], 61.0
        )
        assert order(policy, [waiting, rival], 62.0)[0] is rival


@pytest.mark.parametrize(
    "policy_cls",
    [
        UserFairSharePolicy,
        HierarchicalFairSharePolicy,
        UserGroupFairSharePolicy,
    ],
)
@given(
    finished=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["g0", "g1"]),
            st.integers(1, 64),
            st.floats(0.0, 1e5),
        ),
        min_size=1,
        max_size=20,
    ),
)
def test_property_batched_on_finish_matches_one_at_a_time(
    policy_cls, finished
):
    """Jobs completing together charge exactly what completing one at a
    time did: every queued job's fair-share factor is identical."""
    jobs = [
        make_job(cpus=cpus, runtime=runtime, user=user, group=group)
        for user, group, cpus, runtime in finished
    ]
    one, batched = policy_cls(), policy_cls()
    for job in jobs:
        one.on_finish([job], 50.0)
    batched.on_finish(jobs, 50.0)
    probes = [
        make_job(user=user, group=group)
        for user in ("a", "b", "c", "new")
        for group in ("g0", "g1", "new")
    ]
    for probe in probes:
        for t in (50.0, 5000.0):
            assert batched.fair_share_factor(
                probe, t
            ) == one.fair_share_factor(probe, t)
