"""The preemption counter split: kills vs shrinks stay distinguishable.

Elastic shrinks reclaim CPUs without wasting work, so preemptions are
counted as ``preempt_kills`` and ``preempt_shrinks``, and both split
fields must ride through ``merge`` like any other counter.
"""

from __future__ import annotations

import dataclasses

from repro.obs import Counters


def test_merge_adds_split_fields() -> None:
    a = Counters(preempt_kills=1, preempt_shrinks=2, grows=3,
                 molded_starts=4)
    b = Counters(preempt_kills=10, preempt_shrinks=20, grows=30,
                 molded_starts=40)
    merged = a.merge(b)
    assert merged.preempt_kills == 11
    assert merged.preempt_shrinks == 22
    assert merged.grows == 33
    assert merged.molded_starts == 44


def test_alias_is_not_a_field() -> None:
    """The pre-split ``preemptions`` name is gone: neither a field,
    which fields()-based merging would double-count, nor an alias."""
    names = {f.name for f in dataclasses.fields(Counters)}
    assert "preemptions" not in names
    assert not hasattr(Counters(), "preemptions")
    assert {"preempt_kills", "preempt_shrinks", "grows",
            "molded_starts"} <= names
