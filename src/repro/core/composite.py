"""Multiple interstitial projects sharing the interstices.

The paper studies one project at a time, but a production facility
would run several concurrently (its §4.3.1 short projects arrive
continually in practice).  :class:`CompositeInterstitialSource` multiplexes
child sources over each scheduling pass's leftover capacity under one
of two policies:

* ``round_robin`` (default) — the offer order rotates every pass, so
  equal-hunger projects converge to equal shares of the interstices;
* ``priority`` — fixed order: earlier sources harvest first and later
  ones take what remains (e.g. a paying project over a best-effort one).

Children see a *budgeted view* of the cluster that already accounts for
CPUs granted to sources earlier in the same pass, so the combined offer
can never overcommit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.core.base import InterstitialSource
from repro.errors import ConfigurationError
from repro.jobs import Job, Offer
from repro.sim.state import ClusterState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sched.base import Scheduler

POLICIES = ("round_robin", "priority")


class _BudgetedView:
    """A read-only cluster facade with extra CPUs marked busy.

    Forwards everything interesting to the real state but reports the
    capacity already granted to sibling sources this pass as busy, so
    each child plans against what is genuinely left.
    """

    def __init__(self, cluster: ClusterState, granted_cpus: int) -> None:
        self._cluster = cluster
        self._granted = granted_cpus

    @property
    def machine(self):
        return self._cluster.machine

    @property
    def running(self):
        return self._cluster.running

    @property
    def total_cpus(self) -> int:
        return self._cluster.total_cpus

    @property
    def available_cpus(self) -> int:
        return self._cluster.available_cpus

    @property
    def busy_cpus(self) -> int:
        return self._cluster.busy_cpus + self._granted

    @property
    def down_cpus(self) -> int:
        return self._cluster.down_cpus

    @property
    def free_cpus(self) -> int:
        return max(0, self._cluster.free_cpus - self._granted)

    @property
    def instantaneous_utilization(self) -> float:
        return self.busy_cpus / self.total_cpus

    def fits_now(self, cpus: int) -> bool:
        return cpus <= self.free_cpus

    @property
    def epoch(self) -> int:
        return self._cluster.epoch

    def release_claims(self):
        # Sibling grants occupy CPUs but have no known finish time, so
        # the claim timeline is the real cluster's unchanged.
        return self._cluster.release_claims()


class CompositeInterstitialSource(InterstitialSource):
    """Multiplexes several interstitial sources over shared leftovers.

    Parameters
    ----------
    sources:
        Child sources (e.g. :class:`InterstitialController` instances).
    policy:
        ``round_robin`` or ``priority`` (see module docstring).

    Notes
    -----
    Preemption is delegated: the composite is preemptible iff *any*
    child is, and preemption notifications are routed to the child that
    submitted each killed job.  Routing reads the ``owner`` tag the
    composite stamps on each offered record, which survives the
    engine's renumbering and the splitting of a partly killed cohort
    (nested composites stamp first, so the innermost owner wins).
    """

    def __init__(
        self,
        sources: Sequence[InterstitialSource],
        policy: str = "round_robin",
    ) -> None:
        if not sources:
            raise ConfigurationError("composite needs at least one source")
        if policy not in POLICIES:
            raise ConfigurationError(
                f"policy must be one of {POLICIES}: {policy!r}"
            )
        self.sources: List[InterstitialSource] = list(sources)
        self.policy = policy
        self._next = 0
        #: Composite id of a nested composite -> index of the child
        #: that holds it (records keep their innermost owner tag).
        self._nested: Dict[int, int] = {}
        for index, source in enumerate(self.sources):
            if isinstance(source, CompositeInterstitialSource):
                self._nested[id(source)] = index
                for inner in source._nested:
                    self._nested[inner] = index

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return all(source.exhausted for source in self.sources)

    @property
    def preemptible(self) -> bool:
        return any(source.preemptible for source in self.sources)

    def offer(
        self, t: float, cluster: ClusterState, scheduler: "Scheduler"
    ) -> Offer:
        order = list(range(len(self.sources)))
        if self.policy == "round_robin":
            order = order[self._next:] + order[: self._next]
            self._next = (self._next + 1) % len(self.sources)
        granted = 0
        records = Offer()
        for idx in order:
            source = self.sources[idx]
            if source.exhausted:
                continue
            view = _BudgetedView(cluster, granted)
            batch = source.offer(t, view, scheduler)  # type: ignore[arg-type]
            for record in batch:
                if record.owner is None:
                    record.owner = (id(self), idx)
                granted += record.cpus * record.count
            records.extend(batch)
        return records

    def on_preempted(self, jobs: List[Job], t: float) -> None:
        by_child: Dict[int, List[Job]] = {}
        for record in jobs:
            if record.owner is None:
                continue
            composite, idx = record.owner
            if composite != id(self):
                idx = self._nested.get(composite)
                if idx is None:
                    continue
            by_child.setdefault(idx, []).append(record)
        for idx, killed in by_child.items():
            self.sources[idx].on_preempted(killed, t)

    def on_fault(self, t: float, cpus: int) -> None:
        for source in self.sources:
            source.on_fault(t, cpus)
