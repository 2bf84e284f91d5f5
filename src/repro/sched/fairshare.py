"""Decayed-usage fair-share accounting.

All three production schedulers the paper emulates implement some notion
of *fair share* ([14] in the paper): entities (users or groups) have
target shares of the machine, recent usage is accumulated with an
exponential decay, and queued jobs of under-served entities are boosted.
The *dynamic re-prioritization* this produces is exactly the mechanism
behind the paper's delay cascades (§4.3.2.1): a native job held up by an
interstitial job can be overtaken by a later-arriving job whose owner's
decayed usage is lower.

Incremental maintenance
-----------------------

Because every entity's usage decays at the *same* exponential rate, the
ratio of any two entities' decayed usages — and therefore every
``usage_share`` and ``factor`` — is constant between charges: decay
rescales all usages by a common ``exp(-rate * dt)`` that cancels out of
the share quotient.  The tracker exploits this with a :attr:`version`
counter bumped on every charge and a per-entity factor cache keyed by
it, so a scheduling pass over a long queue costs one dictionary lookup
per entity instead of a fresh decay/total/share evaluation per queued
job.  Schedulers watch the policy-level version (see
:class:`~repro.sched.priority.PriorityPolicy`) to decide whether a
cached priority ordering is still valid (DESIGN §13).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


class FairShareTracker:
    """Tracks exponentially-decayed usage per entity.

    Parameters
    ----------
    half_life_s:
        Usage half-life in seconds (production systems use days to
        weeks; we default to one week).
    shares:
        Optional explicit target shares per entity.  Entities absent
        from the mapping get a share of 1.  Shares are normalized over
        the entities *known to the tracker* (charged at least once or
        listed in ``shares``), so "all users have equal shares" is the
        default behaviour, matching the paper's description of Ross.
    """

    DEFAULT_HALF_LIFE = 7 * 86400.0

    def __init__(
        self,
        half_life_s: float = DEFAULT_HALF_LIFE,
        shares: Optional[Dict[str, float]] = None,
    ) -> None:
        if not math.isfinite(half_life_s) or half_life_s <= 0:
            raise ConfigurationError(
                f"half_life_s must be positive and finite, got {half_life_s}"
            )
        self.half_life_s = float(half_life_s)
        self._decay_rate = math.log(2.0) / self.half_life_s
        self._shares: Dict[str, float] = dict(shares or {})
        for entity, share in self._shares.items():
            if share <= 0:
                raise ConfigurationError(
                    f"share for {entity!r} must be positive, got {share}"
                )
        #: entity -> (usage at last update, last update time)
        self._usage: Dict[str, Tuple[float, float]] = {
            e: (0.0, 0.0) for e in self._shares
        }
        #: Bumped on every charge.  Factors are time-invariant between
        #: bumps (uniform decay cancels out of the share quotient), so
        #: a cached factor — or a whole cached queue ordering — stays
        #: valid exactly while the version is unchanged.
        self.version: int = 0
        # Performance caches: schedulers evaluate factors for every
        # queued class at the same instant, so total usage per timestamp
        # and the normalized share table are memoized (profiling showed
        # them dominating continual-run time otherwise).
        self._total_cache: Tuple[float, float] = (math.nan, 0.0)
        #: Per-entity decayed usage at the memoized timestamp, built
        #: with the total so the other entities a re-key queries right
        #: after it are dictionary lookups.
        self._usage_at: Dict[str, float] = {}
        self._share_cache: Optional[Dict[str, float]] = None
        self._share_total: float = 0.0
        #: entity -> (version the value was computed at, factor value).
        self._factor_cache: Dict[str, Tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def entities(self) -> Iterable[str]:
        """Entities known to the tracker."""
        return self._usage.keys()

    def _decayed(self, value: float, since: float, t: float) -> float:
        if t <= since:
            return value
        return value * math.exp(-self._decay_rate * (t - since))

    def charge(self, entity: str, amounts: Sequence[float], t: float) -> None:
        """Add ``amounts`` (CPU-seconds each, in order) of usage for
        ``entity`` at ``t``.

        The stored usage is decayed to ``t`` once and the amounts are
        added to it one by one: the same float operations, in the same
        order, as one charge per amount (a charge at the time of the
        last update decays nothing), with one :attr:`version` bump.
        """
        value, since = self._usage.get(entity, (0.0, t))
        value = self._decayed(value, since, t)
        for amount in amounts:
            if amount < 0:
                raise ConfigurationError(
                    f"amount must be >= 0, got {amount}"
                )
            value += amount
        if entity not in self._usage:
            self._share_cache = None  # population changed
        self._usage[entity] = (value, t)
        self._total_cache = (math.nan, 0.0)
        self.version += 1

    def usage(self, entity: str, t: float) -> float:
        """Decayed usage of ``entity`` at time ``t``."""
        value, since = self._usage.get(entity, (0.0, t))
        return self._decayed(value, since, t)

    def usage_share(self, entity: str, t: float) -> float:
        """Fraction of total decayed usage attributed to ``entity``
        (0 when nobody has any usage)."""
        total = sum(self.usage(e, t) for e in self._usage)
        if total <= 0.0:
            return 0.0
        return self.usage(entity, t) / total

    def target_share(self, entity: str) -> float:
        """Normalized target share of ``entity`` among known entities.

        Unknown entities are treated as share-1 newcomers against the
        current population (a tracker that knows nobody returns 1.0).
        The normalized table is cached until the population changes.
        """
        if self._share_cache is None:
            known = dict(self._shares)
            for e in self._usage:
                known.setdefault(e, 1.0)
            self._share_cache = known
            self._share_total = sum(known.values())
        known = self._share_cache
        if entity in known:
            return known[entity] / self._share_total
        # Newcomer: one extra unit share against the population, without
        # polluting the cache (queries must not mutate state).
        return 1.0 / (self._share_total + 1.0)

    def factors(self, entities: Iterable[str], t: float) -> List[float]:
        """:meth:`factor` of each entity at ``t``, in order, in one call.

        A scheduler re-key asks for one factor per fair-share class.
        Memoized values are reused exactly as :meth:`factor` reuses
        them.  The first miss goes through :meth:`factor` itself, which
        builds the decayed-usage table at ``t`` and the share table; the
        other misses are evaluated inline with the same expression and
        memoized the same way.  Every value is therefore bit-identical
        to a per-entity call; the batch only saves the call overhead.
        """
        version = self.version
        cache = self._factor_cache
        out: List[float] = []
        append = out.append
        known = None
        for entity in entities:
            hit = cache.get(entity)
            if hit is not None and hit[0] == version:
                append(hit[1])
                continue
            if known is None:
                append(self.factor(entity, t))
                total = self._total_cache[1]
                usage_at = self._usage_at
                known = self._share_cache
                share_total = self._share_total
                continue
            share = 0.0 if total <= 0.0 else usage_at.get(entity, 0.0) / total
            # target_share(entity) - share, with the table inline.
            if entity in known:
                value = known[entity] / share_total - share
            else:
                value = 1.0 / (share_total + 1.0) - share
            cache[entity] = (version, value)
            append(value)
        return out

    def factor(self, entity: str, t: float) -> float:
        """Fair-share priority factor in [-1, 1].

        Positive when the entity is under-served (target share exceeds
        its recent usage share), negative when over-served.  This is the
        quantity priority policies weight into job scores.

        The value is memoized per entity and :attr:`version`: between
        charges the factor is mathematically constant in ``t`` (uniform
        decay cancels out of the share quotient), so repeat evaluations
        — one per queued job per scheduling pass in the naive scheme —
        collapse to a dictionary lookup.

        A miss is evaluated in this one body, float-for-float what
        ``target_share(entity) - usage_share(entity, t)`` computes: the
        decayed-usage table at ``t`` (memoized per timestamp, so the
        other entities of the same re-key reuse it) is built with
        :meth:`_decayed`'s expression and summed in insertion order.
        """
        version = self.version
        hit = self._factor_cache.get(entity)
        if hit is not None and hit[0] == version:
            return hit[1]
        if self._total_cache[0] != t:
            rate = self._decay_rate
            usage_at = {
                e: used if t <= since
                else used * math.exp(-rate * (t - since))
                for e, (used, since) in self._usage.items()
            }
            self._usage_at = usage_at
            self._total_cache = (t, sum(usage_at.values()))
        total = self._total_cache[1]
        if total <= 0.0:
            share = 0.0
        else:
            share = self._usage_at.get(entity, 0.0) / total
        value = self.target_share(entity) - share
        self._factor_cache[entity] = (version, value)
        return value
