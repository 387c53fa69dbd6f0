"""Seeded IEP operation streams that never read the live plan.

The generator sees only the instance the workload starts from and the
seed.  It tracks every attribute its own operations change (event
bounds, times and venues, user budgets), so each operation is valid by
construction against the state the platform reaches after the previous
ones, whatever the repairs did to the plan.  The program under test
therefore receives nothing but generated inputs, and two commits given
the same seed receive byte-identical streams.

Kinds come in shuffled blocks of all eight, so every stream of ``n``
operations holds each kind ``n // 8`` or ``n // 8 + 1`` times; the op
mix, and with it the latency distribution, does not drift with the
seed.  ``NewEvent`` is left out: it carries one utility per user, a
10^5-entry frame at the large size, and the paper's IEP stream is the
eight attribute changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.iep.operations import (
    AtomicOperation,
    BudgetChange,
    EtaDecrease,
    EtaIncrease,
    LocationChange,
    TimeChange,
    UtilityChange,
    XiDecrease,
    XiIncrease,
)
from repro.core.model import Instance
from repro.geo.point import Point
from repro.timeline.interval import Interval

# Bounds move by symmetric steps of at most this many seats (upper) and
# participants (lower), and budgets by factors whose logs cancel, so a
# long stream wanders around the published state instead of draining
# it: late ops cost what early ones do, whatever the seed.
STEP = 10
LOWER_STEP = 3
BUDGET_FACTORS = (0.5, 0.8, 1.25, 2.0)

KINDS = (
    "EtaDecrease",
    "EtaIncrease",
    "XiIncrease",
    "XiDecrease",
    "TimeChange",
    "LocationChange",
    "UtilityChange",
    "BudgetChange",
)


@dataclass
class _EventState:
    lower: int
    upper: int
    start: float
    end: float


class OpGenerator:
    """Draws valid atomic operations from a seed and a starting instance."""

    def __init__(self, instance: Instance, seed: int) -> None:
        self._rng = random.Random(seed)
        self._n_users = instance.n_users
        self._events = [
            _EventState(e.lower, e.upper, e.interval.start, e.interval.end)
            for e in instance.events
        ]
        self._budgets = [user.budget for user in instance.users]
        self._horizon = max((e.end for e in instance.events), default=24.0)
        xs = [e.location.x for e in instance.events]
        ys = [e.location.y for e in instance.events]
        self._box = (min(xs), max(xs), min(ys), max(ys))
        self._block: list[str] = []

    def stream(self, count: int) -> list[AtomicOperation]:
        return [self.next() for _ in range(count)]

    def next(self) -> AtomicOperation:
        """The next operation; every kind is drawable in every state."""
        if not self._block:
            self._block = list(KINDS)
            self._rng.shuffle(self._block)
        return getattr(self, "_" + self._block.pop())()

    # One method per kind, named after it.  Each picks its target only
    # among entities where the change is valid and records the effect.

    def _EtaDecrease(self) -> AtomicOperation:
        candidates = [
            j for j, e in enumerate(self._events) if e.upper > max(e.lower, 1)
        ]
        if not candidates:
            return self._EtaIncrease()
        j = self._rng.choice(candidates)
        event = self._events[j]
        room = event.upper - max(event.lower, 1)
        event.upper -= self._rng.randint(1, min(STEP, room))
        return EtaDecrease(j, event.upper)

    def _EtaIncrease(self) -> AtomicOperation:
        j = self._rng.randrange(len(self._events))
        event = self._events[j]
        event.upper += self._rng.randint(1, STEP)
        return EtaIncrease(j, event.upper)

    def _XiIncrease(self) -> AtomicOperation:
        candidates = [
            j for j, e in enumerate(self._events) if e.lower < e.upper
        ]
        if not candidates:
            return self._EtaIncrease()
        j = self._rng.choice(candidates)
        event = self._events[j]
        event.lower += self._rng.randint(
            1, min(LOWER_STEP, event.upper - event.lower)
        )
        return XiIncrease(j, event.lower)

    def _XiDecrease(self) -> AtomicOperation:
        candidates = [j for j, e in enumerate(self._events) if e.lower > 0]
        if not candidates:
            return self._XiIncrease()
        j = self._rng.choice(candidates)
        event = self._events[j]
        event.lower -= self._rng.randint(1, min(LOWER_STEP, event.lower))
        return XiDecrease(j, event.lower)

    def _TimeChange(self) -> AtomicOperation:
        j = self._rng.randrange(len(self._events))
        event = self._events[j]
        duration = event.end - event.start
        event.start = self._rng.uniform(
            0.0, max(self._horizon - duration, 0.1)
        )
        event.end = event.start + duration
        return TimeChange(j, Interval(event.start, event.end))

    def _LocationChange(self) -> AtomicOperation:
        x0, x1, y0, y1 = self._box
        return LocationChange(
            self._rng.randrange(len(self._events)),
            Point(self._rng.uniform(x0, x1), self._rng.uniform(y0, y1)),
        )

    def _UtilityChange(self) -> AtomicOperation:
        user = self._rng.randrange(self._n_users)
        event = self._rng.randrange(len(self._events))
        value = (
            0.0 if self._rng.random() < 0.5 else round(self._rng.random(), 3)
        )
        return UtilityChange(user, event, value)

    def _BudgetChange(self) -> AtomicOperation:
        user = self._rng.randrange(self._n_users)
        factor = self._rng.choice(BUDGET_FACTORS)
        self._budgets[user] *= factor
        return BudgetChange(user, self._budgets[user])
