"""Interleaved subexhaustions over a chart graph.

Each chart carries an exhaustion index line 1, 2, 3, ... and each oriented
overlap an oracle mu[(dst, src)](n) = the least dst stage that strictly
swallows src stage n over the shared region.  The goal is one strictly
increasing stage selection per chart such that for any two selected stages
of overlapping charts, one strictly swallows the other; then selected stage
boundaries never meet across charts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .errors import LabError, StructuralError, ValidationFailure

# Selection entries one subexhaust call may materialize over all its passes.
# Stage values grow geometrically with steps under slope >= 2 oracles, so an
# oversized request stops here instead of running for minutes.
MAX_SELECTION_ENTRIES = 1_000_000


@dataclass(frozen=True)
class MonotoneOracle:
    """Nondecreasing map given by a finite prefix and an eventual linear tail.

    value(n) = prefix[n-1] for n <= len(prefix), else slope*n + offset.
    """

    prefix: Tuple[int, ...] = ()
    slope: int = 1
    offset: int = 0

    def __post_init__(self):
        for v in self.prefix:
            if not isinstance(v, int) or v < 1:
                raise StructuralError("oracle values must be positive integers")
        if any(a > b for a, b in zip(self.prefix, self.prefix[1:])):
            raise StructuralError("oracle prefix must be nondecreasing")
        if self.slope < 0:
            raise StructuralError("oracle tail slope must be nonnegative")
        first_tail = self.slope * (len(self.prefix) + 1) + self.offset
        if first_tail < 1:
            raise StructuralError("oracle tail must stay positive")
        if self.prefix and first_tail < self.prefix[-1]:
            raise StructuralError("oracle tail must dominate the prefix")

    def __call__(self, n: int) -> int:
        if n < 1:
            raise StructuralError("oracle argument must be positive")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.slope * n + self.offset


IDENTITY_ORACLE = MonotoneOracle()


@dataclass
class ExhaustionProblem:
    """Chart graph plus the swallowing oracles on its oriented overlaps.

    oracles[(j, i)] answers for chart-i stages inside chart j; each
    unordered overlap needs both orientations.
    """

    charts: Tuple[str, ...]
    overlaps: Tuple[Tuple[int, int], ...] = ()
    oracles: Dict[Tuple[int, int], MonotoneOracle] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.charts)
        seen = set()
        for (i, j) in self.overlaps:
            if not (0 <= i < j < n):
                raise StructuralError(f"overlap ({i}, {j}) must be a sorted chart pair")
            if (i, j) in seen:
                raise StructuralError(f"duplicate overlap ({i}, {j})")
            seen.add((i, j))
        needed = set()
        for (i, j) in self.overlaps:
            needed.add((i, j))
            needed.add((j, i))
        for key in self.oracles:
            if key not in needed:
                raise StructuralError(f"oracle {key} does not match any overlap")
        for key in needed:
            if key not in self.oracles:
                raise StructuralError(f"missing oracle for oriented overlap {key}")

    @property
    def n_charts(self) -> int:
        return len(self.charts)


class _Identity:
    """The untouched index line n -> n; its least stage is closed form."""

    def value(self, n: int) -> int:
        return n

    def least(self, target: int) -> int:
        return target if target > 1 else 1


class _Pass:
    """Two-chart refinement of the current selections a and b.

    Runs the alternating minimal-swallowing recursion on the reindexed
    oracles, bumped where needed to keep the output strictly increasing.
    alpha[0] indexes into a and alpha[1] into b; both are plain integer
    lists filled in order, only as far as they are asked for.  filled is
    a one-entry counter shared by all passes of one subexhaust call.
    """

    def __init__(self, a, b, mu_ba: MonotoneOracle, mu_ab: MonotoneOracle,
                 filled: List[int]):
        self.a, self.b = a, b
        self.mu_ba, self.mu_ab = mu_ba, mu_ab
        self.alpha: Tuple[List[int], List[int]] = ([], [])
        self.filled = filled

    def fill(self, side: int, n: int, reach: int = 0) -> None:
        """Grow alpha[side] to at least n entries, the last at least reach.

        Entries come in the order alpha1(1), alpha2(1), alpha1(2), ...
        that the recursion needs.
        """
        alpha1, alpha2 = self.alpha
        a, b, mu_ba, mu_ab = self.a, self.b, self.mu_ba, self.mu_ab
        grown = self.alpha[side]
        while len(grown) < n or grown[-1] < reach:
            if self.filled[0] >= MAX_SELECTION_ENTRIES:
                raise LabError(f"stage selections exceed {MAX_SELECTION_ENTRIES} "
                               "entries (MAX_SELECTION_ENTRIES); use fewer steps")
            self.filled[0] += 1
            if len(alpha1) == len(alpha2):
                # least current a stage swallowing the last selected b stage
                stage = a.least(mu_ab(b.value(alpha2[-1]))) if alpha1 else 1
                alpha1.append(stage if not alpha1 or stage > alpha1[-1] else alpha1[-1] + 1)
            else:
                stage = b.least(mu_ba(a.value(alpha1[-1])))
                alpha2.append(stage if not alpha2 or stage > alpha2[-1] else alpha2[-1] + 1)


class _Refined:
    """Selection n -> base(alpha[n-1]) composed by one pass."""

    def __init__(self, base, step: _Pass, side: int):
        self.base, self.step, self.side = base, step, side
        self.alpha = step.alpha[side]

    def value(self, n: int) -> int:
        if len(self.alpha) < n:
            self.step.fill(self.side, n)
        return self.base.value(self.alpha[n - 1])

    def least(self, target: int) -> int:
        """Least m >= 1 with value(m) >= target."""
        m = self.base.least(target)
        self.step.fill(self.side, 1, m)
        return bisect_left(self.alpha, m) + 1


@dataclass
class SubexhaustionResult:
    steps: int
    alphas: Dict[int, Tuple[int, ...]]
    pair_order: Tuple[Tuple[int, int], ...]
    verified: bool


def subexhaust(ep: ExhaustionProblem, steps: int = 10) -> SubexhaustionResult:
    """Stage selections for every chart, interleaved across all overlaps.

    Overlapping pairs are processed once each, in lexicographic order;
    every pass refines the two selections involved and refinement only
    discards stages, so established interleavings survive later passes.
    The output is re-verified against every oracle before returning.
    """
    if steps < 1:
        raise StructuralError("steps must be positive")
    seqs = {i: _Identity() for i in range(ep.n_charts)}
    order = tuple(sorted(ep.overlaps))
    filled = [0]
    for (i, j) in order:
        step = _Pass(seqs[i], seqs[j], ep.oracles[(j, i)], ep.oracles[(i, j)], filled)
        seqs[i], seqs[j] = _Refined(seqs[i], step, 0), _Refined(seqs[j], step, 1)
    alphas = {i: tuple(seqs[i].value(n) for n in range(1, steps + 1))
              for i in range(ep.n_charts)}
    ok, witnesses = verify_interleaving(ep, alphas)
    if not ok:
        raise ValidationFailure("constructed selections fail the interleaving",
                                {"kind": "interleaving", "witnesses": witnesses[:3]})
    return SubexhaustionResult(steps, alphas, order, ok)


def verify_interleaving(ep: ExhaustionProblem,
                        alphas: Dict[int, Tuple[int, ...]]):
    """Check every oracle against every selected stage pair.

    For charts i, j sharing an overlap and any selected stages a of i and
    b of j, one of the two must swallow the other: mu_ji(a) <= b or
    mu_ij(b) <= a.  Also checks strict monotonicity of each selection.
    """
    witnesses: List[dict] = []
    for i, seq in alphas.items():
        if any(a >= b for a, b in zip(seq, seq[1:])) or (seq and seq[0] < 1):
            witnesses.append({"chart": i, "reason": "not strictly increasing"})
    for (i, j) in ep.overlaps:
        mu_ji = ep.oracles[(j, i)]
        mu_ij = ep.oracles[(i, j)]
        for a in alphas.get(i, ()):
            for b in alphas.get(j, ()):
                if mu_ji(a) <= b or mu_ij(b) <= a:
                    continue
                witnesses.append({"pair": (i, j), "stages": (a, b)})
    return (not witnesses), witnesses
