"""Stage selection across chart overlaps and its post-hoc verification."""

import random
import time
from functools import lru_cache

import pytest

from algebroidlab.cli import main
from algebroidlab.errors import LabError, StructuralError, ValidationFailure
from algebroidlab.exhaustion import (IDENTITY_ORACLE, MAX_SELECTION_ENTRIES,
                                     ExhaustionProblem, MonotoneOracle,
                                     SubexhaustionResult, subexhaust,
                                     verify_interleaving)


def _two_charts(mu_10, mu_01):
    # mu_10 swallows chart-0 stages inside chart 1
    return ExhaustionProblem(("U0", "U1"), ((0, 1),),
                             {(1, 0): mu_10, (0, 1): mu_01})


def test_oracle_prefix_and_tail_values():
    mu = MonotoneOracle(prefix=(2, 2, 5), slope=2, offset=0)
    assert [mu(n) for n in range(1, 6)] == [2, 2, 5, 8, 10]


def test_oracle_monotonicity_enforced():
    with pytest.raises(StructuralError):
        MonotoneOracle(prefix=(3, 2))
    with pytest.raises(StructuralError):
        MonotoneOracle(prefix=(9,), slope=1, offset=0)   # tail starts below 9
    with pytest.raises(StructuralError):
        MonotoneOracle(slope=0, offset=0)                # tail value 0
    with pytest.raises(StructuralError):
        MonotoneOracle(slope=-1)


def test_problem_requires_both_orientations():
    with pytest.raises(StructuralError):
        ExhaustionProblem(("A", "B"), ((0, 1),), {(1, 0): IDENTITY_ORACLE})
    with pytest.raises(StructuralError):
        ExhaustionProblem(("A", "B"), (),
                          {(1, 0): IDENTITY_ORACLE, (0, 1): IDENTITY_ORACLE})
    with pytest.raises(StructuralError):
        ExhaustionProblem(("A", "B"), ((1, 0),), {})


def test_two_chart_shifted_fixture():
    # swallowing into chart 1 costs one stage, back into chart 0 costs two
    ep = _two_charts(MonotoneOracle(slope=1, offset=1),
                     MonotoneOracle(slope=1, offset=2))
    res = subexhaust(ep, steps=6)
    assert res.alphas[0] == (1, 4, 7, 10, 13, 16)
    assert res.alphas[1] == (2, 5, 8, 11, 14, 17)
    assert res.verified


def test_two_chart_identity_oracles():
    ep = _two_charts(IDENTITY_ORACLE, IDENTITY_ORACLE)
    res = subexhaust(ep, steps=5)
    assert res.alphas[0] == (1, 2, 3, 4, 5)
    assert res.alphas[1] == (1, 2, 3, 4, 5)


def test_disjoint_charts_stay_identity():
    ep = ExhaustionProblem(("A", "B", "C"))
    res = subexhaust(ep, steps=4)
    assert res.alphas == {0: (1, 2, 3, 4), 1: (1, 2, 3, 4), 2: (1, 2, 3, 4)}
    assert res.pair_order == ()


def test_three_chart_chain_identity():
    oracles = {(1, 0): IDENTITY_ORACLE, (0, 1): IDENTITY_ORACLE,
               (2, 1): IDENTITY_ORACLE, (1, 2): IDENTITY_ORACLE}
    ep = ExhaustionProblem(("A", "B", "C"), ((0, 1), (1, 2)), oracles)
    res = subexhaust(ep, steps=5)
    assert all(res.alphas[i] == (1, 2, 3, 4, 5) for i in range(3))


def test_interleaving_postcondition_on_fixture():
    ep = _two_charts(MonotoneOracle(slope=1, offset=1),
                     MonotoneOracle(slope=1, offset=2))
    res = subexhaust(ep, steps=8)
    a0, a1 = res.alphas[0], res.alphas[1]
    # the two displayed inequalities of the two-chart recursion
    for n in range(8):
        assert ep.oracles[(1, 0)](a0[n]) <= a1[n]
    for n in range(1, 8):
        assert ep.oracles[(0, 1)](a1[n - 1]) <= a0[n]


def test_two_chart_superlinear_oracles():
    # doubling oracles: stages escalate geometrically but stay interleaved
    ep = _two_charts(MonotoneOracle(slope=2, offset=0),
                     MonotoneOracle(slope=2, offset=1))
    res = subexhaust(ep, steps=6)
    assert res.alphas[0] == (1, 5, 21, 85, 341, 1365)
    assert res.alphas[1] == (2, 10, 42, 170, 682, 2730)
    assert res.verified


def test_verify_detects_violation():
    ep = _two_charts(MonotoneOracle(slope=1, offset=1),
                     MonotoneOracle(slope=1, offset=2))
    ok, witnesses = verify_interleaving(ep, {0: (1, 2, 3), 1: (1, 2, 3)})
    assert not ok
    assert {"pair": (0, 1), "stages": (1, 1)} in witnesses


def test_verify_flags_non_increasing_selection():
    ep = ExhaustionProblem(("A",))
    ok, witnesses = verify_interleaving(ep, {0: (1, 1, 2)})
    assert not ok
    assert witnesses[0]["reason"] == "not strictly increasing"


def test_steps_must_be_positive():
    with pytest.raises(StructuralError):
        subexhaust(ExhaustionProblem(("A",)), steps=0)


def _random_oracle(rng, allow_super=False) -> MonotoneOracle:
    # superlinear tails are reserved for sparse graphs: stage values compound
    # through every refinement pass, so dense graphs would blow up the walk
    slope = rng.choice((0, 1, 1, 2)) if allow_super else rng.choice((0, 1, 1))
    plen = rng.randrange(0, 4)
    prefix = []
    v = rng.randrange(1, 4)
    for _ in range(plen):
        prefix.append(v)
        v += rng.randrange(0, 3)
    offset = rng.randrange(0, 4)
    first_tail = slope * (plen + 1) + offset
    if prefix and first_tail < prefix[-1]:
        offset += prefix[-1] - first_tail
    if slope == 0 and offset == 0:
        offset = 1
    return MonotoneOracle(tuple(prefix), slope, offset)


def _random_problem(rng) -> ExhaustionProblem:
    n = rng.randrange(2, 7)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    overlaps = tuple(sorted(p for p in pairs if rng.random() < 0.5))
    allow_super = len(overlaps) <= 3
    oracles = {}
    for (i, j) in overlaps:
        oracles[(i, j)] = _random_oracle(rng, allow_super)
        oracles[(j, i)] = _random_oracle(rng, allow_super)
    return ExhaustionProblem(tuple(f"U{k}" for k in range(n)), overlaps, oracles)


def test_randomized_problems_all_verify():
    rng = random.Random(20240817)
    for _ in range(50):
        ep = _random_problem(rng)
        res = subexhaust(ep, steps=8)
        assert res.verified
        ok, _ = verify_interleaving(ep, res.alphas)
        assert ok
        for seq in res.alphas.values():
            assert all(a < b for a, b in zip(seq, seq[1:]))


# Oracle for the materialized selections: the closure recursion that
# subexhaust used before, composing each pass over the previous pass's
# closures with on-demand memos and a galloping least-stage search.

class _ClosureMemo:
    def __init__(self, step):
        self.vals = []
        self.step = step

    def __call__(self, n):
        while len(self.vals) < n:
            self.vals.append(self.step(len(self.vals) + 1))
        return self.vals[n - 1]


def _closure_least_stage(seq, target):
    if seq(1) >= target:
        return 1
    lo, hi = 1, 2
    while seq(hi) < target:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if seq(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _closure_pair(a_seq, b_seq, mu_ba, mu_ab):
    a_seq = lru_cache(maxsize=None)(a_seq)
    b_seq = lru_cache(maxsize=None)(b_seq)

    def re_ba(n):
        return _closure_least_stage(b_seq, mu_ba(a_seq(n)))

    def re_ab(n):
        return _closure_least_stage(a_seq, mu_ab(b_seq(n)))

    def step1(k):
        if k == 1:
            return 1
        return max(re_ab(alpha2(k - 1)), alpha1(k - 1) + 1)

    def step2(k):
        if k == 1:
            return re_ba(alpha1(1))
        return max(re_ba(alpha1(k)), alpha2(k - 1) + 1)

    alpha1 = _ClosureMemo(step1)
    alpha2 = _ClosureMemo(step2)
    return (lambda n: a_seq(alpha1(n))), (lambda n: b_seq(alpha2(n)))


def _closure_alphas(ep, steps):
    seqs = {i: (lambda n: n) for i in range(ep.n_charts)}
    for (i, j) in sorted(ep.overlaps):
        seqs[i], seqs[j] = _closure_pair(seqs[i], seqs[j],
                                         ep.oracles[(j, i)], ep.oracles[(i, j)])
    return {i: tuple(seqs[i](n) for n in range(1, steps + 1))
            for i in range(ep.n_charts)}


@pytest.mark.parametrize("seed, count, steps",
                         [(20240817, 50, 8), (424243, 50, 8), (7, 100, 5)])
def test_selections_match_closure_recursion(seed, count, steps):
    rng = random.Random(seed)
    for _ in range(count):
        ep = _random_problem(rng)
        assert subexhaust(ep, steps=steps).alphas == _closure_alphas(ep, steps)


# -- resource bound: an oversized steps request stops with LabError -----------------


def _worst_criterion_9_problem():
    """Draw 43 of the criterion-9 generator: 4 charts, overlaps (0,1),(1,2),
    slope-2 tails, whose stage values grow about 4x per step."""
    rng = random.Random(424243)
    for _ in range(43):
        ep = _random_problem(rng)
    assert ep.n_charts == 4 and ep.overlaps == ((0, 1), (1, 2))
    return ep


def _model_text(ep) -> str:
    lines = ["version 1", "", "exhaustion worst {",
             "  charts = " + ", ".join(ep.charts),
             "  overlaps = " + ", ".join(f"({i},{j})" for i, j in ep.overlaps)]
    for (dst, src), mu in sorted(ep.oracles.items()):
        clauses = [f"prefix {', '.join(map(str, mu.prefix))}"] if mu.prefix else []
        clauses += [f"slope {mu.slope}", f"offset {mu.offset}"]
        lines.append(f"  mu[{dst}][{src}] = " + " ; ".join(clauses))
    return "\n".join(lines + ["}"]) + "\n"


def test_oversized_steps_raise_lab_error_quickly():
    ep = _worst_criterion_9_problem()
    t0 = time.process_time()
    with pytest.raises(LabError, match=str(MAX_SELECTION_ENTRIES)):
        subexhaust(ep, steps=14)
    assert time.process_time() - t0 < 2.0


def test_oversized_steps_exit_1_from_cli(tmp_path, capsysbinary):
    ep = _worst_criterion_9_problem()
    model = tmp_path / "worst.alab"
    model.write_text(_model_text(ep), encoding="utf-8")
    assert main(["subexhaust", str(model), "--steps", "6"]) == 0
    capsysbinary.readouterr()
    assert main(["subexhaust", str(model), "--steps", "14"]) == 1
    captured = capsysbinary.readouterr()
    assert b"verdict: error" in captured.out
    assert b"MAX_SELECTION_ENTRIES" in captured.out
    assert b"internal error" not in captured.out
    assert b"Traceback" not in captured.out + captured.err
