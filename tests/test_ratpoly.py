"""Truncated polynomial ring: frozen expansions, ring axioms, parsing."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from algebroidlab.ratpoly import (
    PolyParseError,
    TruncatedPoly,
    WeightAssignment,
    format_poly,
    grlex_key,
    monomials_up_to,
    parse_poly,
    pivot_kernel_frame,
    poly_divide_exact,
    poly_matrix_inverse_unit,
    poly_matrix_rank,
)

P = TruncatedPoly


def _p(text, names=("x", "y"), cap=None):
    return parse_poly(text, names, cap)


def _random_poly(rng, n_vars, cap, max_terms=5):
    monos = monomials_up_to(n_vars, cap)
    coeffs = {}
    for _ in range(rng.randrange(max_terms + 1)):
        mono = rng.choice(monos)
        coeffs[mono] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return P(n_vars, coeffs, cap)


# -- frozen expansions ---------------------------------------------------------

def test_square_of_one_plus_x_plus_y_full():
    p = _p("1 + x + y", cap=2)
    sq = p * p
    assert sq == _p("1 + 2*x + 2*y + x^2 + 2*x*y + y^2", cap=2)


def test_square_truncates_at_jet_order_one():
    p = _p("1 + x + y", cap=1)
    sq = p * p
    assert sq == _p("1 + 2*x + 2*y", cap=1)
    assert sq.cap == 1


def test_product_mixed_caps_takes_smaller_cap():
    a = _p("1 + x", cap=3)
    b = _p("1 + y", cap=2)
    assert (a * b).cap == 2


def test_sum_mixed_caps_drops_terms_above_the_smaller_cap():
    # the summand with the larger cap (or none) brings terms above the
    # smaller one, which are unknown in the sum
    a = _p("1 + x^2 + x^3*y + y^5")
    b = _p("x - y^2", cap=2)
    for s, want in ((a + b, "1 + x + x^2 - y^2"), (b + a, "1 + x + x^2 - y^2"),
                    (a - b, "1 - x + x^2 + y^2"), (b - a, "-1 + x - x^2 - y^2")):
        assert s.cap == 2 and s == _p(want, cap=2)
        assert all(sum(m) <= 2 for m in s.c)
    same = _p("x^2", cap=2) + b
    assert same.cap == 2 and same == _p("x + x^2 - y^2", cap=2)


def test_zero_polynomial_is_empty_map():
    z = _p("x") - _p("x")
    assert z.is_zero() and z.c == {}


def test_derivative_frozen():
    p = _p("x^3 + 2*x*y + 5")
    assert p.deriv(0) == _p("3*x^2 + 2*y")
    assert p.deriv(1) == _p("2*x")


def test_evaluate_rational_point():
    p = _p("1/2*x^2 - y + 3")
    assert p.evaluate([Fraction(2), Fraction(1, 3)]) == Fraction(2) + Fraction(-1, 3) + 3


# -- canonical order -----------------------------------------------------------

def test_grlex_order_two_vars():
    monos = monomials_up_to(2, 2)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert monos == sorted(monos, key=grlex_key)


def test_leading_term_is_grlex_max():
    p = _p("x + y^2 + x*y")
    # degree 2 terms beat degree 1; (1,1) > (0,2) lexicographically
    assert p.leading_term() == ((1, 1), Fraction(1))


# -- ring axioms on random data -------------------------------------------------

def test_ring_axioms_random():
    rng = random.Random(20240811)
    for _ in range(200):
        n_vars = rng.choice([1, 2, 3])
        cap = rng.choice([2, 3, 4])
        a = _random_poly(rng, n_vars, cap)
        b = _random_poly(rng, n_vars, cap)
        c = _random_poly(rng, n_vars, cap)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()


def test_truncation_consistency_random():
    # The cap-N part of a product only depends on the cap-N parts of factors.
    rng = random.Random(99)
    for _ in range(100):
        a = _random_poly(rng, 2, 6).truncate(None)
        b = _random_poly(rng, 2, 6).truncate(None)
        full = (a * b).truncate(3)
        jet = a.truncate(3) * b.truncate(3)
        assert full.c == jet.c


# -- substitution -----------------------------------------------------------------

def _reference_restrict(p, keep):
    """Set all variables not in ``keep`` to zero and drop them.

    The result has len(keep) variables, in the order given.
    """
    keep = list(keep)
    dropped = [i for i in range(p.n) if i not in keep]
    out = {}
    for mono, val in p.c.items():
        if any(mono[i] for i in dropped):
            continue
        out[tuple(mono[i] for i in keep)] = val
    return TruncatedPoly(len(keep), out, p.cap)


def _reference_remap(p, n_new, mapping):
    """Embed into a polynomial ring with n_new variables.

    mapping[i] is the new index of old variable i.
    """
    if len(mapping) != p.n:
        raise ValueError("mapping has wrong arity")
    out = {}
    for mono, val in p.c.items():
        exp = [0] * n_new
        for old_i, e in enumerate(mono):
            if e:
                exp[mapping[old_i]] += e
        out[tuple(exp)] = val
    return TruncatedPoly(n_new, out, p.cap)


def _reference_scale_vars_by_var(p, idxs, t_idx):
    """Substitute x_l -> t * x_l for every l in idxs, with t = variable t_idx.

    Used to express rescaling maps symbolically; the cap is dropped so
    the substitution is exact.
    """
    idxs = set(idxs)
    out = {}
    for mono, val in p.c.items():
        shift = sum(mono[l] for l in idxs)
        new = list(mono)
        new[t_idx] += shift
        mono2 = tuple(new)
        s = out.get(mono2, Fraction(0)) + val
        if s == 0:
            out.pop(mono2, None)
        else:
            out[mono2] = s
    return TruncatedPoly(p.n, out, None)


def test_restrict_sets_dropped_vars_to_zero():
    p = _p("x^2 + x*y + 3*y + 7")
    q = p.substitute(1, [(1, (0,)), (0, ())])
    assert q == parse_poly("x^2 + 7", ["x"])


def test_remap_embeds_into_larger_ring():
    p = parse_poly("x^2 + 2", ["x"])
    q = p.substitute(3, [(1, (1,))])
    assert q == parse_poly("b^2 + 2", ["a", "b", "t"])


def test_substitute_scales_and_fixes_variables():
    p = _p("x^2 + y")
    assert p.substitute(2, [(Fraction(1, 2), (0,)), (1, (1,))]) == _p("1/4*x^2 + y")
    # x -> 3 * t, y -> 2 in one variable t, keeping the cap
    q = _p("x^2 + x*y + y").truncate(3).substitute(1, [(3, (0,)), (Fraction(2), ())])
    assert q == parse_poly("9*t^2 + 6*t + 2", ["t"]) and q.cap == 3
    # two coordinates onto one, and every coordinate fixed: the value
    assert _p("x - y").substitute(1, [(1, (0,)), (1, (0,))]).is_zero()
    assert _p("x^2 + y").substitute(0, [(Fraction(1, 2), ()), (-3, ())]) == \
        TruncatedPoly.const(0, Fraction(-11, 4))


def test_scale_vars_by_symbolic_t():
    p = parse_poly("y^2 + x", ["x", "y", "t"])
    q = p.substitute(3, [(1, (0,)), (1, (1, 2)), (1, (2,))])
    assert q == parse_poly("y^2*t^2 + x", ["x", "y", "t"])
    # a monomial image with a rational factor, past the cap
    q = parse_poly("x + y^2", ["x", "y"], 3).substitute(2, [(2, (0, 1, 1)), (1, (1,))])
    assert q == parse_poly("2*x*y^2 + y^2", ["x", "y"]) and q.cap == 3
    assert parse_poly("x^2", ["x", "y"], 3).substitute(2, [(1, (0, 1)), (1, (1,))]).is_zero()


def test_substitute_matches_restrict_remap_and_scale_references():
    # kept, dropped, permuted and variable-scaled coordinates, alone and
    # composed into one map, in 1-4 variables with and without a cap
    rng = random.Random(20261019)
    compared = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        cap = rng.choice([None, 2, 3, 5])
        p = _random_poly(rng, n, 5, max_terms=7).truncate(cap)
        keep = rng.sample(range(n), rng.randint(0, n))
        n_new = len(keep) + rng.randint(0, 2)
        mapping = rng.sample(range(n_new), len(keep))
        t_idx = rng.randrange(n_new) if n_new else None
        scaled = [] if t_idx is None else rng.sample(range(n_new), rng.randint(0, n_new))

        got = p.substitute(len(keep), [(1, (keep.index(l),)) if l in keep else (0, ())
                                       for l in range(n)])
        want = _reference_restrict(p, keep)
        assert (got.n, got.c, got.cap) == (want.n, want.c, want.cap), (p, keep)

        kept = want
        got = kept.substitute(n_new, [(1, (m,)) for m in mapping])
        want = _reference_remap(kept, n_new, mapping)
        assert (got.n, got.c, got.cap) == (want.n, want.c, want.cap), (kept, mapping)

        embedded = want
        if t_idx is not None:
            m_t = [(1, (l, t_idx) if l in scaled else (l,)) for l in range(n_new)]
            got = embedded.substitute(n_new, m_t)
            want = _reference_scale_vars_by_var(embedded, scaled, t_idx).truncate(cap)
            assert (got.n, got.c, got.cap) == (want.n, want.c, cap), (embedded, scaled)

            # the three maps composed are one substitution
            images = [(0, ()) if l not in keep else
                      (1, (mapping[keep.index(l)], t_idx) if mapping[keep.index(l)] in scaled
                       else (mapping[keep.index(l)],)) for l in range(n)]
            got = p.substitute(n_new, images)
            assert (got.n, got.c, got.cap) == (want.n, want.c, cap), (p, images)
        compared += 1
    assert compared == 300


# -- weights ---------------------------------------------------------------------

def test_weight_assignment_rejects_negative():
    with pytest.raises(ValueError):
        WeightAssignment((1, -1))


def test_homogeneous_weight():
    w = WeightAssignment((1, 2))
    assert _p("x^2*y + y^2").homogeneous_weight(w.weights) == 4
    assert _p("x + y").homogeneous_weight(w.weights) is None
    assert P.zero(2).homogeneous_weight(w.weights) == 0


# -- parse and format -------------------------------------------------------------

def test_parse_rejects_unknown_variable():
    with pytest.raises(PolyParseError):
        _p("x + z")


def test_parse_rejects_term_above_cap():
    with pytest.raises(PolyParseError):
        _p("x^3", cap=2)


def test_parse_leading_minus_and_rationals():
    p = _p("-x + 3/2")
    assert p.c == {(1, 0): Fraction(-1), (0, 0): Fraction(3, 2)}


def test_format_parse_roundtrip_random():
    rng = random.Random(7)
    names = ("x", "y", "z")
    for _ in range(100):
        p = _random_poly(rng, 3, 4)
        text = format_poly(p, names)
        assert parse_poly(text, names) == p


def test_format_is_canonical():
    assert format_poly(_p("y + x + x^2"), ("x", "y")) == "y + x + x^2"
    assert format_poly(P.zero(2), ("x", "y")) == "0"


# -- exact division, units, generic rank -------------------------------------------

def test_divide_exact_recovers_factor():
    a = _p("x + y")
    b = _p("x - y + 1")
    prod = (a.truncate(None) * b.truncate(None))
    assert poly_divide_exact(prod, a) == b.truncate(None)
    with pytest.raises(ValueError):
        poly_divide_exact(_p("x^2 + y"), a)


def test_poly_matrix_inverse_unit():
    rows = [[_p("1 + x", cap=3), _p("y", cap=3)],
            [_p("0", cap=3) if False else P.zero(2, 3), _p("2", cap=3)]]
    inv = poly_matrix_inverse_unit(rows, 3)
    from algebroidlab.ratpoly import _poly_mat_mul
    prod = _poly_mat_mul(rows, inv)
    assert prod[0][0] == P.const(2, 1, 3) and prod[1][1] == P.const(2, 1, 3)
    assert prod[0][1].is_zero() and prod[1][0].is_zero()


def _unit_block(rng, nrows, ncols, n_vars, cap):
    """nrows x ncols polynomial block whose value at the origin has full row
    rank; higher-order terms are random."""
    from algebroidlab.linalg import QMatrix
    while True:
        const = [[Fraction(rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)])) for _ in range(ncols)]
                 for _ in range(nrows)]
        if QMatrix(const, ncols).rank() == nrows:
            break
    block = []
    for row in const:
        out = []
        for c in row:
            hi = _random_poly(rng, n_vars, cap, max_terms=3)
            hi = hi - P.const(n_vars, hi.constant_term(), cap)
            out.append(hi + P.const(n_vars, c, cap))
        block.append(out)
    return block


def test_pivot_kernel_frame_seeded():
    rng = random.Random(4242)
    for _ in range(120):
        nrows = rng.randrange(0, 3)
        ncols = nrows + rng.randrange(0, 3)
        n_vars, cap = rng.randrange(1, 3), rng.randrange(1, 4)
        block = _unit_block(rng, nrows, ncols, n_vars, cap)
        pivots, free, frame = pivot_kernel_frame(block, ncols, n_vars, cap)
        assert len(pivots) == nrows
        assert sorted(pivots + free) == list(range(ncols))
        assert len(frame) == len(free)
        for t, v in zip(free, frame):
            assert len(v) == ncols
            for t2 in free:
                assert v[t2] == P.const(n_vars, int(t2 == t), cap)
            for row in block:
                acc = P.zero(n_vars, cap)
                for e, c in zip(row, v):
                    acc = acc + e * c
                assert acc.truncate(cap).is_zero()


def test_pivot_kernel_frame_without_rows_is_identity():
    for ncols, n_vars, cap in ((0, 1, 2), (1, 1, 3), (3, 2, 2)):
        pivots, free, frame = pivot_kernel_frame([], ncols, n_vars, cap)
        assert pivots == [] and free == list(range(ncols))
        assert frame == [[P.const(n_vars, int(i == j), cap) for j in range(ncols)]
                         for i in range(ncols)]


def test_generic_rank_frozen_cases():
    x = P.var(2, 0)
    y = P.var(2, 1)
    one = P.const(2, 1)
    # [[x, y], [x, y]] has generic rank 1; [[x, y], [y, x]] has rank 2.
    assert poly_matrix_rank([[x, y], [x, y]]) == 1
    assert poly_matrix_rank([[x, y], [y, x]]) == 2
    assert poly_matrix_rank([[one, y], [y, one]]) == 2
    assert poly_matrix_rank([[P.zero(2), P.zero(2)]]) == 0


def test_generic_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    xs = sympy.symbols("x0 x1")
    for _ in range(40):
        nr, nc = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[_random_poly(rng, 2, 2, max_terms=2) for _ in range(nc)] for _ in range(nr)]
        ours = poly_matrix_rank(rows)
        sym = sympy.Matrix([
            [sum(sympy.Rational(v) * xs[0] ** m[0] * xs[1] ** m[1] for m, v in e.c.items())
             for e in row] for row in rows])
        assert ours == sym.rank()
