"""Rational linear algebra: oracles against sympy and brute-force reduction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroidlab.linalg import (
    Echelon,
    NotAComplexError,
    QMatrix,
    kernel_quotient_dims,
    quotient_dim_and_reps,
)


def _random_matrix(rng, nrows, ncols, lo=-3, hi=3):
    return QMatrix([[Fraction(rng.randrange(lo, hi + 1)) for _ in range(ncols)]
                    for _ in range(nrows)], ncols)


def test_rref_frozen():
    m = QMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    red, pivots = m.rref()
    assert pivots == [0, 1]
    assert red.rows[0] == [1, 0, -1]
    assert red.rows[1] == [0, 1, 2]
    assert all(v == 0 for v in red.rows[2])


def test_rank_kernel_image_dimensions_random():
    rng = random.Random(1234)
    for _ in range(100):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = _random_matrix(rng, nr, nc)
        r = m.rank()
        ker = m.kernel_basis()
        img = m.image_basis()
        assert len(ker) == nc - r          # rank-nullity
        assert len(img) == r
        for v in ker:
            assert all(x == 0 for x in m.apply(v))


def test_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(777)
    for _ in range(50):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        m = _random_matrix(rng, nr, nc)
        assert m.rank() == sympy.Matrix([[sympy.Rational(v) for v in row]
                                         for v_i, row in enumerate(m.rows)]).rank()


def test_kernel_is_canonical_and_deterministic():
    m = QMatrix([[1, 1, 0], [0, 0, 0]])
    k1 = m.kernel_basis()
    k2 = m.kernel_basis()
    assert k1 == k2 == [[Fraction(-1), Fraction(1), Fraction(0)],
                        [Fraction(0), Fraction(0), Fraction(1)]]


def test_solve_and_inverse():
    m = QMatrix([[2, 1], [1, 1]])
    x = m.solve([3, 2])
    assert x == [Fraction(1), Fraction(1)]
    inv = m.inverse()
    assert inv @ m == QMatrix.identity(2)
    assert QMatrix([[1, 1], [1, 1]]).inverse() is None
    assert QMatrix([[1, 1], [2, 2]]).solve([1, 3]) is None


def test_matmul():
    a = QMatrix([[1, 2], [3, 4]])
    b = QMatrix([[0, 1], [1, 0]])
    assert (a @ b).rows == [[2, 1], [4, 3]]


def test_echelon_membership_and_reduction():
    ech = Echelon(3)
    assert ech.add([1, 1, 0])
    assert ech.add([0, 1, 1])
    assert not ech.add([1, 2, 1])     # dependent
    assert ech.contains([2, 3, 1])
    assert not ech.contains([0, 0, 1])
    assert ech.rank == 2


def _brute_force_betti(d_in, d_out):
    """Independent oracle: betti from ranks only, via sympy."""
    sympy = pytest.importorskip("sympy")
    a = sympy.Matrix(d_in.nrows, d_in.ncols, lambda i, j: sympy.Rational(d_in.rows[i][j]))
    b = sympy.Matrix(d_out.nrows, d_out.ncols, lambda i, j: sympy.Rational(d_out.rows[i][j]))
    dim = d_out.ncols
    return dim - b.rank() - a.rank()


def test_kernel_quotient_dims_random_complexes():
    rng = random.Random(31337)
    checked = 0
    while checked < 40:
        # Build a genuine two-step complex: d_in maps into ker(d_out).
        dim = rng.randrange(2, 6)
        d_out = _random_matrix(rng, rng.randrange(1, 5), dim)
        ker = d_out.kernel_basis()
        if not ker:
            continue
        n_in = rng.randrange(1, 4)
        cols = []
        for _ in range(n_in):
            combo = [Fraction(0)] * dim
            for v in ker:
                f = Fraction(rng.randrange(-2, 3))
                combo = [c + f * x for c, x in zip(combo, v)]
            cols.append(combo)
        d_in = QMatrix.from_columns(cols, dim)
        res = kernel_quotient_dims(d_in, d_out)
        assert res["betti"] == _brute_force_betti(d_in, d_out)
        assert res["betti"] == res["kernel_dim"] - res["image_dim"]
        assert len(res["representatives"]) == res["betti"]
        checked += 1


def test_kernel_quotient_rejects_non_complex_with_witness():
    d_in = QMatrix([[1], [0]])   # image = span(e1)
    d_out = QMatrix([[1, 0]])    # e1 not in kernel
    with pytest.raises(NotAComplexError) as err:
        kernel_quotient_dims(d_in, d_out)
    assert err.value.witness == (0, 0, Fraction(1))


def test_quotient_representatives_reduced():
    cycles = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    boundaries = [[Fraction(1), Fraction(1)]]
    betti, reps = quotient_dim_and_reps(cycles, boundaries, 2)
    assert betti == 1
    assert len(reps) == 1


# -- quotient: one echelon against the two-echelon construction ---------------------


def _two_echelon_quotient(cycles, boundaries, dim):
    """The earlier construction, kept as the oracle: residuals modulo the
    boundary echelon, then modulo a second echelon of accepted residuals."""
    ech = Echelon(dim)
    for b in boundaries:
        ech.add(b)
    reps = []
    rep_ech = Echelon(dim)
    for z in cycles:
        resid = rep_ech.reduce(ech.reduce(z))
        pivot = next((i for i, x in enumerate(resid) if x != 0), None)
        if pivot is None:
            continue
        inv = 1 / resid[pivot]
        resid = [x * inv for x in resid]
        rep_ech.add(resid)
        reps.append(resid)
    return len(reps), reps


def _combination(rng, vectors, dim):
    out = [Fraction(0)] * dim
    for v in vectors:
        f = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        out = [a + f * b for a, b in zip(out, v)]
    return out


def _check_quotient(cycles, boundaries, dim):
    got = quotient_dim_and_reps(cycles, boundaries, dim)
    assert got == _two_echelon_quotient(cycles, boundaries, dim)
    assert got[0] == len(got[1])


def test_quotient_matches_two_echelon_oracle_seeded():
    rng = random.Random(5150)
    for _ in range(300):
        dim = rng.randrange(0, 7)
        cycles = [[Fraction(_sparse_entry(rng)) for _ in range(dim)]
                  for _ in range(rng.randrange(0, 6))]
        if rng.random() < 0.5:
            # boundaries inside span(cycles), some repeated or zero
            boundaries = [_combination(rng, rng.sample(cycles, rng.randrange(0, len(cycles) + 1)),
                                       dim) for _ in range(rng.randrange(0, 5))]
        else:
            # unrelated random vectors
            boundaries = [[Fraction(_sparse_entry(rng)) for _ in range(dim)]
                          for _ in range(rng.randrange(0, 5))]
        _check_quotient(cycles, boundaries, dim)


_small_q = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda dim: st.tuples(
    st.just(dim),
    st.lists(st.lists(_small_q, min_size=dim, max_size=dim), max_size=5),
    st.lists(st.lists(_small_q, min_size=dim, max_size=dim), max_size=4),
    st.lists(st.lists(_small_q, max_size=5), max_size=4))))
def test_quotient_matches_two_echelon_oracle_hypothesis(data):
    dim, cycles, unrelated, coeffs = data
    # unrelated random vectors as boundaries
    _check_quotient(cycles, unrelated, dim)
    # boundaries inside span(cycles)
    inside = [[sum((c * v[i] for c, v in zip(cs, cycles)), Fraction(0)) for i in range(dim)]
              for cs in coeffs]
    _check_quotient(cycles, inside, dim)


# -- apply: sparse product against the dense formula -------------------------------


def _dense_apply(m: QMatrix, vec) -> list:
    v = [Fraction(x) for x in vec]
    return [sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m.rows]


def _check_apply(m: QMatrix, vec) -> None:
    out = m.apply(vec)
    assert out == _dense_apply(m, vec)
    assert all(type(x) is Fraction for x in out)


def _sparse_entry(rng):
    # mostly zeros, like the CE differentials; the rest ints and fractions
    roll = rng.random()
    if roll < 0.6:
        return 0
    if roll < 0.8:
        return rng.randrange(-4, 5)
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))


def test_apply_matches_dense_formula_seeded():
    rng = random.Random(8675309)
    for _ in range(400):
        nr, nc = rng.randrange(0, 7), rng.randrange(0, 7)
        rows = [[_sparse_entry(rng) for _ in range(nc)] for _ in range(nr)]
        if nr and rng.random() < 0.3:
            rows[rng.randrange(nr)] = [0] * nc               # zero row
        if nc and rng.random() < 0.3:
            j = rng.randrange(nc)
            for row in rows:                                  # zero column
                row[j] = 0
        m = QMatrix(rows, nc)
        vec = [_sparse_entry(rng) for _ in range(nc)]
        if rng.random() < 0.2:
            vec = [0] * nc
        _check_apply(m, vec)
        _check_apply(m, [Fraction(x) for x in vec])


def test_apply_edge_shapes_and_arity():
    _check_apply(QMatrix([], 4), [1, 0, 2, 0])                # 0 x k
    _check_apply(QMatrix([[], [], []]), [])                   # k x 0
    m = QMatrix([[1, 0, 2], [0, 0, 0], [Fraction(1, 3), 5, 0]])
    _check_apply(m, [0, 0, 0])
    _check_apply(m, [3, -1, 7])
    assert m.apply([3, -1, 7]) == [17, 0, -4]
    for bad in ([1, 2], [1, 2, 3, 4], []):
        with pytest.raises(ValueError, match="vector arity mismatch"):
            m.apply(bad)
    with pytest.raises(ValueError, match="vector arity mismatch"):
        QMatrix([], 2).apply([1])


_entries = st.one_of(st.just(0), st.integers(-5, 5),
                     st.fractions(-4, 4, max_denominator=6))


@st.composite
def _matrix_and_vector(draw):
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_entries, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    return QMatrix(rows, nc), draw(st.lists(_entries, min_size=nc, max_size=nc))


@settings(max_examples=200, deadline=None)
@given(_matrix_and_vector())
def test_apply_matches_dense_formula_hypothesis(mv):
    _check_apply(*mv)
