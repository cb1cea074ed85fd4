"""Rational linear algebra: oracles against sympy and brute-force reduction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisect import insort
from math import gcd
from typing import Dict, Iterable, List, Optional, Tuple

from algebroidlab.linalg import (
    Echelon,
    QMatrix,
    SparseRow,
    Vector,
    _dense,
    persistence_pairs,
    quotient_dim_and_reps,
)

QZERO = Fraction(0)
QONE = Fraction(1)


def dense_rows(ech: Echelon) -> List[Vector]:
    """The reduced rows of an echelon with a pivot in 0..dim-1, as dense
    vectors, in pivot order."""
    return [_dense(ech.row(p), ech.dim) for p in ech.pivots if p >= 0]


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
    assert ech.add(_sparse([1, 1, 0]))
    assert ech.add(_sparse([0, 1, 1]))
    assert not ech.add(_sparse([1, 2, 1]))     # dependent
    assert not ech.reduce(_sparse([2, 3, 1]))
    assert ech.reduce(_sparse([0, 0, 1]))
    assert ech.rank == 2


class NotAComplexError(ValueError):
    """Composite of two maps expected to vanish does not.

    Carries the first nonzero witness entry as (row, col, value).
    """

    def __init__(self, witness: Tuple[int, int, Fraction]):
        row, col, value = witness
        super().__init__(
            f"not a complex: composite has nonzero entry {value} at row {row}, column {col}")
        self.witness = witness


def kernel_quotient_dims(d_in: QMatrix, d_out: QMatrix) -> Dict[str, object]:
    """Exact homology data of the two-step complex  . --d_in--> . --d_out--> .

    Verifies d_out @ d_in = 0 first and raises NotAComplexError with the
    first nonzero entry as a witness otherwise.  Returns kernel dimension,
    image dimension, quotient dimension, and canonical bases.
    """
    if d_in.ncols and d_out.ncols != d_in.nrows:
        raise ValueError("chain maps are not composable")
    for i, row in enumerate((d_out @ d_in).sparse_rows()):
        if row:
            j = min(row)
            raise NotAComplexError((i, j, row[j]))
    cocycles = d_out.echelon().kernel()
    kernel = [_dense(v, d_out.ncols) for v in cocycles]
    image = d_in.image_basis()
    boundaries = d_in.transpose().echelon() if d_in.ncols else Echelon(d_out.ncols)
    betti, reps = quotient_dim_and_reps(cocycles, boundaries)
    return {
        "kernel_dim": len(kernel),
        "image_dim": len(image),
        "betti": betti,
        "kernel_basis": kernel,
        "image_basis": image,
        "representatives": reps,
    }


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


def _sparse(v, shift=0):
    """A dense vector as a sparse row, with dense column j at column j - shift."""
    return {j - shift: Fraction(x) for j, x in enumerate(v) if x}


def _sparse_rows(vectors, shift=0):
    return [_sparse(v, shift) for v in vectors]


def _quotient(cycles, boundaries, dim):
    """quotient_dim_and_reps on dense cycles and a boundary list."""
    return quotient_dim_and_reps(_sparse_rows(cycles), Echelon(dim, _sparse_rows(boundaries)))


def test_quotient_representatives_reduced():
    cycles = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    boundaries = [[Fraction(1), Fraction(1)]]
    betti, reps = _quotient(cycles, boundaries, 2)
    assert betti == 1
    assert len(reps) == 1


# -- quotient: one echelon against the two-echelon construction ---------------------


def _two_echelon_quotient(cycles, boundaries, dim):
    """The earlier construction, kept as the oracle: residuals modulo the
    boundary echelon, then modulo a second echelon of accepted residuals."""
    ech = FractionEchelon(dim)
    for b in boundaries:
        ech.add(_sparse(b))
    reps = []
    rep_ech = FractionEchelon(dim)
    for z in cycles:
        resid = _dense(rep_ech.reduce(ech.reduce(_sparse(z))), dim)
        pivot = next((i for i, x in enumerate(resid) if x != 0), None)
        if pivot is None:
            continue
        inv = 1 / resid[pivot]
        resid = [x * inv for x in resid]
        rep_ech.add(_sparse(resid))
        reps.append(resid)
    return len(reps), reps


def _combination(rng, vectors, dim):
    out = [Fraction(0)] * dim
    for v in vectors:
        f = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
        out = [a + f * b for a, b in zip(out, v)]
    return out


def _check_quotient(cycles, boundaries, dim):
    got = _quotient(cycles, boundaries, dim)
    assert got == _two_echelon_quotient(cycles, boundaries, dim)
    assert _all_fractions(got[1])
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


# -- the Echelon engine against the dense Gauss-Jordan elimination -----------------


def _gauss_jordan(rows, ncols):
    """The earlier dense rref, kept as the oracle: column by column, first
    nonzero row as pivot, full elimination above and below."""
    m = [[Fraction(v) for v in row] for row in rows]
    nrows = len(m)
    pivots = []
    pr = 0
    for col in range(ncols):
        pivot = next((r for r in range(pr, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        inv = 1 / m[pr][col]
        m[pr] = [v * inv for v in m[pr]]
        for r in range(nrows):
            if r != pr and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
        pivots.append(col)
        pr += 1
        if pr == nrows:
            break
    return m, pivots


def _oracle_kernel(rows, ncols):
    red, pivots = _gauss_jordan(rows, ncols)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][j]
        basis.append(vec)
    return basis


def _oracle_solve(rows, ncols, b):
    red, pivots = _gauss_jordan([row + [v] for row, v in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def _oracle_inverse(rows):
    n = len(rows)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = _gauss_jordan(aug, 2 * n)
    if pivots != list(range(n)):
        return None
    return [red[i][n:] for i in range(n)]


def _all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def _check_against_gauss_jordan(m: QMatrix, rng=None) -> None:
    red, pivots = m.rref()
    want_rows, want_pivots = _gauss_jordan(m.rows, m.ncols)
    assert (red.nrows, red.ncols) == (m.nrows, m.ncols)
    assert pivots == want_pivots
    assert red.rows == want_rows
    assert _all_fractions(red.rows)
    assert m.rank() == len(want_pivots)
    ker = m.kernel_basis()
    assert ker == _oracle_kernel(m.rows, m.ncols) and _all_fractions(ker)
    img = m.image_basis()
    assert img == [m.column(j) for j in want_pivots] and _all_fractions(img)
    rng = rng or random.Random(m.nrows * 31 + m.ncols)
    x0 = [Fraction(rng.randrange(-3, 4)) for _ in range(m.ncols)]
    for b in (m.apply(x0), [_sparse_entry(rng) for _ in range(m.nrows)]):
        x = m.solve(b)
        assert x == _oracle_solve(m.rows, m.ncols, [Fraction(v) for v in b])
        if x is not None:
            assert m.apply(x) == b and _all_fractions([x])
    if m.nrows == m.ncols:
        inv = m.inverse()
        want = _oracle_inverse(m.rows)
        assert (inv is None) == (want is None)
        if inv is not None:
            assert inv.rows == want and _all_fractions(inv.rows)
            assert inv @ m == QMatrix.identity(m.nrows)


def _sparse_matrix(rng, nrows, ncols, density):
    rows = [[(_sparse_entry(rng) or 1) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]
    return QMatrix(rows, ncols)


def test_rref_matches_gauss_jordan_seeded():
    rng = random.Random(20240611)
    outcomes = {"singular": 0, "invertible": 0, "inconsistent": 0}
    for _ in range(400):
        nr, nc = rng.randrange(0, 7), rng.randrange(0, 7)
        rows = [[_sparse_entry(rng) for _ in range(nc)] for _ in range(nr)]
        if nr and rng.random() < 0.3:
            rows[rng.randrange(nr)] = [0] * nc               # zero row
        if nc and rng.random() < 0.3:
            j = rng.randrange(nc)
            for row in rows:                                  # zero column
                row[j] = 0
        if nr > 1 and rng.random() < 0.3:
            i, k = rng.sample(range(nr), 2)                   # dependent row
            f = Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[k])]
        m = QMatrix(rows, nc)
        _check_against_gauss_jordan(m, rng)
        if nr == nc:
            outcomes["singular" if m.inverse() is None else "invertible"] += 1
        if m.solve([1] * nr) is None:
            outcomes["inconsistent"] += 1
    assert all(outcomes.values()), outcomes


def test_rref_edge_shapes():
    for m in (QMatrix([], 0), QMatrix([], 4), QMatrix([[], [], []]),
              QMatrix([[0] * 5] * 3, 5), QMatrix([[0] * 2] * 2, 2), QMatrix.identity(4)):
        _check_against_gauss_jordan(m)
    assert QMatrix([], 3).kernel_basis() == QMatrix.identity(3).rows
    assert QMatrix([], 3).solve([]) == [0, 0, 0]
    assert QMatrix([[], []]).solve([0, 0]) == []
    assert QMatrix([[], []]).solve([0, 1]) is None
    assert QMatrix([], 0).inverse() == QMatrix([], 0)


def test_rref_matches_gauss_jordan_on_sparse_differentials():
    # about 95% zeros, the shape of the CE differentials
    rng = random.Random(1618)
    for nr, nc in ((12, 30), (30, 12), (25, 25), (40, 60)):
        _check_against_gauss_jordan(_sparse_matrix(rng, nr, nc, 0.05), rng)


_sparse_q = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-4, 4),
                      st.fractions(-3, 3, max_denominator=4))


@st.composite
def _matrices(draw):
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_sparse_q, min_size=nc, max_size=nc),
                         min_size=nr, max_size=nr))
    return QMatrix(rows, nc)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rref_matches_gauss_jordan_hypothesis(m):
    _check_against_gauss_jordan(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(
    st.lists(_sparse_q, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_inverse_matches_gauss_jordan_hypothesis(rows):
    _check_against_gauss_jordan(QMatrix(rows, len(rows)))


def test_echelon_rows_stay_reduced_and_sparse():
    rng = random.Random(99)
    for _ in range(100):
        dim = rng.randrange(1, 9)
        ech = Echelon(dim)
        vecs = [[_sparse_entry(rng) for _ in range(dim)] for _ in range(rng.randrange(0, 8))]
        for v in vecs:
            ech.add(_sparse(v))
        rows, pivots = _gauss_jordan(vecs, dim)
        assert ech.pivots == pivots
        assert dense_rows(ech) == rows[:len(pivots)]
        assert all(x != 0 and type(x) is Fraction
                   for p in ech.pivots for x in ech.row(p).values())
        assert _all_fractions(dense_rows(ech)) and _all_fractions(v.values() for v in ech.kernel())
        _check_stored_rows(ech)
        for v in vecs:
            assert not ech.reduce(_sparse(v))


# -- Echelon.kernel against the dense Gauss-Jordan kernel --------------------------


def _oracle_echelon_kernel(rows, n_neg, dim):
    """Null space of the part of span(rows) that vanishes at the first n_neg
    coordinates, by dense Gauss-Jordan: those coordinates lead, and the
    reduced rows pivoted there are dropped."""
    red, pivots = _gauss_jordan(rows, n_neg + dim)
    return _oracle_kernel([row[n_neg:] for row, p in zip(red, pivots) if p >= n_neg], dim)


def _check_kernel(rows, n_neg, dim):
    """rows are dense over n_neg + dim coordinates; the first n_neg go to
    the negative columns -n_neg..-1 of the echelon."""
    ech = Echelon(dim, _sparse_rows(rows, n_neg))
    ker = ech.kernel()
    assert all(x != 0 and type(x) is Fraction for v in ker for x in v.values())
    assert [_dense(v, dim) for v in ker] == _oracle_echelon_kernel(rows, n_neg, dim)
    return ker


def _shaped(rows, width, shape, column=0):
    """Add a zero row, zero one column, or append the identity (full rank)."""
    rows = [list(row) for row in rows]
    if shape == "zero_row":
        rows.append([0] * width)
    elif shape == "zero_column" and width:
        for row in rows:
            row[column % width] = 0
    elif shape == "full_rank":
        rows += [[int(i == j) for j in range(width)] for i in range(width)]
    return rows


_SHAPES = ("plain", "zero_row", "zero_column", "full_rank")


def test_echelon_kernel_matches_gauss_jordan_seeded():
    rng = random.Random(4711)
    seen = {"empty": 0, "nonempty": 0, "negative": 0}
    for _ in range(400):
        n_neg, dim = rng.randrange(0, 4), rng.randrange(0, 8)
        width = n_neg + dim
        rows = [[_sparse_entry(rng) for _ in range(width)] for _ in range(rng.randrange(0, 8))]
        if len(rows) > 1 and rng.random() < 0.3:
            i, k = rng.sample(range(len(rows)), 2)              # dependent row
            rows[i] = [a + 2 * b for a, b in zip(rows[i], rows[k])]
        rows = _shaped(rows, width, rng.choice(_SHAPES), rng.randrange(max(width, 1)))
        ker = _check_kernel(rows, n_neg, dim)
        seen["empty" if not ker else "nonempty"] += 1
        seen["negative"] += bool(n_neg and rows)
    assert all(seen.values()), seen
    # the sparse differentials' shape
    for nr, nc in ((12, 30), (30, 12), (40, 60)):
        _check_kernel(_sparse_matrix(rng, nr, nc, 0.05).rows, 0, nc)
        _check_kernel(_sparse_matrix(rng, nr, nc, 0.05).rows, 5, nc - 5)


def _stores_no_zero(m: QMatrix) -> bool:
    return all(x != 0 and type(x) is Fraction for row in m.sparse_rows() for x in row.values())


def _dense_matmul(a, b, ncols):
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(ncols)]
            for row in a]


def test_sparse_backed_matrix_matches_dense():
    """A matrix made from sparse rows reads, multiplies, reduces, solves and
    inverts like the dense computation on its rows, hands out copies of its
    rows, and never stores a zero in a result."""
    rng, extra = random.Random(515), random.Random(516)
    seen = {"consistent": 0, "inconsistent": 0, "invertible": 0, "singular": 0,
            "cancelling product": 0}
    for shape in [None] * 200 + [(0, 0), (0, 5), (5, 0), (0, 1), (3, 0)]:
        nr, nc = shape or (rng.randrange(0, 9), rng.randrange(0, 9))
        rows = _sparse_matrix(rng, nr, nc, rng.choice((0.1, 0.4, 0.9))).rows
        m = QMatrix.of_sparse(_sparse_rows(rows), nc)
        assert (m.nrows, m.ncols) == (nr, nc)
        assert m.rows == rows and _all_fractions(m.rows)
        assert m == QMatrix(rows, nc) and m.sparse_rows() == _sparse_rows(rows)
        for row in m.sparse_rows():
            row[nc] = Fraction(1)                         # copies: m is unchanged
        assert m.rows == rows
        red, pivots = _gauss_jordan(rows, nc)
        assert dense_rows(m.echelon()) == red[:len(pivots)]
        assert m.rank() == len(pivots)
        assert m.kernel_basis() == m.kernel_basis() == _oracle_kernel(rows, nc)
        cols = [[row[j] for row in rows] for j in range(nc)]
        col_red, col_pivots = _gauss_jordan(cols, nr)
        ce = m.transpose().echelon()
        assert ce.pivots == col_pivots and dense_rows(ce) == col_red[:len(col_pivots)]
        assert m.transpose().rows == cols and m.transpose().transpose() == m
        assert m.image_basis() == [[row[j] for row in rows] for j in pivots]
        assert m.is_zero() == all(x == 0 for row in rows for x in row)
        # products and differences, including ones that cancel to zero
        k = extra.randrange(0, 6)
        other = _sparse_matrix(extra, nc, k, extra.choice((0.2, 0.6)))
        prod = m @ other
        want = _dense_matmul(rows, other.rows, k)
        assert (prod.nrows, prod.ncols) == (nr, k) and prod.rows == want
        assert _stores_no_zero(prod) and prod.is_zero() == all(x == 0 for r in want for x in r)
        seen["cancelling product"] += any(
            not want[i][j] and any(rows[i][c] and other.rows[c][j] for c in range(nc))
            for i in range(nr) for j in range(k))
        assert m @ QMatrix.identity(nc) == m == QMatrix.identity(nr) @ m
        twin = _sparse_matrix(extra, nr, nc, 0.5)
        diff = m - twin
        assert diff.rows == [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(rows, twin.rows)]
        assert _stores_no_zero(diff) and (m - m).is_zero() and _stores_no_zero(m - m)
        assert (m == twin) == (rows == twin.rows) and (diff.is_zero() == (m == twin))
        assert m - m == QMatrix([[0] * nc] * nr, nc) != QMatrix([[0] * (nc + 1)] * nr, nc + 1)
        vec = [_sparse_entry(extra) for _ in range(nc)]
        assert m.apply(vec) == _dense_apply(m, vec) and _all_fractions([m.apply(vec)])
        # solve, on a consistent and on an arbitrary right-hand side
        x0 = [Fraction(extra.randrange(-3, 4)) for _ in range(nc)]
        for b in (_dense_apply(m, x0), [_sparse_entry(extra) for _ in range(nr)]):
            x = m.solve(b)
            assert x == _oracle_solve(rows, nc, [Fraction(v) for v in b])
            seen["inconsistent" if x is None else "consistent"] += 1
            if x is not None:
                assert m.apply(x) == b and _all_fractions([x])
        # inverse, on the leading square block and on that block plus 3 I
        n = min(nr, nc)
        for sq_rows in ([row[:n] for row in rows[:n]],
                        [[x + 3 * (i == j) for j, x in enumerate(row[:n])]
                         for i, row in enumerate(rows[:n])]):
            sq = QMatrix.of_sparse(_sparse_rows(sq_rows), n)
            inv, want_inv = sq.inverse(), _oracle_inverse(sq_rows)
            assert (inv is None) == (want_inv is None)
            seen["singular" if inv is None else "invertible"] += 1
            if inv is not None:
                assert inv.rows == want_inv and _stores_no_zero(inv)
                assert inv @ sq == QMatrix.identity(n) == sq @ inv
    assert all(seen.values()), seen


def test_echelon_kernel_edge_shapes():
    assert Echelon(0).kernel() == []
    assert Echelon(3).kernel() == [{0: 1}, {1: 1}, {2: 1}]
    assert Echelon(2, [{0: Fraction(1)}, {1: Fraction(3)}]).kernel() == []
    # a row pivoted at an eliminated column does not constrain the kernel
    assert Echelon(2, [{-1: Fraction(1), 0: Fraction(2)}]).kernel() == [{0: 1}, {1: 1}]
    ech = Echelon(3, [{-1: Fraction(1), 1: Fraction(1)}, {-1: Fraction(1), 2: Fraction(-1)}])
    assert ech.kernel() == [{0: 1}, {1: -1, 2: 1}]      # row {1: 1, 2: 1} inside


@st.composite
def _echelon_rows(draw):
    n_neg, dim = draw(st.integers(0, 3)), draw(st.integers(0, 6))
    width = n_neg + dim
    rows = draw(st.lists(st.lists(_sparse_q, min_size=width, max_size=width), max_size=6))
    shape = draw(st.sampled_from(_SHAPES))
    return _shaped(rows, width, shape, draw(st.integers(0, 5))), n_neg, dim


@settings(max_examples=200, deadline=None)
@given(_echelon_rows())
def test_echelon_kernel_matches_gauss_jordan_hypothesis(case):
    _check_kernel(*case)


# -- the Fraction engine, kept as the oracle of the fraction-free Echelon --------------


class FractionEchelon:
    """Reduced row echelon span with sparse rows, built one vector at a time.

    Each row is a {column: Fraction} dict of its nonzero entries, equal to 1
    at its own pivot and 0 at every other pivot.  `pivots` is ascending.
    The columns of a vector are 0..dim-1.  A sparse row may also carry
    negative columns, for coordinates to eliminate: they order before every
    other column, and `dense_rows` leaves out the rows pivoted there, so
    its rows are the reduced basis of the part of the span that vanishes
    at those coordinates.  The initial sparse rows are consumed.
    """

    def __init__(self, dim: int, rows: Iterable[SparseRow] = ()):
        self.dim = dim
        self.pivots: List[int] = []
        self._row_at: Dict[int, SparseRow] = {}      # pivot -> row
        for row in rows:
            self.add(row)

    def reduce(self, v: SparseRow) -> SparseRow:
        """Residual of the sparse vector v against the span, computed in place.

        Subtracting the row of one pivot leaves v unchanged at every other
        pivot, so the factors are the entries of v at the pivots.
        """
        rows = self._row_at
        for p in [p for p in v if p in rows]:
            _fraction_axpy(v, -v[p], rows[p])
        return v

    def add(self, v: SparseRow) -> Optional[SparseRow]:
        """Insert the sparse vector v (consumed).

        Returns the new reduced row if v enlarged the span, else None.  The
        row is the echelon's own: later insertions back-substitute into it.
        """
        v = self.reduce(v)
        if not v:
            return None
        pivot = min(v)
        inv = 1 / v[pivot]
        v = {c: x * inv for c, x in v.items()}
        # Back-substitute into existing rows to keep the echelon reduced.
        for row in self._row_at.values():
            if pivot in row:
                _fraction_axpy(row, -row[pivot], v)
        insort(self.pivots, pivot)
        self._row_at[pivot] = v
        return v

    def dense_rows(self) -> List[Vector]:
        """The reduced rows with a pivot in 0..dim-1, as dense vectors, in pivot order."""
        return [_dense(self._row_at[p], self.dim) for p in self.pivots if p >= 0]

    def kernel(self) -> List[SparseRow]:
        """Canonical basis of the null space of `dense_rows`, as sparse vectors.

        One vector per free column in 0..dim-1, in column order: 1 at its
        free column, 0 at the other free columns and minus the row entries
        at the pivots.  A row pivoted at p >= 0 holds only columns >= p, so
        each entry besides its pivot sits at a free column.
        """
        basis = {j: {j: QONE} for j in range(self.dim) if j not in self._row_at}
        for p in self.pivots:
            if p >= 0:
                for c, x in self._row_at[p].items():
                    if c != p:
                        basis[c][p] = -x
        return list(basis.values())

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _fraction_axpy(v: SparseRow, f: Fraction, row: SparseRow) -> None:
    """v += f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        if c in v:
            y = v[c] + f * x
            if y:
                v[c] = y
            else:
                del v[c]
        else:
            v[c] = f * x


def fraction_persistence_pairs(dim: int, rows: Iterable[SparseRow]) -> List[Tuple[int, int]]:
    """(index, pivot) of every row that enlarges the span as the rows enter
    one Echelon in order; the rows are consumed.

    Fed in filtration order, with the columns numbered from the latest
    filtration step down, the pivot of each accepted row is the earliest
    coordinate its reduced image reaches: its persistence partner
    (Edelsbrunner, Letscher and Zomorodian 2002).  The pivots of the
    accepted rows of any prefix are the pivots of its reduced span."""
    ech = FractionEchelon(dim)
    pairs = []
    for i, row in enumerate(rows):
        new = ech.add(row)
        if new is not None:
            pairs.append((i, min(new)))
    return pairs


def _fraction_quotient(cycles: Iterable[SparseRow], boundaries: FractionEchelon):
    """quotient_dim_and_reps on the Fraction engine."""
    reps = [_dense(row, boundaries.dim) for row in map(boundaries.add, cycles)
            if row is not None]
    return len(reps), reps


def _check_stored_rows(ech: Echelon) -> None:
    """The stored form: each row a primitive integer vector with a positive
    pivot entry, 0 at every other pivot."""
    assert sorted(ech._row_at) == ech.pivots
    for p, row in ech._row_at.items():
        assert min(row) == p and row[p] > 0
        assert all(type(x) is int and x != 0 for x in row.values())
        assert gcd(*row.values()) == 1
        assert not any(q in row for q in ech.pivots if q != p)


def compare_engines(dim: int, rows: Iterable[SparseRow]) -> List[Tuple[int, int]]:
    """Feed copies of the rows (integer or rational) to the fraction-free
    Echelon and Fraction copies of them to the Fraction oracle, checking
    after each row that both accept it or not at the same pivot; then
    compare the rational rows, dense rows and kernels, check the stored
    integer rows and return the persistence pairs."""
    new, old = Echelon(dim), FractionEchelon(dim)
    pairs = []
    for i, row in enumerate(rows):
        got = new.add(dict(row))
        want = old.add({c: Fraction(x) for c, x in row.items()})
        assert (got is None) == (want is None)
        if got is not None:
            assert min(got) == min(want)
            pairs.append((i, min(got)))
    assert new.pivots == old.pivots
    assert {p: new.row(p) for p in new.pivots} == old._row_at
    assert dense_rows(new) == old.dense_rows()
    assert new.kernel() == old.kernel()
    assert _all_fractions(v.values() for v in new.kernel())
    _check_stored_rows(new)
    return pairs


def _large_q(draw_zero=True):
    """Rationals with large, mostly coprime denominators and mixed signs."""
    big = st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9))
    small = st.fractions(-3, 3, max_denominator=4)
    return st.one_of(st.just(0), st.just(0), big, small) if draw_zero else st.one_of(big, small)


@st.composite
def _engine_case(draw):
    n_neg, dim = draw(st.integers(0, 2)), draw(st.integers(0, 6))
    width = n_neg + dim
    entry = _large_q()
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=7))
    if rows and draw(st.booleans()):
        # a combination of earlier rows, so that some rows are dependent
        k = draw(st.integers(0, len(rows) - 1))
        f = draw(_large_q(False))
        rows.append([a + f * b for a, b in zip(rows[-1], rows[k])])
    cycles = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=5))
    return n_neg, dim, rows, cycles


def _check_engines(n_neg, dim, rows, cycles):
    sparse = _sparse_rows(rows, n_neg)
    pairs = compare_engines(dim, sparse)
    assert persistence_pairs(dim, [dict(r) for r in sparse]) == pairs
    assert fraction_persistence_pairs(dim, [dict(r) for r in sparse]) == pairs
    got = quotient_dim_and_reps(_sparse_rows(cycles), Echelon(dim, _sparse_rows(rows, n_neg)))
    want = _fraction_quotient(_sparse_rows(cycles),
                              FractionEchelon(dim, _sparse_rows(rows, n_neg)))
    assert got == want and _all_fractions(got[1])
    if not n_neg:
        red, pivots = QMatrix(rows, dim).rref()
        oracle = FractionEchelon(dim, _sparse_rows(rows))
        assert pivots == oracle.pivots
        assert red.rows[:len(pivots)] == oracle.dense_rows() and _all_fractions(red.rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_engine_case())
def test_fraction_free_echelon_matches_fraction_oracle_hypothesis(case):
    _check_engines(*case)


def test_fraction_free_echelon_matches_fraction_oracle_edge_shapes():
    big = Fraction(999999937, 1000000007)          # coprime, near the drawn bound
    for n_neg, dim, rows, cycles in [
            (0, 0, [], []), (0, 0, [[], []], [[]]), (0, 4, [], [[1, 0, big, 0]]),
            (0, 3, [[0, 0, 0]] * 3, [[1, 2, 3]]), (1, 2, [[big, -big, 0]], [[0, 1]]),
            (0, 3, [[-big, 1, Fraction(-1, 3)], [big, -1, Fraction(1, 3)],
                    [Fraction(-2, 999999929), 0, big]], [[1, 1, 1], [0, 0, 1]])]:
        _check_engines(n_neg, dim, rows, cycles)
    # a negative leading entry is stored with a positive pivot
    ech = Echelon(2, [{0: Fraction(-6, 7), 1: Fraction(4, 21)}])
    assert ech._row_at == {0: {0: 9, 1: -2}} and ech.row(0) == {0: 1, 1: Fraction(-2, 9)}
