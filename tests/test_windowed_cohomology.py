"""Windowed boundaries, the memoized differential, the degree-ordered
window pass and their guards."""

from __future__ import annotations

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroidlab.algebroid import LieAlgebroidPatch, Representation, adjoint_representation
from algebroidlab.cohomology import (CEComplex, CohomologyRow, _boundaries, _degree,
                                     _windowed_row, format_cochain, jet_cohomology,
                                     weight_cohomology)
from algebroidlab.errors import StructuralError, ValidationFailure
from algebroidlab.library import (
    abelian_patch,
    euler_vector_field_patch,
    heisenberg_patch,
    poisson_disc_patch,
    product_with_tangent,
    sl2_patch,
    tangent_patch,
)
from algebroidlab.linalg import Echelon, QMatrix, _axpy, persistence_pairs, quotient_dim_and_reps
from algebroidlab.modelfile import parse_model
from algebroidlab.pullback import euler_homotopy_verify, transversal_iso_check
from algebroidlab.ratpoly import TruncatedPoly, WeightAssignment
from test_linalg import (_oracle_kernel, _sparse, _two_echelon_quotient, compare_engines,
                         dense_rows)

# the module; the package exports a function of the same name
COHOMOLOGY = sys.modules["algebroidlab.cohomology"]

SLOPES = (F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-1, 2), F(2, 3), F(-3, 2))


def _affine_patch(slopes, jet_order: int, dx=(1,)) -> LieAlgebroidPatch:
    """Patch e1 = f(x) d_x + sum_k a_k y_k d_{y_k}, e_{k+1} = d_{y_k}, with
    [e1, e_{k+1}] = -a_k e_{k+1}; weight 0 on x and 1 on every y_k.  dx
    lists the coefficients of f = sum_i dx[i] x^i; f = 1 makes it transitive,
    and a quadratic f gives the differential a positive degree shift."""
    n = 1 + len(slopes)

    def c(v):
        return TruncatedPoly.const(n, v, jet_order)

    z = c(0)
    f = z
    for i, v in enumerate(dx):
        f = f + TruncatedPoly.monomial(n, (i,) + (0,) * (n - 1), v, jet_order)
    anchor = [[f] + [TruncatedPoly.monomial(n, tuple(int(i == k + 1) for i in range(n)),
                                               a, jet_order)
                        for k, a in enumerate(slopes)]]
    anchor += [[c(1) if l == k + 1 else z for l in range(n)] for k in range(n - 1)]
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    for k, a in enumerate(slopes):
        structure[0][k + 1] = [c(-a) if m == k + 1 else z for m in range(n)]
        structure[k + 1][0] = [c(a) if m == k + 1 else z for m in range(n)]
    return LieAlgebroidPatch(("x", "y", "z")[:n], jet_order, n, anchor, structure,
                             weights=WeightAssignment((0,) + (1,) * (n - 1)),
                             frame_weights=(0,) + (-1,) * (n - 1),
                             name=f"affine{n}")


def _kernel_then_apply(cx, q, n_deg, weight, basis_q, shift):
    """The windowed boundaries by the dense construction: the kernel of the
    rows of d_pre outside the window, each kernel vector pushed through d_pre."""
    if q == 0:
        return []
    slack = shift + 1
    basis_pre = cx.window_basis(q - 1, n_deg + slack, weight)
    basis_mid = cx.window_basis(q, n_deg + slack + shift, weight)
    d_pre = cx.d_matrix(basis_pre, basis_mid)
    inside = {elem: i for i, elem in enumerate(basis_q)}
    outside_rows = [i for i, elem in enumerate(basis_mid) if elem not in inside]
    admissible = QMatrix([d_pre.rows[i] for i in outside_rows], d_pre.ncols).kernel_basis()
    out = []
    for eta in admissible:
        img = d_pre.apply(eta)
        assert not any(img[i] for i in outside_rows)
        vec = [F(0)] * len(basis_q)
        for i, elem in enumerate(basis_mid):
            if elem in inside:
                vec[inside[elem]] = img[i]
        if any(vec):
            out.append(vec)
    return out


def _rref(vectors, dim):
    ech = Echelon(dim)
    for v in vectors:
        ech.add(_sparse(v))
    return dense_rows(ech)


def _check_boundaries(a, weights=(None,), extra_shifts=(0,)):
    cases = 0
    for weight in weights:
        for extra in extra_shifts:
            for q in range(a.rank + 1):
                for n_deg in range(1, 5):
                    cx, oracle_cx = CEComplex(a), CEComplex(a)
                    shift = cx.degree_shift() + extra
                    basis_q = cx.window_basis(q, n_deg, weight)
                    primitives = cx.window_basis(q - 1, n_deg + shift + 1, weight) if q else []
                    got = dense_rows(_boundaries(cx, primitives, basis_q))
                    want = _kernel_then_apply(oracle_cx, q, n_deg, weight, basis_q, shift)
                    assert got == _rref(want, len(basis_q)), (a.name, weight, extra, q, n_deg)
                    cases += bool(got)
    assert cases, f"{a.name}: every boundary span was empty"


def test_window_boundaries_match_kernel_then_apply_on_affine_patches():
    rng = random.Random(20261018)
    for n_slopes in (1, 1, 2):
        slopes = [rng.choice(SLOPES) for _ in range(n_slopes)]
        _check_boundaries(_affine_patch(slopes, 6))


def test_window_boundaries_match_kernel_then_apply_on_products():
    for fibre in (sl2_patch(), heisenberg_patch()):
        _check_boundaries(product_with_tangent(fibre, ("y",), 5, (1,)))


def test_window_boundaries_match_kernel_then_apply_on_weight_strata():
    _check_boundaries(_affine_patch([F(2)], 6), weights=(-2, -1, 0, 1, 2))


def test_window_boundaries_match_kernel_then_apply_with_larger_shift():
    # primitives deeper than the complex's own shift + 1, as a deeper
    # boundary depth for the jet windows would read them; poisson_disc has
    # a nonzero shift of its own
    _check_boundaries(_affine_patch([F(-1, 2)], 6), extra_shifts=(1, 2))
    _check_boundaries(poisson_disc_patch(), extra_shifts=(0, 1))


def test_stratum_boundaries_match_image_of_d_matrix():
    sl2 = sl2_patch()
    cases = 0
    for a, rho in ((sl2, None), (sl2, adjoint_representation(sl2)),
                   (product_with_tangent(sl2, ("y",), 5, (1,)), None),
                   (product_with_tangent(heisenberg_patch(), ("y",), 5, (1,)), None)):
        for q in range(1, a.rank + 1):
            for w in range(-3, 4):
                cx, oracle_cx = CEComplex(a, rho), CEComplex(a, rho)
                basis_pre, basis_q = cx.stratum_basis(q - 1, w), cx.stratum_basis(q, w)
                got = dense_rows(_boundaries(cx, basis_pre, basis_q))
                image = oracle_cx.d_matrix(basis_pre, basis_q).image_basis()
                assert got == _rref(image, len(basis_q)), (a.name, q, w)
                cases += bool(got)
    assert cases


def _dense_classes(cx, basis_q, d_up, boundaries):
    """The earlier dense construction, kept as the oracle: the dense
    Gauss-Jordan kernel of d, then the two-echelon quotient; the
    representatives formatted as in the reports."""
    cocycles = _oracle_kernel(d_up.rows, d_up.ncols)
    betti, reps = _two_echelon_quotient(cocycles, boundaries, len(basis_q))
    return betti, [format_cochain(v, basis_q, cx.a.var_names, cx.rho.rank) for v in reps]


def _dense_window(cx, q, n_deg, weight):
    shift = cx.degree_shift()
    basis_q = cx.window_basis(q, n_deg, weight)
    d_up = cx.d_matrix(basis_q, cx.window_basis(q + 1, n_deg + shift, weight))
    return _dense_classes(cx, basis_q, d_up,
                          _kernel_then_apply(cx, q, n_deg, weight, basis_q, shift))


def _dense_stratum(cx, q, w):
    basis_q = cx.stratum_basis(q, w)
    d_up = cx.d_matrix(basis_q, cx.stratum_basis(q + 1, w))
    image = cx.d_matrix(cx.stratum_basis(q - 1, w), basis_q).image_basis() if q else []
    return _dense_classes(cx, basis_q, d_up, image)


def _check_against_dense(rep, cx):
    classes = 0
    for row in rep.rows:
        if row.exact:
            assert (row.betti, row.representatives) == _dense_stratum(cx, row.degree, row.weight)
        else:
            for n_deg, betti in row.history:
                want = _dense_window(cx, row.degree, n_deg, row.weight)
                assert betti == want[0], (cx.a.name, row.degree, row.weight, n_deg)
            assert row.representatives == want[1], (cx.a.name, row.degree, row.weight)
        classes += row.betti
    assert classes, f"{cx.a.name}: no class to compare"


def test_jet_cohomology_matches_dense_construction():
    for a in (_affine_patch([F(2)], 6), _affine_patch([F(-1, 2), F(1)], 5),
              product_with_tangent(sl2_patch(), ("y",), 5, (1,)),
              tangent_patch(("x", "y"), 6)):
        _check_against_dense(jet_cohomology(a, window=(1, 3, 2)), CEComplex(a))


def test_weight_cohomology_matches_dense_construction():
    heis = heisenberg_patch()
    for a, rho in ((_affine_patch([F(2)], 6), None),
                   (product_with_tangent(heisenberg_patch(), ("y",), 5, (1,)), None),
                   (tangent_patch(("x", "y"), 6, (1, 2)), None),
                   (sl2_patch(), None), (heis, adjoint_representation(heis))):
        _check_against_dense(weight_cohomology(a, rho, window=(1, 3, 2)), CEComplex(a, rho))


def _count_builds(monkeypatch):
    """Count uncached differential builds per (complex, element) and apply calls."""
    builds, complexes, applies = {}, {}, []
    build, apply = CEComplex._build_d, QMatrix.apply

    def counting_build(self, elem):
        complexes[id(self)] = self          # keeps every id unique
        key = (id(self), elem)
        builds[key] = builds.get(key, 0) + 1
        return build(self, elem)

    def counting_apply(self, vec):
        applies.append(vec)
        return apply(self, vec)

    monkeypatch.setattr(CEComplex, "_build_d", counting_build)
    monkeypatch.setattr(QMatrix, "apply", counting_apply)
    return builds, complexes, applies


def test_windowed_paths_build_each_differential_once_and_never_apply(monkeypatch):
    builds, _, applies = _count_builds(monkeypatch)
    rep = jet_cohomology(_affine_patch([F(2)], 5), window=(3, 5, 3))
    assert [r.betti for r in rep.rows] == [1, 0, 0]
    assert not applies
    assert builds and max(builds.values()) == 1

    builds.clear()
    rep = transversal_iso_check(_affine_patch([F(2)], 6), None, keep=(0,), window=(3, 5, 3))
    assert rep.ok
    assert not applies
    assert builds and max(builds.values()) == 1


def test_d_matrix_rejects_target_window_one_degree_short():
    cx = CEComplex(_affine_patch([F(3)], 6))
    shift = cx.degree_shift()
    for q in (0, 1):
        source = cx.window_basis(q, 3)
        cx.d_matrix(source, cx.window_basis(q + 1, 3 + shift))
        with pytest.raises(StructuralError, match="leaves the target window"):
            cx.d_matrix(source, cx.window_basis(q + 1, 3 + shift - 1))


def test_cached_cochains_are_not_mutated_by_callers(monkeypatch):
    _, complexes, _ = _count_builds(monkeypatch)
    jet_cohomology(_affine_patch([F(1, 2)], 5), window=(2, 4, 2))
    euler_homotopy_verify(product_with_tangent(sl2_patch(), ("y",), 5, (1,)), None,
                          max_deg=3, degrees=(0, 1, 2))
    assert len(complexes) >= 3
    for cx in list(complexes.values()):
        fresh = CEComplex(cx.a, cx.rho)
        for elem, cochain in cx._d.items():
            fresh.d_of_element(elem)
            assert cochain == fresh._d[elem], (cx.a.name, elem)


# -- the degree-ordered pass against the per-window loop ----------------------------------


def _per_window_row(cx, q, weight, window):
    """The per-window loop that the degree-ordered pass replaced, kept as its
    oracle: both eliminations redone in full on every window N = a..b."""
    start, end, span = window
    shift = cx.degree_shift()
    history = []
    for n_deg in range(start, end + 1):
        basis = cx.window_basis(q, n_deg, weight)
        d = cx.d_matrix(basis, cx.window_basis(q + 1, n_deg + shift, weight))
        primitives = cx.window_basis(q - 1, n_deg + shift + 1, weight) if q else []
        betti, reps = quotient_dim_and_reps(d.echelon().kernel(),
                                            _boundaries(cx, primitives, basis))
        history.append((n_deg, betti))
    tail = [b for _, b in history[-span:]]
    reps_str = [format_cochain(v, basis, cx.a.var_names, cx.rho.rank) for v in reps]
    return CohomologyRow(q, betti, weight, window, len(tail) == span and len(set(tail)) == 1,
                         exact=False, history=history, representatives=reps_str), len(basis)


def _assert_rows_match(a, rho, window, degrees, weights=(None,)):
    """`_windowed_row` equals the per-window loop (row and basis size) on
    every (degree, weight); one complex serves all of them, as in the
    reports, so its memoized passes are shared across degrees."""
    cx = CEComplex(a, rho)
    for q in degrees:
        for w in weights:
            want = _per_window_row(CEComplex(a, rho), q, w, window)
            assert _windowed_row(cx, q, w, window) == want, (a.name, q, w, window)


MODELS = Path(__file__).resolve().parent.parent / "models"


def _tier1_patches():
    """The patches of the shipped models, each with its representations,
    and the library and affine patches that the tier-1 tests window."""
    for path in sorted(MODELS.glob("*.alab")):
        model = parse_model(str(path))
        for a in model.algebroids.values():
            yield a, None
        for rho in model.representations.values():
            yield rho.algebroid, rho
    sl2, heis = sl2_patch(), heisenberg_patch()
    yield sl2, adjoint_representation(sl2)
    yield heis, adjoint_representation(heis)
    yield abelian_patch(3), None
    yield euler_vector_field_patch(5), None
    yield poisson_disc_patch(5), None
    yield tangent_patch(("x", "y"), 6), None
    yield tangent_patch(("x", "y"), 6, (1, 2)), None
    for fibre in (sl2, heis):
        yield product_with_tangent(fibre, ("y",), 5, (1,)), None
    yield product_with_tangent(heis, ("y", "z"), 4, (1, 2)), None
    yield _affine_patch([F(2)], 6), None
    yield _affine_patch([F(-1, 2), F(1)], 5), None


def test_windowed_rows_match_per_window_loop_on_tier1_patches():
    seen = 0
    for a, rho in _tier1_patches():
        for window in ((0, 3, 2), (1, 4, 3), (2, 2, 1)):
            _assert_rows_match(a, rho, window, range(a.rank + 2))
        seen += 1
    assert seen >= 15


def test_weight_strata_rows_match_per_window_loop():
    for a in (_affine_patch([F(2)], 6), _affine_patch([F(-1, 2), F(1)], 5),
              product_with_tangent(sl2_patch(), ("y",), 5, (0,))):
        for window in ((0, 3, 2), (1, 4, 3)):
            _assert_rows_match(a, None, window, range(a.rank + 1), weights=range(-2, 3))


def test_reports_match_per_window_loop():
    a = _affine_patch([F(2)], 6)
    rows = 0
    for rep in (jet_cohomology(a, window=(1, 4, 2)), weight_cohomology(a, window=(0, 3, 2))):
        for row in rep.rows:
            assert row == _per_window_row(CEComplex(a), row.degree, row.weight, row.window)[0]
            rows += 1
    assert rows >= 6


_FIBRES = {"sl2": sl2_patch(), "heisenberg": heisenberg_patch(), "abelian2": abelian_patch(2)}


@st.composite
def _windowed_cases(draw):
    """A patch, a window starting at 0 or 1, a degree and, for a weight
    stratum, a weight.  An affine patch with a quadratic d_x coefficient has
    degree shift 1, every other drawn patch shift 0."""
    if draw(st.booleans()):
        slopes = draw(st.lists(st.sampled_from(SLOPES), min_size=1, max_size=2))
        dx = draw(st.sampled_from([(1,), (1, 1), (0, 1), (1, 0, 1), (0, 0, 1), (2, F(-1, 2), 3)]))
        a = _affine_patch(slopes, 5, dx)
    else:
        fibre = _FIBRES[draw(st.sampled_from(sorted(_FIBRES)))]
        var_weights = draw(st.sampled_from([(0,), (1,), (0, 1)]))
        a = product_with_tangent(fibre, ("y", "z")[:len(var_weights)], 4, var_weights)
    start = draw(st.integers(0, 1))
    end = draw(st.integers(start, start + 3))
    window = (start, end, draw(st.integers(1, 3)))
    q = draw(st.integers(0, a.rank))
    weight = draw(st.one_of(st.none(), st.integers(-2, 2)))
    return a, window, q, weight


@settings(max_examples=320, deadline=None, derandomize=True, database=None)
@given(_windowed_cases())
def test_windowed_row_matches_per_window_loop_hypothesis(case):
    a, window, q, weight = case
    _assert_rows_match(a, None, window, [q], [weight])


def test_jet_history_costs_no_elimination_per_window(monkeypatch):
    made = []
    init = Echelon.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Echelon, "__init__", counting_init)
    counts = []
    for window in ((2, 3, 2), (2, 8, 2)):
        made.clear()
        rep = jet_cohomology(tangent_patch(("x", "y"), 8), window=window)
        assert [row.betti for row in rep.rows] == [1, 0, 0]
        counts.append(len(made))
    assert 0 < counts[1] <= counts[0], counts


# -- clearing and the d o d certificate -------------------------------------------------


def _uncleared_pass(cx, q, weight, top):
    """The degree pass before clearing, kept as its oracle: every source of
    C^q_{<=top} fed in ascending coefficient degree.  Returns the source
    degrees, the sorted (source degree, pivot degree) pairs and the pivot
    elements."""
    source = sorted(cx.window_basis(q, top, weight), key=_degree)
    target = sorted(cx.window_basis(q + 1, top + cx.degree_shift(), weight),
                    key=lambda e: -_degree(e))
    col = {elem: k for k, elem in enumerate(target)}
    rows = ({col[c]: x for c, x in cx.d_of_element(e).items()} for e in source)
    pairs = [(source[i], target[p]) for i, p in persistence_pairs(len(target), rows)]
    return ([_degree(e) for e in source], sorted((_degree(e), _degree(p)) for e, p in pairs),
            {p for _, p in pairs})


def _assert_passes_match(a, rho, tops, degrees, weights):
    """Every cleared pass has the degrees, pairs and pivots of the uncleared
    one; one complex per top serves every degree and weight, as in the
    reports."""
    n_pairs = 0
    for top in tops:
        cx, oracle_cx = CEComplex(a, rho), CEComplex(a, rho)
        for w in weights:
            for q in degrees:
                degrees_q, pairs, pivots = cx._degree_pass(q, w, top)
                want = _uncleared_pass(oracle_cx, q, w, top)
                assert (degrees_q, sorted(pairs), pivots) == want, (a.name, top, w, q)
                n_pairs += len(pairs)
    return n_pairs


def _weights_of(a):
    """None, and the weights -2..2 when the patch can weigh its cochains."""
    graded = a.weights is not None or a.n_vars == 0
    return (None,) + (tuple(range(-2, 3)) if graded else ())


def test_cleared_passes_match_uncleared_on_tier1_patches():
    pairs = 0
    for a, rho in _tier1_patches():
        shift = CEComplex(a, rho).degree_shift()
        tops = sorted({end + shift + 1 for _, end, _ in ((0, 3, 2), (1, 4, 3), (2, 2, 1))})
        pairs += _assert_passes_match(a, rho, tops, range(a.rank + 2), _weights_of(a))
    assert pairs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_windowed_cases())
def test_cleared_pass_matches_uncleared_hypothesis(case):
    a, (_, end, _), q, weight = case
    top = end + CEComplex(a).degree_shift() + 1
    _assert_passes_match(a, None, [top], range(q + 1), [weight])


def test_degree_pass_rows_reduce_alike_in_both_engines(monkeypatch):
    """Every row a degree pass feeds, on the tier-1 patches, is accepted at
    the same pivot by the fraction-free Echelon and by the Fraction oracle,
    and both end on the same reduced rows and kernel."""
    fed = []

    def twin(dim, rows):
        rows = list(rows)
        fed.append(len(rows))
        return compare_engines(dim, rows)

    monkeypatch.setattr(COHOMOLOGY, "persistence_pairs", twin)
    for a, rho in _tier1_patches():
        for end in (2, 6):
            cx = CEComplex(a, rho)
            for w in _weights_of(a):
                for q in range(a.rank + 1):
                    cx._degree_pass(q, w, end + cx.degree_shift() + 1)
    assert len(fed) > 700 and sum(fed) > 2500, (len(fed), sum(fed))


def test_last_window_eliminates_only_where_a_class_survives(monkeypatch):
    a = _affine_patch([F(2)], 5)
    quotients, passes = [], []
    quotient, pairs = COHOMOLOGY.quotient_dim_and_reps, COHOMOLOGY.persistence_pairs

    def counting_quotient(cycles, boundaries):
        quotients.append(boundaries.dim)
        return quotient(cycles, boundaries)

    def counting_pairs(dim, rows):
        rows = list(rows)
        passes.append((dim, len(rows)))
        return pairs(dim, rows)

    monkeypatch.setattr(COHOMOLOGY, "quotient_dim_and_reps", counting_quotient)
    monkeypatch.setattr(COHOMOLOGY, "persistence_pairs", counting_pairs)
    rep = jet_cohomology(a, window=(3, 5, 3))
    assert [r.betti for r in rep.rows] == [1, 0, 0]
    cx = CEComplex(a)
    top = 5 + cx.degree_shift() + 1
    assert quotients == [len(cx.window_basis(0, 5))]
    # passes of degrees 0, 1, 2 in that order; degree 1 feeds no row for
    # the pivots of degree 0 inside its source window
    assert [dim for dim, _ in passes] == [len(cx.window_basis(q + 1, top)) for q in range(3)]
    pivots_0 = _uncleared_pass(CEComplex(a), 0, None, top)[2]
    cleared = sum(1 for e in pivots_0 if _degree(e) <= top)
    assert 0 < cleared and passes[1][1] == len(cx.window_basis(1, top)) - cleared


def _d_of_d(cx, elem):
    out = {}
    for key, val in cx.d_of_element(elem).items():
        _axpy(out, val, cx.d_of_element(key))
    return out


def _squares_to_zero_up_to(cx, top):
    """Brute force: d o d vanishes on every basis element of coefficient
    degree <= top in every cochain degree."""
    return all(not _d_of_d(cx, e) for q in range(cx.a.rank + 1) for e in cx.window_basis(q, top))


def _poly(n, terms, jet_order):
    """sum of v * x^mono over (mono, v) in terms."""
    out = TruncatedPoly.zero(n, jet_order)
    for mono, v in terms:
        out = out + TruncatedPoly.monomial(n, mono, v, jet_order)
    return out


def _bump_bracket(a, i, j, k, delta):
    structure = [[list(col) for col in plane] for plane in a.structure]
    bump = TruncatedPoly.const(a.n_vars, delta, a.jet_order)
    structure[i][j][k] = structure[i][j][k] + bump
    structure[j][i][k] = structure[j][i][k] - bump
    return LieAlgebroidPatch(a.var_names, a.jet_order, a.rank, a.anchor, structure,
                             a.weights, a.frame_weights, a.name + "_bumped")


def _drop_anchor_term(a, i, l):
    anchor = [list(row) for row in a.anchor]
    anchor[i][l] = TruncatedPoly.zero(a.n_vars, a.jet_order)
    return LieAlgebroidPatch(a.var_names, a.jet_order, a.rank, anchor, a.structure,
                             a.weights, a.frame_weights, a.name + "_dropped")


def _rank_one_connection(a, gammas):
    """The rank-1 representation with connection forms gammas[i]."""
    return Representation(a, 1, [[[g]] for g in gammas], name="line")


def _certifies(cx):
    try:
        cx._certify()
    except ValidationFailure as exc:
        assert exc.witness["kind"] == "not_complex"
        return False
    return True


def test_certificate_refuses_each_broken_identity():
    a = _affine_patch([F(2)], 6)
    assert _certifies(CEComplex(a))
    n = a.n_vars
    y = _poly(n, [((0, 1), 1)], 6)
    zero = TruncatedPoly.zero(n, 6)
    for bad, rho in ((_bump_bracket(a, 0, 1, 1, F(1, 3)), None),
                     (_drop_anchor_term(a, 0, 1), None),
                     (a, _rank_one_connection(a, [y, zero]))):
        assert not _certifies(CEComplex(bad, rho)), bad.name
        with pytest.raises(ValidationFailure, match="does not square to zero"):
            jet_cohomology(bad, rho, window=(1, 2, 1))
    # a flat connection passes: gamma_2 = 0 and d_y gamma_1 = 0
    assert _certifies(CEComplex(a, _rank_one_connection(a, [_poly(n, [((1, 0), 2)], 6), zero])))


def _fractional_patches():
    """Affine patches whose slopes carry denominators, and an integral one
    whose flat rank-1 connection alone does (gamma_1 = (1 + x)/3)."""
    for slopes in ([F(1, 2)], [F(-3, 2)], [F(2, 3), F(1, 2)]):
        yield _affine_patch(slopes, 6), None
    a = _affine_patch([F(2)], 6)
    n = a.n_vars
    yield a, _rank_one_connection(a, [_poly(n, [((0, 0), F(1, 3)), ((1, 0), F(1, 3))], 6),
                                      TruncatedPoly.zero(n, 6)])


def test_degree_passes_make_no_fraction(monkeypatch):
    """Once a complex is certified and knows its degree shift, its degree
    passes make no Fraction, on data with denominators too: D * d, its
    term tables and the elimination are all integer."""
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for a, rho in _fractional_patches():
        cx = CEComplex(a, rho)
        cx._certify()
        cx.degree_shift()
        with monkeypatch.context() as m:
            m.setattr(F, "__new__", counting_new)
            for w in (None, 0):
                for q in range(3):
                    cx._degree_pass(q, w, 6)
            assert not made, (a.name, made[:3])
            # the counter sees the Fractions of the exact read-out
            cx.d_of_element(cx.window_basis(0, 1)[-1])
            assert made
        made.clear()


@st.composite
def _maybe_broken(draw):
    """An affine or product patch, maybe with a bumped structure constant, a
    dropped anchor entry or a rank-1 connection with drawn polynomial forms."""
    a, _, _, _ = draw(_windowed_cases())
    n, r = a.n_vars, a.rank
    rho = None
    kind = draw(st.sampled_from(["none", "bump", "drop", "connection"]))
    if kind == "bump" and r > 1:
        i, j = sorted(draw(st.lists(st.integers(0, r - 1), min_size=2, max_size=2, unique=True)))
        a = _bump_bracket(a, i, j, draw(st.integers(0, r - 1)), draw(st.sampled_from(SLOPES)))
    elif kind == "drop" and n:
        a = _drop_anchor_term(a, draw(st.integers(0, r - 1)), draw(st.integers(0, n - 1)))
    elif kind == "connection":
        monos = [(0,) * n] + [tuple(int(i == l) for i in range(n)) for l in range(n)]
        rho = _rank_one_connection(a, [_poly(n, draw(st.lists(
            st.tuples(st.sampled_from(monos), st.sampled_from(SLOPES)), max_size=2)), a.jet_order)
            for _ in range(r)])
    return a, rho, draw(st.integers(2, 4))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_maybe_broken())
def test_certificate_is_complete_hypothesis(case):
    a, rho, top = case
    assert _certifies(CEComplex(a, rho)) == _squares_to_zero_up_to(CEComplex(a, rho), top)
