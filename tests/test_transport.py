"""Moving fibres: flow integration, loop monodromy, cohomology bundles."""

import math
from fractions import Fraction
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroidlab import covers, transport
from algebroidlab.covers import (ChartData, CoverDatum, LocalSystemFamily,
                                 _induced_on_cohomology)
from algebroidlab.cohomology import lie_algebra_cohomology
from algebroidlab.errors import StructuralError, ValidationFailure
from algebroidlab.library import abelian_patch, heisenberg_patch, sl2_patch
from algebroidlab.linalg import QMatrix
from algebroidlab.ratpoly import TruncatedPoly
from algebroidlab.transport import (GaussManinBundle, IntegrationError, PathFamily,
                                    gauss_manin, monodromy_check, parallel_transport,
                                    reverse_path, trivialize_via_transport,
                                    validate_path_family)

F = Fraction


def _sl2_constants():
    c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][1] = F(2)
    c[1][0][1] = F(-2)
    c[0][2][2] = F(-2)
    c[2][0][2] = F(2)
    c[1][2][0] = F(1)
    c[2][1][0] = F(-1)
    return c


def _nilpotent_family(with_rep=False):
    # abelian rank-2 fibre sheared by the constant nilpotent generator
    gammas = [[["1"]], [["-t"]]] if with_rep else None
    omega_rep = [["0"]] if with_rep else None
    return PathFamily.from_brackets(2, {}, [[0, 1], [0, 0]],
                                    gammas=gammas, omega_rep=omega_rep,
                                    name="nilshift")


def _sl2_conjugation_family():
    # generator = bracketing against the second frame element, a nilpotent
    # derivation, so the motion is conjugation by its one-parameter group
    omega = [[0, 0, 1], [-2, 0, 0], [0, 0, 0]]
    return PathFamily(3, _sl2_constants(), omega, name="sl2conj")


def _sl2_diagonal_family():
    # derivation by the first frame element; the flow is a true exponential
    omega = [[0, 0, 0], [0, 2, 0], [0, 0, -2]]
    return PathFamily(3, _sl2_constants(), omega, name="sl2diag")


def _affine_shear_family():
    # [e1, e2] = t e1 + e2 moved by the constant upper shear
    return PathFamily.from_brackets(2, {(0, 1): ["t", "1"]},
                                    [[0, 1], [0, 0]], name="affshear")


def _circle_cover():
    overlaps = ((0, 1), (0, 2), (1, 2))
    return CoverDatum(("U0", "U1", "U2"), overlaps)


def _abelian_circle_family(twist=None):
    charts = [ChartData(abelian_patch(2), None) for _ in range(3)]
    transitions = {}
    if twist is not None:
        transitions[(0, 2)] = (twist, QMatrix.identity(1))
    return LocalSystemFamily(_circle_cover(), charts, transitions)


# -- validation ----------------------------------------------------------------------------


def test_validate_flat_nilpotent_family():
    report = validate_path_family(_nilpotent_family())
    assert report.ok
    assert [c.name for c in report.checks] == ["antisymmetry", "jacobi", "anchor_bracket"]
    # constant data: jet order 3, every residual certified in full
    assert report.certified_order == 3


def test_validate_flat_family_with_rep():
    report = validate_path_family(_nilpotent_family(with_rep=True))
    assert report.ok
    assert [c.name for c in report.checks][-1] == "flatness"
    # the t in the connection: jet order 3, certified order 2 = 2 * degree
    assert report.certified_order == 2


def test_line_patch_frame_puts_the_horizontal_section_last():
    pf = _affine_shear_family()
    algebra, rep = pf.line_patch()
    assert rep is None and algebra.var_names == ("t",) and algebra.rank == 3
    assert [row[0].constant_term() for row in algebra.anchor] == [0, 0, 1]
    # [e1, e2] = t e1 + e2 kept; [h, e2] = -(omega_12 e1) = -e1
    assert algebra.structure[0][1][:2] == pf.structure[0][1]
    assert [e.constant_term() for e in algebra.structure[2][1]] == [-1, 0, 0]
    assert algebra.certified_order() >= 2 * algebra.data_degree()


def test_validate_rejects_non_flat_motion():
    pf = PathFamily.from_brackets(2, {(0, 1): ["0", "t"]}, [[0, 0], [0, 0]])
    assert not validate_path_family(pf).ok
    with pytest.raises(ValidationFailure) as ei:
        parallel_transport(pf)
    assert ei.value.witness["kind"] == "not_flat"


def test_validate_rejects_non_lie_frozen_fibre():
    # [e1,e2] = e1 and [e1,e3] = e3 fail the cyclic identity
    c = [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][0] = F(1)
    c[1][0][0] = F(-1)
    c[0][2][2] = F(1)
    c[2][0][2] = F(-1)
    pf = PathFamily(3, c, [[0] * 3 for _ in range(3)])
    with pytest.raises(ValidationFailure) as ei:
        parallel_transport(pf)
    assert ei.value.witness["kind"] == "frozen_axioms"


def test_path_family_shape_errors():
    with pytest.raises(StructuralError):
        PathFamily(2, [[[0, 0, 0]] * 2] * 2, [[0, 0], [0, 0]])
    with pytest.raises(StructuralError):
        PathFamily.from_brackets(2, {(1, 0): [0, 0]}, [[0, 0], [0, 0]])
    with pytest.raises(StructuralError):
        PathFamily.from_brackets(2, {}, [[0, 1], [0, 0]], gammas=[[["1"]], [["0"]]])


# The path-family validation layer that the line patch replaced, rebuilt as
# the reference: the frozen Lie axioms at six rational times, and the two
# flatness identities as they were written before the semidirect table
# joined them, kept verbatim.  Six samples decide the frozen axioms exactly
# for data of t-degree at most 2, whose residuals have degree at most 4.

_SAMPLE_TIMES = (F(0), F(1, 4), F(1, 3), F(1, 2), F(3, 4), F(1))


def _structure_flat_residuals(pf: PathFamily) -> List[Tuple[int, int, int]]:
    # residual of dc_ijk/dt = sum_l (w_kl c_ijl - w_li c_ljk - w_lj c_ilk)
    r = pf.rank
    c, w = pf.structure, pf.omega
    bad = []
    for i in range(r):
        for j in range(r):
            for k in range(r):
                acc = c[i][j][k].deriv(0)
                for l in range(r):
                    acc = acc - w[k][l] * c[i][j][l]
                    acc = acc + w[l][i] * c[l][j][k]
                    acc = acc + w[l][j] * c[i][l][k]
                if not acc.is_zero():
                    bad.append((i, j, k))
    return bad


def _rep_flat_residuals(pf: PathFamily) -> List[Tuple[int, int, int]]:
    # residual of dG_i/dt = w_rep G_i - G_i w_rep - sum_l w_li G_l
    r, m = pf.rank, pf.rep_rank
    g, w, wr = pf.gammas, pf.omega, pf.omega_rep
    bad = []
    for i in range(r):
        for a in range(m):
            for b in range(m):
                acc = g[i][a][b].deriv(0)
                for x in range(m):
                    acc = acc - wr[a][x] * g[i][x][b]
                    acc = acc + g[i][a][x] * wr[x][b]
                for l in range(r):
                    acc = acc + w[l][i] * g[l][a][b]
                if not acc.is_zero():
                    bad.append((i, a, b))
    return bad


def _sampled_verdict(pf: PathFamily) -> bool:
    return (all(covers._fibre_valid(pf.fibre_at(t)) for t in _SAMPLE_TIMES)
            and not _structure_flat_residuals(pf)
            and (pf.gammas is None or not _rep_flat_residuals(pf)))


_COEFF = st.sampled_from([0, 0, 0, 1, -1, 2])


@st.composite
def _moving_tables(draw, *shape):
    """A table of the given shape whose entries are all zero, all constant,
    all linear or all quadratic in t, with small and mostly zero
    coefficients."""
    degree = draw(st.sampled_from([-1, 0, 1, 2]))

    def entry():
        return TruncatedPoly(1, {(e,): draw(_COEFF) for e in range(degree + 1)})

    def table(dims):
        return [table(dims[1:]) for _ in range(dims[0])] if len(dims) > 1 else \
            [entry() for _ in range(dims[0])]
    return table(shape)


@st.composite
def _path_families(draw):
    r = draw(st.integers(1, 3))
    m = draw(st.sampled_from([None, 1, 2]))
    structure, omega = draw(_moving_tables(r, r, r)), draw(_moving_tables(r, r))
    if m is None:
        return PathFamily(r, structure, omega)
    return PathFamily(r, structure, omega, draw(_moving_tables(r, m, m)),
                      draw(_moving_tables(m, m)))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_path_families())
def test_one_flatness_identity_agrees_with_both_references(pf):
    # the checks of the line patch give the sampled layer's verdict
    assert validate_path_family(pf).ok == _sampled_verdict(pf)


def test_quadratic_frozen_failure_is_certified_in_full():
    # t^2 times a non-Lie table: the frozen Jacobi residual is a multiple
    # of t^4, past the certified order of a jet order of 2 * degree + 1;
    # the line patch's jet order 6 sees it before the flatness failure
    c = [[[TruncatedPoly.zero(1)] * 3 for _ in range(3)] for _ in range(3)]
    t2 = TruncatedPoly(1, {(2,): F(1)})
    for i, j, k in ((0, 1, 0), (0, 2, 2)):
        c[i][j][k], c[j][i][k] = t2, -t2
    pf = PathFamily(3, c, [[0] * 3 for _ in range(3)])
    assert not _sampled_verdict(pf)
    with pytest.raises(ValidationFailure) as ei:
        parallel_transport(pf)
    witness = ei.value.witness
    assert witness["kind"] == "frozen_axioms" and witness["identity"] == "Jacobi"
    assert witness["indices"][:3] == (1, 2, 3) and witness["monomial"] == (4,)


# -- transport -----------------------------------------------------------------------------


def test_constant_family_transports_to_identity():
    pf = PathFamily(3, _sl2_constants(), [[0] * 3 for _ in range(3)])
    tr = parallel_transport(pf, tol=1e-8)
    assert tr.exact and tr.is_loop and tr.det_nonzero
    assert tr.phi.rows == QMatrix.identity(3).rows
    assert tr.defect == 0.0
    for q, dim in enumerate((1, 0, 0, 1)):
        assert tr.mon[q].rows == QMatrix.identity(dim).rows


def test_nilpotent_family_exponential():
    tr = parallel_transport(_nilpotent_family(), tol=1e-8)
    assert tr.exact
    assert tr.phi.rows == [[F(1), F(1)], [F(0), F(1)]]
    assert tr.det_nonzero


def test_nilpotent_monodromy_on_cohomology():
    tr = parallel_transport(_nilpotent_family(), tol=1e-8)
    assert tr.is_loop
    assert tr.mon[0].rows == [[F(1)]]
    assert tr.mon[1].rows == [[F(1), F(0)], [F(-1), F(1)]]
    assert tr.mon[2].rows == [[F(1)]]


def test_sl2_conjugation_family():
    tr = parallel_transport(_sl2_conjugation_family(), tol=1e-8)
    assert tr.exact and tr.is_loop
    assert tr.phi.rows == [[F(1), F(0), F(1)],
                           [F(-2), F(1), F(-1)],
                           [F(0), F(0), F(1)]]
    # inner motion acts trivially on the two surviving degrees
    assert tr.mon[0].rows == [[F(1)]]
    assert tr.mon[3].rows == [[F(1)]]
    assert tr.mon[1].rows == [] and tr.mon[2].rows == []


def test_transport_with_moving_representation():
    tr = parallel_transport(_nilpotent_family(with_rep=True), tol=1e-8)
    assert tr.exact
    assert tr.q_rep.rows == [[F(1)]]
    assert not tr.is_loop
    assert tr.mon is None


def test_connection_conjugated_by_the_rep_generator():
    # G(t) = exp(tA) G(0) exp(-tA) for the nilpotent A = omega_rep: flat only
    # through nabla_h = -omega_rep, so the opposite generator is not flat
    def family(a):
        return PathFamily.from_brackets(1, {}, [[0]], gammas=[[["0", "t"], ["0", "1"]]],
                                        omega_rep=[["0", a], ["0", "0"]])
    tr = parallel_transport(family("1"))
    assert tr.exact and tr.phi.rows == [[F(1)]]
    assert tr.q_rep.rows == [[F(1), F(1)], [F(0), F(1)]]
    with pytest.raises(ValidationFailure) as ei:
        parallel_transport(family("-1"))
    assert ei.value.witness["kind"] == "not_flat"
    assert ei.value.witness["identity"] == "curvature = 0"


def test_rep_frame_moved_by_a_nonzero_generator_is_never_certified():
    # vanishing gammas: every multiple of the rep frame passes the
    # intertwining check, so nothing pins q = exp(t) to a fraction
    pf = PathFamily.from_brackets(2, {}, [[0, 0], [0, 0]], gammas=[[["0"]], [["0"]]],
                                  omega_rep=[["1"]])
    tr = parallel_transport(pf)
    assert not tr.exact and tr.is_loop and tr.mon is not None
    assert tr.phi.rows == [[F(1), F(0)], [F(0), F(1)]]
    assert abs(float(tr.q_rep.rows[0][0]) - math.e) < 1e-6
    report = trivialize_via_transport(pf)
    assert report.ok and not any(cp.exact for cp in report.checkpoints)


def test_reverse_composition_is_identity():
    for pf in (_nilpotent_family(), _sl2_conjugation_family()):
        fwd = parallel_transport(pf, tol=1e-8)
        rev = parallel_transport(reverse_path(pf), tol=1e-8)
        prod = rev.phi @ fwd.phi
        assert prod.rows == QMatrix.identity(pf.rank).rows
        worst = max(abs(float(prod.rows[i][j]) - (1.0 if i == j else 0.0))
                    for i in range(pf.rank) for j in range(pf.rank))
        assert worst <= 2e-8


def _in_ball(centre, radius, value):
    # the float error of value is far below the radii these tests meet
    return abs(float(centre) - value) <= float(radius)


def test_refinement_on_inexact_flow():
    tr = parallel_transport(_sl2_diagonal_family(), tol=1e-8)
    assert not tr.exact               # the series of e^2 never terminates
    # M = 2: the first K with 2^(K+1)/(K+1)! 3^2 <= 1e-8 is 16
    assert tr.steps == 16 and tr.defect == F(2 ** 17, math.factorial(17)) * 9
    assert _in_ball(tr.phi.rows[1][1], tr.defect, math.exp(2))
    assert _in_ball(tr.phi.rows[2][2], tr.defect, math.exp(-2))
    assert tr.mon[0].rows == [[F(1)]]
    assert abs(float(tr.mon[3].rows[0][0]) - 1.0) < 1e-6


def test_time_dependent_generator():
    # on an abelian fibre the shear rate t gives phi(t) = [[1, t^2 / 2], [0, 1]]
    pf = PathFamily.from_brackets(2, {}, [[0, "t"], [0, 0]])
    tr = parallel_transport(pf, tol=1e-8)
    assert tr.exact and tr.phi.rows == [[F(1), F(1, 2)], [F(0), F(1)]]
    report = trivialize_via_transport(pf, tol=1e-8)
    assert [cp.phi.rows[0][1] for cp in report.checkpoints] == [F(0), F(1, 8), F(1, 2)]
    # the derivation ad(h) at rate 2t integrates to diag(1, e, 1/e)
    pf = PathFamily(3, _sl2_constants(), [[0, 0, 0], [0, "2*t", 0], [0, 0, "-2*t"]])
    tr = parallel_transport(pf, tol=1e-8)
    assert not tr.exact and 0 < tr.defect <= 1e-8
    assert _in_ball(tr.phi.rows[1][1], tr.defect, math.e)
    assert _in_ball(tr.phi.rows[2][2], tr.defect, 1 / math.e)


def test_integration_failure_at_step_cap():
    with pytest.raises(IntegrationError):
        parallel_transport(_sl2_diagonal_family(), tol=1e-300, max_steps=64)


def test_large_generator_is_refused_not_exact():
    # e^(10^6) has no series tail within 1 at any budget below 10^6 terms
    with pytest.raises(IntegrationError, match="series tail bound exceeds 1"):
        parallel_transport(PathFamily.from_brackets(1, {}, [[10 ** 6]]))
    with pytest.raises(IntegrationError, match="series tail bound above tolerance"):
        parallel_transport(PathFamily.from_brackets(1, {}, [[10]]), max_steps=20)
    # a nilpotent generator terminates however large its norm
    tr = parallel_transport(PathFamily.from_brackets(2, {}, [[0, 10 ** 8], [0, 0]]),
                            max_steps=4)
    assert tr.exact and tr.steps == 2 and tr.defect == 0
    assert tr.phi.rows == [[F(1), F(10 ** 8)], [F(0), F(1)]]


_SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def _generators(draw):
    """(omega, whether strictly upper triangular, whether constant) with
    small rational entries: general constant, positive scalar, or strictly
    upper triangular with entries of degree up to 2 in t."""
    kind = draw(st.sampled_from(["constant", "scalar", "nilpotent"]))
    if kind == "scalar":
        return [[Fraction(draw(st.integers(1, 12)), draw(st.integers(1, 3)))]], False, True
    r = draw(st.integers(1, 3))
    if kind == "constant":
        return [[draw(_SMALL) for _ in range(r)] for _ in range(r)], False, True
    const = draw(st.booleans())
    deg = 0 if const else 2
    omega = [[TruncatedPoly(1, {(e,): draw(_SMALL) for e in range(deg + 1)}) if j > i
              else TruncatedPoly.zero(1) for j in range(r)] for i in range(r)]
    return omega, True, const


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_generators(), st.sampled_from([1e-3, 1e-8, 1e-20]))
def test_series_flow_against_an_independent_exponential(gen, tol):
    omega, nilpotent, const = gen
    r = len(omega)
    tr = parallel_transport(PathFamily.from_brackets(r, {}, omega), tol=tol)
    if nilpotent:
        # the series terminates within r terms; constant: sum_(k<r) omega^k / k!
        assert tr.exact and tr.defect == 0 and tr.steps <= r
        if const:
            w = QMatrix([[p.constant_term() for p in row] for row in omega])
            power, total = QMatrix.identity(r), QMatrix.identity(r).rows
            for k in range(1, r):
                power = power @ w
                total = [[a + x / math.factorial(k) for a, x in zip(ra, rx)]
                         for ra, rx in zip(total, power.rows)]
            assert tr.phi.rows == total
        return
    mpmath = pytest.importorskip("mpmath")
    # a general constant draw may still be nilpotent and terminate with
    # radius 0; 1e-50 then covers the oracle's own rounding
    assert tr.exact == (tr.defect == 0) and tr.defect <= Fraction(tol)
    with mpmath.workdps(60):
        exp = mpmath.expm(mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator
                                          for x in row] for row in omega]))
        gaps = [[mpmath.mpf(x.numerator) / x.denominator - exp[i, j]
                 for j, x in enumerate(row)] for i, row in enumerate(tr.phi.rows)]
        radius = max(mpmath.mpf(tr.defect.numerator) / tr.defect.denominator,
                     mpmath.mpf(10) ** -50)
        assert all(abs(g) <= radius for row in gaps for g in row)
        if r == 1 and omega[0][0] > 0:
            # a positive scalar's tail is at least its first term,
            # M^(K+1)/(K+1)! = radius / 3^ceil(M)
            assert -gaps[0][0] >= radius / 3 ** math.ceil(omega[0][0])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_tolerance_must_be_finite_and_positive(monkeypatch, tol):
    def no_integration(*args):
        raise AssertionError("integrated with a bad tolerance")

    monkeypatch.setattr(transport, "_peano_baker", no_integration)
    pf, fam = _nilpotent_family(), _abelian_circle_family(QMatrix([[1, 1], [0, 1]]))
    for run in (lambda: parallel_transport(pf, tol=tol),
                lambda: trivialize_via_transport(pf, tol=tol),
                lambda: monodromy_check(pf, fam, tol=tol)):
        with pytest.raises(StructuralError, match="tolerance must be finite and positive"):
            run()


@pytest.mark.parametrize("max_steps", [0, -5])
def test_step_budget_must_be_positive(monkeypatch, max_steps):
    def no_integration(*args):
        raise AssertionError("integrated with a bad step budget")

    monkeypatch.setattr(transport, "_peano_baker", no_integration)
    pf = _nilpotent_family()
    for run in (lambda: parallel_transport(pf, max_steps=max_steps),
                lambda: trivialize_via_transport(pf, max_steps=max_steps)):
        with pytest.raises(StructuralError, match="steps must be positive"):
            run()


@pytest.mark.parametrize("with_rep", [False, True])
def test_rank_zero_fibre_transports_to_the_empty_frame(with_rep):
    # omega_rep = 1 moves the rep frame by exp(t)
    rep = {"gammas": [], "omega_rep": [["1"]]} if with_rep else {}
    pf = PathFamily(0, [], [], **rep)
    tr = parallel_transport(pf)
    assert (tr.phi.nrows, tr.phi.ncols) == (0, 0)
    # the defect is the rep frame's radius: 1^12/12! 3^1 after 11 terms
    assert tr.det_nonzero and tr.is_loop
    assert tr.defect == (F(3, math.factorial(12)) if with_rep else 0)
    report = trivialize_via_transport(pf)
    assert report.ok and [cp.t for cp in report.checkpoints] == [F(0), F(1, 2), F(1)]
    assert all(cp.phi.nrows == 0 and cp.invertible for cp in report.checkpoints)
    if not with_rep:
        assert tr.exact and tr.q_rep is None and tr.mon[0].rows == [[F(1)]]
        return
    # the rep frame's series exp(t) never terminates, so it is never exact
    assert not tr.exact and _in_ball(tr.q_rep.rows[0][0], tr.defect, math.e)
    for cp in report.checkpoints:
        assert not cp.exact and _in_ball(cp.q_rep.rows[0][0], cp.defect, math.exp(cp.t))


# -- trivialization ------------------------------------------------------------------------


def test_trivialize_constant_family():
    pf = PathFamily(3, _sl2_constants(), [[0] * 3 for _ in range(3)])
    report = trivialize_via_transport(pf, tol=1e-8)
    assert report.ok
    for cp in report.checkpoints:
        assert cp.exact and cp.invertible
        assert cp.phi.rows == QMatrix.identity(3).rows


def test_trivialize_affine_shear_closed_form():
    report = trivialize_via_transport(_affine_shear_family(), tol=1e-8)
    assert report.ok
    got = {cp.t: cp.phi.rows for cp in report.checkpoints}
    assert got[F(0)] == [[F(1), F(0)], [F(0), F(1)]]
    assert got[F(1, 2)] == [[F(1), F(1, 2)], [F(0), F(1)]]
    assert got[F(1)] == [[F(1), F(1)], [F(0), F(1)]]
    assert all(cp.exact for cp in report.checkpoints)


def test_trivialize_rejects_outside_interval():
    with pytest.raises(StructuralError):
        trivialize_via_transport(_nilpotent_family(), checkpoints=(F(0), F(3, 2)))


def test_transported_class_equals_pullback_class():
    # rank-1 comparison: move the first dual-basis class to time 1/2 and
    # check the defining pairing against the frame map there
    pf = _nilpotent_family()
    report = trivialize_via_transport(pf, tol=1e-8)
    phi_half = next(cp.phi for cp in report.checkpoints if cp.t == F(1, 2))
    assert phi_half.rows == [[F(1), F(1, 2)], [F(0), F(1)]]
    lc = lie_algebra_cohomology(pf.fibre_at(0).algebra)
    ind = _induced_on_cohomology(phi_half, QMatrix.identity(1), lc, lc, 1)
    moved = ind.apply([F(1), F(0)])
    assert moved == [F(1), F(-1, 2)]
    # pairing: the moved class must see the moved frame exactly as the
    # original class saw the original frame
    for a in range(2):
        lhs = sum(moved[k] * phi_half.rows[k][a] for k in range(2))
        rhs = F(1) if a == 0 else F(0)
        assert lhs == rhs


# -- monodromy two ways ---------------------------------------------------------------------


def test_monodromy_identity_loop():
    pf = PathFamily.from_brackets(2, {}, [[0, 0], [0, 0]])
    report = monodromy_check(pf, _abelian_circle_family())
    assert report.match and report.matched_exactly
    assert report.max_diff == 0.0
    cech, mon = report.by_degree[1]
    assert cech.rows == QMatrix.identity(2).rows
    assert mon.rows == QMatrix.identity(2).rows


def test_monodromy_unipotent_circle():
    twist = QMatrix([[1, 1], [0, 1]])
    report = monodromy_check(_nilpotent_family(), _abelian_circle_family(twist),
                             tol=1e-8)
    assert report.match and report.matched_exactly and report.exact_transport
    assert report.max_diff == 0.0
    assert report.loop == (0, 1, 2, 0)
    cech, mon = report.by_degree[1]
    assert cech.rows == [[F(1), F(0)], [F(-1), F(1)]]
    assert mon.rows == [[F(1), F(0)], [F(-1), F(1)]]


def test_monodromy_validates_the_family_before_integrating(monkeypatch):
    def no_integration(*args):
        raise AssertionError("integrated for an invalid family")

    monkeypatch.setattr(transport, "_peano_baker", no_integration)
    singular = _abelian_circle_family(QMatrix([[1, 1], [0, 0]]))
    with pytest.raises(ValidationFailure) as ei:
        monodromy_check(_nilpotent_family(), singular)
    assert str(ei.value) == "family data invalid: transition[0,2]"
    assert ei.value.witness == {"edge": (0, 2), "reason": "transition not invertible"}


def test_monodromy_requires_loop():
    with pytest.raises(StructuralError):
        monodromy_check(_affine_shear_family(), _abelian_circle_family())


def test_monodromy_requires_matching_fibre():
    charts = [ChartData(heisenberg_patch(), None) for _ in range(3)]
    lsf = LocalSystemFamily(_circle_cover(), charts, {})
    with pytest.raises(StructuralError):
        monodromy_check(_sl2_conjugation_family(), lsf)


def test_monodromy_rejects_non_cyclic_cover():
    cover = CoverDatum(("U0", "U1"), ((0, 1),))
    charts = [ChartData(abelian_patch(2), None) for _ in range(2)]
    lsf = LocalSystemFamily(cover, charts, {})
    pf = PathFamily.from_brackets(2, {}, [[0, 0], [0, 0]])
    with pytest.raises(StructuralError):
        monodromy_check(pf, lsf)


# -- the cohomology bundle -------------------------------------------------------------------


def _sl2_triangle():
    cover = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    return LocalSystemFamily(cover, [ChartData(sl2_patch(), None) for _ in range(3)], {})


def test_gauss_manin_constant_family_triangle():
    bundle = gauss_manin(_sl2_triangle())
    assert bundle.vertex_betti == {0: (1, 0, 0, 1), 1: (1, 0, 0, 1), 2: (1, 0, 0, 1)}
    assert bundle.degree_preserving and bundle.flat_over_triples
    for per in bundle.edge_maps.values():
        for q, m in per.items():
            assert m.rows == QMatrix.identity((1, 0, 0, 1)[q]).rows
    assert len(bundle.cycle_holonomies) == 1
    nodes, per = bundle.cycle_holonomies[0]
    assert nodes == (1, 2, 0, 1)
    assert all(m.rows == QMatrix.identity((1, 0, 0, 1)[q]).rows
               for q, m in per.items())


def test_gauss_manin_computes_each_edge_map_once(monkeypatch):
    # overlaps, the triangle and the cycle share the maps of their edges
    calls = []
    induced = covers._induced_on_cohomology

    def counting(p, q_mat, lc_src, lc_dst, q):
        calls.append((id(lc_src), id(lc_dst), q))
        return induced(p, q_mat, lc_src, lc_dst, q)

    monkeypatch.setattr(covers, "_induced_on_cohomology", counting)
    bundle = gauss_manin(_sl2_triangle())
    assert bundle.flat_over_triples and len(bundle.cycle_holonomies) == 1
    assert len(calls) == len(set(calls)) == 20


def test_gauss_manin_unipotent_circle_holonomy():
    twist = QMatrix([[1, 1], [0, 1]])
    bundle = gauss_manin(_abelian_circle_family(twist))
    assert bundle.vertex_betti[0] == (1, 2, 1)
    nodes, per = bundle.cycle_holonomies[0]
    assert nodes == (1, 2, 0, 1)
    assert per[0].rows == [[F(1)]]
    assert per[1].rows == [[F(1), F(0)], [F(-1), F(1)]]
    assert per[2].rows == [[F(1)]]


def test_gauss_manin_tree_base_has_no_cycles():
    cover = CoverDatum(tuple(f"U{i}" for i in range(4)),
                       ((0, 1), (1, 2), (2, 3)))
    charts = [ChartData(abelian_patch(1), None) for _ in range(4)]
    transitions = {(0, 1): (QMatrix([[2]]), QMatrix.identity(1)),
                   (1, 2): (QMatrix([[3]]), QMatrix.identity(1))}
    bundle = gauss_manin(LocalSystemFamily(cover, charts, transitions))
    assert bundle.cycle_holonomies == []
    assert bundle.degree_preserving
    assert set(bundle.edge_maps) == {(0, 1), (1, 2), (2, 3)}


def test_gauss_manin_rejects_cocycle_failure():
    cover = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    charts = [ChartData(abelian_patch(2), None) for _ in range(3)]
    transitions = {(0, 1): (QMatrix([[2, 0], [0, 1]]), QMatrix.identity(1))}
    with pytest.raises(ValidationFailure) as ei:
        gauss_manin(LocalSystemFamily(cover, charts, transitions))
    assert str(ei.value) == "family data invalid: cocycle[0,1,2]"
    assert ei.value.witness == {"triple": (0, 1, 2)}


def test_gauss_manin_cover_argument_must_agree():
    fam = _abelian_circle_family()
    other = CoverDatum(("U0", "U1"), ((0, 1),))
    with pytest.raises(StructuralError):
        gauss_manin(fam, other)
