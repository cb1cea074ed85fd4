"""Algebroid axioms, representations, semidirect sums, vertical kernels."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from algebroidlab.algebroid import (
    LieAlgebroidPatch,
    Representation,
    SubmersionDatum,
    adjoint_representation,
    grading_violations,
    semidirect,
    tau_and_kernel,
    trivial_representation,
    validate_algebroid,
    validate_representation,
    vertical_subalgebroid,
)
from algebroidlab.errors import StructuralError, ValidationFailure
from algebroidlab.library import (
    abelian_patch,
    heisenberg_patch,
    poisson_disc_patch,
    product_with_tangent,
    sl2_patch,
    tangent_patch,
)
from algebroidlab.ratpoly import TruncatedPoly, parse_poly


def test_sl2_validates():
    rep = validate_algebroid(sl2_patch())
    assert rep.ok
    assert [c.name for c in rep.checks] == ["antisymmetry", "jacobi", "anchor_bracket"]


def test_tangent_validates():
    assert validate_algebroid(tangent_patch(("x", "y"), 4)).ok


def test_heisenberg_validates():
    assert validate_algebroid(heisenberg_patch()).ok


def test_poisson_disc_validates_and_windows():
    from algebroidlab.cohomology import cohomology

    a = poisson_disc_patch(8)
    assert validate_algebroid(a).ok
    rep = cohomology(a, mode="jet", window=(4, 8, 3))
    rows = {row.degree: row for row in rep.rows}
    assert rows[0].betti == 1 and rows[0].stabilized
    # the anchor coefficient mixes degrees 0 and 2, so each window keeps a
    # top-degree class in degrees 1 and 2; the reported values are window
    # betti, not formal limits
    assert rows[1].betti == 1 and rows[1].stabilized
    assert rows[2].betti == 1 and rows[2].stabilized


def test_single_coefficient_perturbations_of_sl2_are_rejected():
    # Any change of one structure coefficient of sl2 breaks an axiom, and
    # the report names the failing identity.
    rng = random.Random(2024)
    for trial in range(20):
        a = sl2_patch()
        i, j, k = rng.randrange(3), rng.randrange(3), rng.randrange(3)
        delta = Fraction(rng.choice([-2, -1, 1, 2, 3]))
        a.structure[i][j][k] = a.structure[i][j][k] + TruncatedPoly.const(0, delta, 0)
        rep = validate_algebroid(a)
        assert not rep.ok, f"perturbation {trial} at {(i, j, k)} by {delta} not caught"
        bad = rep.failing()[0]
        assert bad.name in ("antisymmetry", "jacobi")
        assert bad.witness is not None and "indices" in bad.witness


def test_polynomial_anchor_bracket_violation_witnessed():
    # anchor x d/dx on both frame elements with [e1,e2] = 0 is fine; make the
    # bracket claim [e1,e2] = e1 and the anchor condition must fail.
    x = TruncatedPoly.var(1, 0, 4)
    z = TruncatedPoly.zero(1, 4)
    one = TruncatedPoly.const(1, 1, 4)
    a = LieAlgebroidPatch(("x",), 4, 2, [[x], [x]],
                          [[[z, z], [one, z]], [[-one, z], [z, z]]])
    rep = validate_algebroid(a)
    assert not rep.ok
    names = [c.name for c in rep.failing()]
    assert "anchor_bracket" in names
    bad = next(c for c in rep.checks if c.name == "anchor_bracket")
    assert bad.witness == {"indices": (1, 2), "coordinate": "x", "monomial": (1,),
                           "coefficient": 1,
                           "identity": "anchor([a,b]) = [anchor(a), anchor(b)]"}


def test_jacobi_violation_witnessed():
    # an antisymmetric change of sl2: [e1,e2] and [e2,e1] each move by e2
    a = sl2_patch()
    one = TruncatedPoly.const(0, 1, 0)
    a.structure[0][1][1] = a.structure[0][1][1] + one
    a.structure[1][0][1] = a.structure[1][0][1] - one
    rep = validate_algebroid(a)
    assert [c.name for c in rep.failing()] == ["jacobi"]
    assert rep.failing()[0].witness == {"indices": (1, 2, 3, 1), "monomial": (),
                                        "coefficient": 1, "identity": "Jacobi"}


def test_certified_order_accounts_for_data_degree():
    a = tangent_patch(("x",), 5)
    assert a.certified_order() == 5
    a2 = LieAlgebroidPatch(("x",), 5, 1, [[TruncatedPoly.monomial(1, (2,), 1, 5)]],
                           [[[TruncatedPoly.zero(1, 5)]]])
    assert a2.certified_order() == 3


def test_bracket_sections_leibniz_random():
    # [u, f v] = f [u, v] + (anchor(u) f) v on random sections of a tangent
    # patch, and [v, u] = -[u, v] exactly.
    rng = random.Random(55)
    a = tangent_patch(("x", "y"), 5)

    def rand_poly():
        return TruncatedPoly(2, {(rng.randrange(3), rng.randrange(3)):
                                 Fraction(rng.randrange(-3, 4))}, 5)

    for _ in range(25):
        u = [rand_poly(), rand_poly()]
        v = [rand_poly(), rand_poly()]
        f = rand_poly()
        lhs = a.bracket_sections(u, [f * vi for vi in v])
        fv = a.bracket_sections(u, v)
        assert a.bracket_sections(v, u) == [-w for w in fv]
        rho_u_f = sum((x * f.deriv(l) for l, x in enumerate(a.section_field(u))),
                      TruncatedPoly.zero(2, f.cap))
        rhs = [f * w + rho_u_f * vi for w, vi in zip(fv, v)]
        # Compare up to the certified order; products shift the reliable window.
        cutoff = 3
        for l, r in zip(lhs, rhs):
            d = l - r
            assert all(sum(m) > cutoff for m in d.c), (l.c, r.c)


def test_adjoint_representation_of_sl2_is_flat():
    a = sl2_patch()
    rho = adjoint_representation(a)
    assert validate_representation(rho).ok


def test_trivial_representation_flat_and_semidirect_validates():
    a = sl2_patch()
    rho = trivial_representation(a, 2)
    assert validate_representation(rho).ok
    sd = semidirect(a, rho)
    assert sd.rank == 5
    assert validate_algebroid(sd).ok


def test_semidirect_with_adjoint_validates():
    a = sl2_patch()
    sd = semidirect(a, adjoint_representation(a))
    assert validate_algebroid(sd).ok
    # semidirect anchor kills the fibre block
    assert all(e.is_zero() for row in sd.anchor[3:] for e in row)


def test_non_flat_connection_rejected():
    a = tangent_patch(("x", "y"), 4)
    rho = trivial_representation(a, 1)
    # Gamma_1 = [[y]], Gamma_2 = [[0]]: curvature d/dx(0) - d/dy(y) = -1 != 0
    rho.gammas[0][0][0] = TruncatedPoly.var(2, 1, 4)
    rep = validate_representation(rho)
    assert not rep.ok
    assert rep.checks[0].witness == {"indices": (1, 2), "entry": (1, 1), "monomial": (0, 0),
                                     "coefficient": -1, "identity": "curvature = 0"}


def test_grading_violations_empty_for_weighted_tangent():
    a = tangent_patch(("x", "y"), 4, weights=(0, 1))
    assert grading_violations(a) == []
    sl2line = product_with_tangent(sl2_patch(), ("y",), 4, (1,))
    assert grading_violations(sl2line) == []


def test_grading_violation_reported():
    a = tangent_patch(("x", "y"), 4, weights=(0, 1))
    a.anchor[0][0] = parse_poly("1 + y", ("x", "y"), 4)
    bad = grading_violations(a)
    assert bad and bad[0]["kind"] == "anchor"


# -- submersion data ----------------------------------------------------------


def test_tau_kernel_tangent_projection():
    a = tangent_patch(("x", "y"), 4)
    rep = tau_and_kernel(SubmersionDatum(a, (0,)))
    assert rep.surjective and rep.kernel_rank == 1
    vert, _ = vertical_subalgebroid(SubmersionDatum(a, (0,)))
    assert vert.rank == 1
    # kernel frame is d/dy
    assert rep.kernel_frame[0][1] == TruncatedPoly.const(2, 1, 4)
    assert rep.kernel_frame[0][0].is_zero()
    assert validate_algebroid(vert).ok


def test_tau_kernel_identity_projection_of_lie_algebra():
    a = sl2_patch()
    rep = tau_and_kernel(SubmersionDatum(a, ()))
    assert rep.kernel_rank == 3
    vert, _ = vertical_subalgebroid(SubmersionDatum(a, ()))
    assert vert.structure[0][1][1].constant_term() == 2


def test_tau_kernel_rejects_vanishing_anchor_at_origin():
    x = TruncatedPoly.var(1, 0, 4)
    z = TruncatedPoly.zero(1, 4)
    vanishing = LieAlgebroidPatch(("x",), 4, 1, [[x]], [[[z]]])
    # e1 = x d/dx, e2 = d/dy, e3 = d/dz over (x, y; z), base = (x, y): the
    # base block has full generic rank 2 but rank 1 at the origin.
    x3 = TruncatedPoly.var(3, 0, 4)
    one3 = TruncatedPoly.const(3, 1, 4)
    z3 = TruncatedPoly.zero(3, 4)
    dropping = LieAlgebroidPatch(("x", "y", "z"), 4, 3,
                                 [[x3, z3, z3], [z3, one3, z3], [z3, z3, one3]],
                                 [[[z3] * 3 for _ in range(3)] for _ in range(3)])
    assert validate_algebroid(dropping).ok
    for a, base, rank in ((vanishing, (0,), 0), (dropping, (0, 1), 1)):
        with pytest.raises(ValidationFailure) as err:
            tau_and_kernel(SubmersionDatum(a, base))
        assert err.value.witness == {"kind": "not_surjective", "where": "origin",
                                     "rank": rank, "needed": len(base)}


def test_tau_kernel_rejects_generically_deficient_block():
    z = TruncatedPoly.zero(1, 4)
    a = LieAlgebroidPatch(("x",), 4, 1, [[z]], [[[z]]])
    with pytest.raises(ValidationFailure) as err:
        tau_and_kernel(SubmersionDatum(a, (0,)))
    assert err.value.witness["where"] == "generic"


def test_tau_kernel_curved_split():
    # Frame e1 = d/dx + y d/dy, e2 = d/dy over (x; y); base = x.
    # Kernel should be spanned by e2, with [k, k] = 0.
    one = TruncatedPoly.const(2, 1, 4)
    y = TruncatedPoly.var(2, 1, 4)
    z = TruncatedPoly.zero(2, 4)
    a = LieAlgebroidPatch(("x", "y"), 4, 2,
                          [[one, y], [z, one]],
                          [[[z, z], [z, -one]], [[z, one], [z, z]]])
    assert validate_algebroid(a).ok
    rep = tau_and_kernel(SubmersionDatum(a, (0,), [(Fraction(1), Fraction(2))]))
    assert rep.kernel_rank == 1
    assert rep.vertical_anchor[0][0].is_zero()
