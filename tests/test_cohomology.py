"""Cochain complexes: frozen Lie algebra values, jet stabilization, gradings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from algebroidlab.algebroid import (
    LieAlgebroidPatch,
    adjoint_representation,
    semidirect,
    trivial_representation,
)
from algebroidlab.cohomology import (
    CEComplex,
    cohomology,
    format_cochain,
    jet_cohomology,
    lie_algebra_cohomology,
    weight_cohomology,
)
from algebroidlab.errors import StructuralError, ValidationFailure
from algebroidlab.library import (
    abelian_patch,
    heisenberg_patch,
    product_with_tangent,
    sl2_patch,
    tangent_patch,
)
from algebroidlab.pullback import euler_homotopy_verify
from algebroidlab.ratpoly import TruncatedPoly


def _betti_by_degree(rep):
    """Betti numbers of a weight-mode report summed over the weight strata."""
    out = {}
    for row in rep.rows:
        out[row.degree] = out.get(row.degree, 0) + row.betti
    return out


def _d_squared_is_zero(a, rho=None, max_deg=3):
    cx = CEComplex(a, rho)
    shift = cx.degree_shift()
    for q in range(a.rank):
        b0 = cx.window_basis(q, max_deg)
        b1 = cx.window_basis(q + 1, max_deg + shift)
        b2 = cx.window_basis(q + 2, max_deg + 2 * shift)
        d0 = cx.d_matrix(b0, b1)
        d1 = cx.d_matrix(b1, b2)
        if d0.ncols and d1.nrows:
            assert (d1 @ d0).is_zero(), f"d^2 != 0 in degree {q}"


def test_d_squared_zero_on_standard_patches():
    _d_squared_is_zero(sl2_patch())
    _d_squared_is_zero(heisenberg_patch())
    _d_squared_is_zero(tangent_patch(("x", "y"), 4))
    a = sl2_patch()
    _d_squared_is_zero(a, adjoint_representation(a))
    _d_squared_is_zero(semidirect(a, adjoint_representation(a)))


def test_d_squared_zero_on_curved_patch():
    one = TruncatedPoly.const(2, 1, 5)
    y = TruncatedPoly.var(2, 1, 5)
    z = TruncatedPoly.zero(2, 5)
    a = LieAlgebroidPatch(("x", "y"), 5, 2,
                          [[one, y], [z, one]],
                          [[[z, z], [z, -one]], [[z, one], [z, z]]])
    _d_squared_is_zero(a, max_deg=3)


def test_whitehead_sl2_trivial_coefficients():
    rep = weight_cohomology(sl2_patch())
    assert _betti_by_degree(rep) == {0: 1, 1: 0, 2: 0, 3: 1}
    assert all(row.exact for row in rep.rows)


def test_whitehead_sl2_adjoint_coefficients():
    a = sl2_patch()
    rep = weight_cohomology(a, adjoint_representation(a))
    assert _betti_by_degree(rep) == {0: 0, 1: 0, 2: 0, 3: 0}


def test_abelian_rank2_betti():
    rep = weight_cohomology(abelian_patch(2))
    assert _betti_by_degree(rep) == {0: 1, 1: 2, 2: 1}


def test_heisenberg_betti():
    rep = weight_cohomology(heisenberg_patch())
    assert _betti_by_degree(rep) == {0: 1, 1: 2, 2: 2, 3: 1}


def test_lie_algebra_fast_path_agrees():
    # with no variables weight mode is the full CE complex too: the same
    # betti numbers and formatted representatives, degree by degree
    cases = 0
    for patch in (sl2_patch(), heisenberg_patch(), abelian_patch(3), abelian_patch(1)):
        for rho in (None, adjoint_representation(patch), trivial_representation(patch, 2)):
            fast = lie_algebra_cohomology(patch, rho)
            slow = weight_cohomology(patch, rho)
            fibre_rank = 1 if rho is None else rho.rank
            for q in range(patch.rank + 1):
                rows = [row for row in slow.rows if row.degree == q]
                assert fast.betti[q] == sum(row.betti for row in rows), (patch.name, rho, q)
                assert [format_cochain(v, fast.bases[q], (), fibre_rank)
                        for v in fast.representatives[q]] == \
                    [rep for row in rows for rep in row.representatives], (patch.name, rho, q)
            cases += 1
    assert cases == 12


def test_sl2_degree_one_differential_has_rank_three():
    cx = CEComplex(sl2_patch(), None)
    src, tgt = cx.window_basis(1, 0), cx.window_basis(2, 0)
    assert len(src) == 3 and len(tgt) == 3
    assert cx.d_matrix(src, tgt).rank() == 3


def test_jet_mode_formal_poincare_one_var():
    rep = jet_cohomology(tangent_patch(("x",), 8), window=(4, 8, 3))
    betti = {row.degree: row.betti for row in rep.rows}
    assert betti == {0: 1, 1: 0}
    assert all(row.stabilized for row in rep.rows)


def test_jet_mode_formal_poincare_two_vars():
    rep = jet_cohomology(tangent_patch(("x", "y"), 8), window=(4, 8, 3))
    betti = {row.degree: row.betti for row in rep.rows}
    assert betti == {0: 1, 1: 0, 2: 0}
    assert all(row.stabilized for row in rep.rows)
    # the degree-0 history should be flat across the window
    h = [b for _, b in rep.rows[0].history]
    assert h == [1] * 5


def test_jet_mode_euler_line_counts_log_class():
    # anchor x d/dx on the line: closed 1-cochains f e^1 modulo anchor
    # derivatives x f'; the class of e^1 survives (formal log derivative).
    from algebroidlab.library import euler_vector_field_patch
    rep = jet_cohomology(euler_vector_field_patch(8), window=(4, 8, 3))
    betti = {row.degree: row.betti for row in rep.rows}
    assert betti == {0: 1, 1: 1}
    assert all(row.stabilized for row in rep.rows)


def test_jet_mode_keeps_empty_degrees():
    # above the rank every window basis is empty; jet mode still reports the
    # row, since only weight mode drops empty strata of nonzero weight
    a = tangent_patch(("x",), 4)
    rep = jet_cohomology(a, window=(1, 2, 1), degrees=[a.rank + 1])
    assert [(row.degree, row.betti, row.history, row.stabilized) for row in rep.rows] == \
        [(a.rank + 1, 0, [(1, 0), (2, 0)], True)]
    assert rep.dims == {a.rank + 1: 0}


def test_negative_degrees_are_refused():
    a = tangent_patch(("x",), 4, weights=(1,))
    for run in (lambda: jet_cohomology(a, window=(1, 2, 1), degrees=[0, -1]),
                lambda: weight_cohomology(a, degrees=[-1]),
                lambda: euler_homotopy_verify(a, None, degrees=[-1])):
        with pytest.raises(StructuralError, match="negative degree"):
            run()


def test_weight_mode_requires_homogeneous_data():
    a = tangent_patch(("x", "y"), 4, weights=(0, 1))
    a.anchor[0][0] = TruncatedPoly(2, {(0, 0): Fraction(1), (0, 1): Fraction(1)}, 4)
    with pytest.raises(ValidationFailure):
        weight_cohomology(a)


def test_weight_mode_sl2_times_weighted_line():
    a = product_with_tangent(sl2_patch(), ("y",), 6, (1,))
    rep = weight_cohomology(a)
    # positive-weight strata all vanish; totals match plain sl2
    for row in rep.rows:
        if row.weight != 0:
            assert row.betti == 0, (row.degree, row.weight, row.betti)
    betti = _betti_by_degree(rep)
    assert betti[0] == 1
    assert betti[1] == 0
    assert betti[2] == 0
    assert betti[3] == 1
    assert betti.get(4, 0) == 0
    assert all(row.exact for row in rep.rows)


def test_weight_mode_mixed_weights_zero_part_matches_slice():
    a = tangent_patch(("x", "y"), 6, weights=(0, 1))
    rep = weight_cohomology(a, window=(3, 6, 3))
    zero_rows = {row.degree: row for row in rep.rows if row.weight == 0}
    line = jet_cohomology(tangent_patch(("x",), 6), window=(3, 6, 3))
    line_betti = {row.degree: row.betti for row in line.rows}
    for q, row in zero_rows.items():
        assert row.betti == line_betti.get(q, 0), f"degree {q}"
    for row in rep.rows:
        if row.weight != 0 and row.stabilized:
            assert row.betti == 0


def test_representatives_deterministic():
    rep1 = weight_cohomology(sl2_patch())
    rep2 = weight_cohomology(sl2_patch())
    r1 = [row.representatives for row in rep1.rows]
    r2 = [row.representatives for row in rep2.rows]
    assert r1 == r2
    top = [row for row in rep1.rows if row.degree == 3][0]
    assert top.representatives == ["e[1,2,3]"]


def test_cohomology_mode_dispatch():
    rep = cohomology(sl2_patch(), mode="weight")
    assert rep.mode == "weight"
    with pytest.raises(Exception):
        cohomology(sl2_patch(), mode="nonsense")
