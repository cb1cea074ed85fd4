"""Ready-made patches: tangent algebroids, classical Lie algebras, actions."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .algebroid import LieAlgebroidPatch, Representation
from .ratpoly import TruncatedPoly, WeightAssignment


def tangent_patch(var_names: Sequence[str], jet_order: int,
                  weights: Optional[Sequence[int]] = None) -> LieAlgebroidPatch:
    """Tangent algebroid of a coordinate chart: frame d/dx_i, identity anchor.

    With a weight assignment, frame element i is declared of weight
    -w_i, matching the scaling of the coordinate vector fields.
    """
    n = len(var_names)
    z = TruncatedPoly.zero(n, jet_order)
    one = TruncatedPoly.const(n, 1, jet_order)
    anchor = [[one if i == l else z for l in range(n)] for i in range(n)]
    structure = [[[z for _ in range(n)] for _ in range(n)] for _ in range(n)]
    wa = WeightAssignment(tuple(weights)) if weights is not None else None
    fw = tuple(-w for w in weights) if weights is not None else None
    return LieAlgebroidPatch(tuple(var_names), jet_order, n, anchor, structure,
                             weights=wa, frame_weights=fw, name="tangent")


def lie_algebra_patch(structure_constants, name: str = "") -> LieAlgebroidPatch:
    """Constant-coefficient Lie algebra as an algebroid over a point.

    structure_constants[i][j][k] are rationals giving [e_i, e_j] components.
    """
    r = len(structure_constants)
    z = TruncatedPoly.zero(0, 0)
    anchor = [[] for _ in range(r)]
    structure = [[[TruncatedPoly.const(0, Fraction(structure_constants[i][j][k]), 0)
                   for k in range(r)] for j in range(r)] for i in range(r)]
    return LieAlgebroidPatch((), 0, r, anchor, structure, name=name)


def sl2_patch() -> LieAlgebroidPatch:
    """sl2 with frame (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][1] = 2
    c[1][0][1] = -2
    c[0][2][2] = -2
    c[2][0][2] = 2
    c[1][2][0] = 1
    c[2][1][0] = -1
    return lie_algebra_patch(c, name="sl2")


def abelian_patch(rank: int, name: str = "abelian") -> LieAlgebroidPatch:
    return lie_algebra_patch([[[0] * rank for _ in range(rank)] for _ in range(rank)],
                             name=name)


def heisenberg_patch() -> LieAlgebroidPatch:
    """Three-dimensional Heisenberg algebra: [e1, e2] = e3."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1
    c[1][0][2] = -1
    return lie_algebra_patch(c, name="heisenberg")


def product_with_tangent(g: LieAlgebroidPatch, var_names: Sequence[str], jet_order: int,
                         weights: Sequence[int]) -> LieAlgebroidPatch:
    """Constant Lie algebra times the tangent algebroid of a weighted chart.

    Frame: the Lie algebra frame (weight 0) followed by the coordinate
    vector fields (weight -w_l).  All cross brackets vanish.
    """
    if g.n_vars != 0:
        raise ValueError("first factor must be a constant-coefficient Lie algebra")
    n = len(var_names)
    r = g.rank + n
    z = TruncatedPoly.zero(n, jet_order)
    one = TruncatedPoly.const(n, 1, jet_order)
    anchor = [[z] * n for _ in range(g.rank)]
    anchor += [[one if i == l else z for l in range(n)] for i in range(n)]
    structure = [[[z for _ in range(r)] for _ in range(r)] for _ in range(r)]
    for i in range(g.rank):
        for j in range(g.rank):
            for k in range(g.rank):
                val = g.structure[i][j][k].constant_term()
                if val:
                    structure[i][j][k] = TruncatedPoly.const(n, val, jet_order)
    fw = tuple([0] * g.rank + [-w for w in weights])
    return LieAlgebroidPatch(tuple(var_names), jet_order, r, anchor, structure,
                             weights=WeightAssignment(tuple(weights)), frame_weights=fw,
                             name=(g.name + "_x_line" if g.name else "product"))


def sl2_adjoint(a: Optional[LieAlgebroidPatch] = None) -> Representation:
    from .algebroid import adjoint_representation
    return adjoint_representation(a if a is not None else sl2_patch())


def euler_vector_field_patch(jet_order: int = 4) -> LieAlgebroidPatch:
    """Rank-one algebroid on the line generated by x d/dx (weight one)."""
    x = TruncatedPoly.var(1, 0, jet_order)
    z = TruncatedPoly.zero(1, jet_order)
    return LieAlgebroidPatch(("x",), jet_order, 1, [[x]], [[[z]]],
                             weights=WeightAssignment((1,)), frame_weights=(0,),
                             name="euler_line")


def poisson_disc_patch(jet_order: int = 6) -> LieAlgebroidPatch:
    """Cotangent algebroid of the bivector (1 - x^2 - y^2) d/dx ^ d/dy.

    Frame (dx, dy) with anchor dx -> f d/dy, dy -> -f d/dx and bracket
    [dx, dy] = df.  The coefficient is a unit at the origin, so the
    structure is formally symplectic there.
    """
    def p(text: str) -> TruncatedPoly:
        from .ratpoly import parse_poly
        return parse_poly(text, ("x", "y"), jet_order)

    f = p("1 - x^2 - y^2")
    z = p("0")
    anchor = [[z, f], [f.scale(Fraction(-1)), z]]
    structure = [[[z, z] for _ in range(2)] for _ in range(2)]
    structure[0][1] = [p("-2*x"), p("-2*y")]
    structure[1][0] = [p("2*x"), p("2*y")]
    return LieAlgebroidPatch(("x", "y"), jet_order, 2, anchor, structure,
                             name="poisson_disc")
