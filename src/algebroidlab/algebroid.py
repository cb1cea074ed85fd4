"""Lie algebroid patches over truncated polynomial rings, and their axioms.

A patch is a trivialized algebroid over a polynomial coordinate chart:
a free frame e_1..e_r, an anchor matrix of polynomials (row i gives the
coordinate components of the vector field attached to e_i), and a
structure table c[i][j][k] expressing [e_i, e_j] = sum_k c[i][j][k] e_k.

Because structure data may be jets truncated at order N, identities that
consume products and derivatives are certified only up to N - d_max,
where d_max is the largest total degree appearing in the data.  Reports
always state the certified order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import StructuralError, ValidationFailure
from .linalg import QMatrix
from .ratpoly import (
    TruncatedPoly,
    WeightAssignment,
    _poly_mat_mul,
    format_poly,
    grlex_key,
    pivot_kernel_frame,
    poly_matrix_rank,
)


@dataclass
class LieAlgebroidPatch:
    """Trivialized Lie algebroid data over one polynomial chart."""

    var_names: Tuple[str, ...]
    jet_order: int
    rank: int
    anchor: List[List[TruncatedPoly]]            # rank x n_vars
    structure: List[List[List[TruncatedPoly]]]   # c[i][j][k], antisymmetric in i, j
    weights: Optional[WeightAssignment] = None
    frame_weights: Optional[Tuple[int, ...]] = None
    name: str = ""

    def __post_init__(self):
        n, r = self.n_vars, self.rank
        if len(self.anchor) != r or any(len(row) != n for row in self.anchor):
            raise StructuralError(f"anchor must be {r}x{n}")
        if (len(self.structure) != r
                or any(len(plane) != r for plane in self.structure)
                or any(len(col) != r for plane in self.structure for col in plane)):
            raise StructuralError(f"structure table must be {r}x{r}x{r}")
        for row in self.anchor:
            for e in row:
                if e.n != n:
                    raise StructuralError("anchor entry has wrong variable arity")
        for plane in self.structure:
            for col in plane:
                for e in col:
                    if e.n != n:
                        raise StructuralError("structure entry has wrong variable arity")
        if self.weights is not None and self.weights.n != n:
            raise StructuralError("weight assignment arity mismatch")
        if self.frame_weights is not None and len(self.frame_weights) != r:
            raise StructuralError("frame weight arity mismatch")

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    def data_degree(self) -> int:
        """Largest total degree appearing in anchor and structure entries."""
        degs = [e.total_degree() for row in self.anchor for e in row]
        degs += [e.total_degree() for plane in self.structure for col in plane for e in col]
        return max([d for d in degs if d >= 0], default=0)

    def certified_order(self) -> int:
        return max(self.jet_order - self.data_degree(), 0)

    def anchor_apply(self, i: int, f: TruncatedPoly) -> TruncatedPoly:
        """The vector field of frame element e_i applied to a function."""
        out = TruncatedPoly.zero(self.n_vars, f.cap)
        for l in range(self.n_vars):
            if not self.anchor[i][l].is_zero():
                out = out + self.anchor[i][l] * f.deriv(l)
        return out

    def section_field(self, coeffs: Sequence[TruncatedPoly]) -> List[TruncatedPoly]:
        """Coordinate components of the vector field of a section."""
        out = [TruncatedPoly.zero(self.n_vars) for _ in range(self.n_vars)]
        for i, u in enumerate(coeffs):
            if u.is_zero():
                continue
            for l, e in enumerate(self.anchor[i]):
                if not e.is_zero():
                    out[l] = out[l] + u * e
        return out

    def bracket_sections(self, u: Sequence[TruncatedPoly], v: Sequence[TruncatedPoly]
                         ) -> List[TruncatedPoly]:
        """Leibniz-extended bracket of two sections given by coefficient lists."""
        r = self.rank
        if len(u) != r or len(v) != r:
            raise StructuralError("section coefficient arity mismatch")
        out = [TruncatedPoly.zero(self.n_vars, self.jet_order) for _ in range(r)]
        for i in range(r):
            if u[i].is_zero():
                continue
            for j in range(r):
                if v[j].is_zero():
                    continue
                uv = u[i] * v[j]
                for k in range(r):
                    ck = self.structure[i][j][k]
                    if not ck.is_zero():
                        out[k] = out[k] + uv * ck
        # the vector fields of u and v serve every component
        xu, xv = self.section_field(u), self.section_field(v)
        for k in range(r):
            for l in range(self.n_vars):
                out[k] = out[k] + xu[l] * v[k].deriv(l) - xv[l] * u[k].deriv(l)
        return out

    def anchor_at(self, point: Sequence) -> QMatrix:
        """Anchor matrix evaluated at a rational point; rows = frame index."""
        return QMatrix([[e.evaluate(point) for e in row] for row in self.anchor])

    def frame_weight(self, i: int) -> int:
        return 0 if self.frame_weights is None else self.frame_weights[i]


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: Optional[dict] = None


@dataclass
class ValidationReport:
    ok: bool
    certified_order: int
    checks: List[CheckResult] = field(default_factory=list)

    def failing(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.ok]


def _lowest_nonzero_witness(p: TruncatedPoly, up_to: int) -> Optional[Tuple[tuple, Fraction]]:
    """Lowest-order offending monomial of p within total degree up_to, if any."""
    cands = [(m, v) for m, v in p.c.items() if sum(m) <= up_to]
    if not cands:
        return None
    mono, val = min(cands, key=lambda kv: grlex_key(kv[0]))
    return mono, val


def _first_witness(name: str, residuals, certified: int) -> CheckResult:
    """Result of the check `name` over its (fields, residual) pairs, taken
    in order: the first residual with a monomial of total degree up to
    certified fails the check, witnessed by its fields plus its
    lowest-order such monomial and that monomial's coefficient."""
    for fields, residual in residuals:
        w = _lowest_nonzero_witness(residual, certified)
        if w:
            return CheckResult(name, False, {**fields, "monomial": w[0], "coefficient": w[1]})
    return CheckResult(name, True)


def _symmetric_parts(structure: List[List[List[TruncatedPoly]]]):
    """((i, j, k), c[i][j][k] + c[j][i][k]) for i <= j, in index order."""
    r = len(structure)
    for i in range(r):
        for j in range(i, r):
            for k in range(r):
                yield (i, j, k), structure[i][j][k] + structure[j][i][k]


def validate_algebroid(a: LieAlgebroidPatch) -> ValidationReport:
    """Check antisymmetry, Jacobi, and anchor-bracket compatibility.

    Antisymmetry is exact.  Jacobi and the anchor condition consume one
    product (and one derivative) of structure data, so they are certified
    only up to the certified order.  The first failing identity is witnessed
    by its indices and the lowest-order offending monomial.
    """
    certified = a.certified_order()
    r = a.rank
    checks: List[CheckResult] = []

    witness = None
    for (i, j, k), s in _symmetric_parts(a.structure):
        if s:
            mono, val = s.leading_term()
            witness = {"indices": (i + 1, j + 1, k + 1), "monomial": mono,
                       "coefficient": val, "identity": "c[i][j][k] + c[j][i][k] = 0"}
            break
    checks.append(CheckResult("antisymmetry", witness is None, witness))

    def jacobi():
        for i, j, k in combinations(range(r), 3):
            for m in range(r):
                acc = TruncatedPoly.zero(a.n_vars, a.jet_order)
                for l in range(r):
                    acc = acc + a.structure[i][j][l] * a.structure[l][k][m]
                    acc = acc + a.structure[j][k][l] * a.structure[l][i][m]
                    acc = acc + a.structure[k][i][l] * a.structure[l][j][m]
                acc = acc - a.anchor_apply(k, a.structure[i][j][m])
                acc = acc - a.anchor_apply(i, a.structure[j][k][m])
                acc = acc - a.anchor_apply(j, a.structure[k][i][m])
                yield {"indices": (i + 1, j + 1, k + 1, m + 1), "identity": "Jacobi"}, acc

    def anchor_bracket():
        for i, j in combinations(range(r), 2):
            for l in range(a.n_vars):
                lhs = TruncatedPoly.zero(a.n_vars, a.jet_order)
                for k in range(r):
                    lhs = lhs + a.structure[i][j][k] * a.anchor[k][l]
                rhs = a.anchor_apply(i, a.anchor[j][l]) - a.anchor_apply(j, a.anchor[i][l])
                yield {"indices": (i + 1, j + 1), "coordinate": a.var_names[l],
                       "identity": "anchor([a,b]) = [anchor(a), anchor(b)]"}, lhs - rhs

    checks.append(_first_witness("jacobi", jacobi(), certified))
    checks.append(_first_witness("anchor_bracket", anchor_bracket(), certified))

    return ValidationReport(all(c.ok for c in checks), certified, checks)


# -- representations -------------------------------------------------------------


@dataclass
class Representation:
    """Flat linear connection data: one m x m matrix per frame element.

    Column beta of gamma[i] holds the coefficients of the covariant
    derivative of the beta-th fibre frame section along e_i.
    """

    algebroid: LieAlgebroidPatch
    rank: int
    gammas: List[List[List[TruncatedPoly]]]     # gammas[i][alpha][beta]
    fibre_weights: Optional[Tuple[int, ...]] = None
    name: str = ""

    def __post_init__(self):
        a, m = self.algebroid, self.rank
        if len(self.gammas) != a.rank:
            raise StructuralError("need one connection matrix per frame element")
        for g in self.gammas:
            if len(g) != m or any(len(row) != m for row in g):
                raise StructuralError(f"connection matrices must be {m}x{m}")
            for row in g:
                for e in row:
                    if e.n != a.n_vars:
                        raise StructuralError("connection entry has wrong variable arity")
        if self.fibre_weights is not None and len(self.fibre_weights) != m:
            raise StructuralError("fibre weight arity mismatch")

    def data_degree(self) -> int:
        degs = [e.total_degree() for g in self.gammas for row in g for e in row]
        return max(self.algebroid.data_degree(),
                   max([d for d in degs if d >= 0], default=0))

    def certified_order(self) -> int:
        return max(self.algebroid.jet_order - self.data_degree(), 0)

    def fibre_weight(self, beta: int) -> int:
        return 0 if self.fibre_weights is None else self.fibre_weights[beta]


def trivial_representation(a: LieAlgebroidPatch, rank: int = 1) -> Representation:
    z = TruncatedPoly.zero(a.n_vars, a.jet_order)
    gammas = [[[z for _ in range(rank)] for _ in range(rank)] for _ in range(a.rank)]
    return Representation(a, rank, gammas, name="trivial")


def adjoint_representation(a: LieAlgebroidPatch) -> Representation:
    """Adjoint action on the frame module; flat for constant-coefficient
    algebroids with zero anchor (Lie algebras)."""
    gammas = [[[a.structure[i][j][alpha] for j in range(a.rank)]
               for alpha in range(a.rank)] for i in range(a.rank)]
    return Representation(a, a.rank, gammas, fibre_weights=a.frame_weights, name="adjoint")


def validate_representation(rho: Representation) -> ValidationReport:
    """Flatness of the connection: the curvature on every frame pair vanishes
    up to the certified order."""
    a = rho.algebroid
    certified = rho.certified_order()
    m = rho.rank

    def curvature():
        for i, j in combinations(range(a.rank), 2):
            gi, gj = rho.gammas[i], rho.gammas[j]
            comm = _poly_mat_mul(gi, gj)
            comm2 = _poly_mat_mul(gj, gi)
            for al in range(m):
                for be in range(m):
                    acc = a.anchor_apply(i, gj[al][be]) - a.anchor_apply(j, gi[al][be])
                    acc = acc + comm[al][be] - comm2[al][be]
                    for k in range(a.rank):
                        ck = a.structure[i][j][k]
                        if not ck.is_zero():
                            acc = acc - ck * rho.gammas[k][al][be]
                    yield {"indices": (i + 1, j + 1), "entry": (al + 1, be + 1),
                           "identity": "curvature = 0"}, acc

    flatness = _first_witness("flatness", curvature(), certified)
    return ValidationReport(flatness.ok, certified, [flatness])


def semidirect_table(structure: Sequence, gammas: Sequence, zero) -> List[List[List]]:
    """Brackets of g + V on the frame of g followed by the frame of V, with
    entries of any ring (zero fills the empty blocks): [e_i, e_j] as given,
    [e_i, f_b] = sum_a gammas[i][a][b] f_a = -[f_b, e_i], [f_a, f_b] = 0.
    A representation of g is the same thing as this bracket table."""
    r, m = len(structure), len(gammas[0]) if gammas else 0
    total = r + m
    c = [[[zero for _ in range(total)] for _ in range(total)] for _ in range(total)]
    for i in range(r):
        for j in range(r):
            c[i][j][:r] = structure[i][j]
        for be in range(m):
            for al in range(m):
                val = gammas[i][al][be]
                c[i][r + be][r + al] = val
                c[r + be][i][r + al] = -val
    return c


def semidirect(a: LieAlgebroidPatch, rho: Representation) -> LieAlgebroidPatch:
    """Semidirect sum: frame = algebroid frame followed by fibre frame.

    Anchor kills the fibre part; the brackets are `semidirect_table`.
    """
    if rho.algebroid is not a:
        raise StructuralError("representation does not belong to this algebroid")
    r, m, n = a.rank, rho.rank, a.n_vars
    z = TruncatedPoly.zero(n, a.jet_order)
    anchor = [list(row) for row in a.anchor] + [[z] * n for _ in range(m)]
    # a representation of the zero algebra has no matrix to read m from
    c = semidirect_table(a.structure, rho.gammas or [[[z] * m] * m], z)
    fw = None
    if a.frame_weights is not None or rho.fibre_weights is not None:
        fw = tuple([a.frame_weight(i) for i in range(r)]
                   + [rho.fibre_weight(b) for b in range(m)])
    return LieAlgebroidPatch(a.var_names, a.jet_order, r + m, anchor, c,
                             weights=a.weights, frame_weights=fw,
                             name=(a.name + "+rep") if a.name else "semidirect")


# -- weight homogeneity ----------------------------------------------------------


def grading_violations(a: LieAlgebroidPatch, rho: Optional[Representation] = None) -> List[dict]:
    """Entries of the structure data that are not weight-homogeneous of the
    grade forced by the coordinate and frame weights."""
    if a.weights is None and a.n_vars > 0:
        return [{"reason": "no weight assignment on the patch"}]
    w = a.weights.weights if a.weights is not None else ()
    out: List[dict] = []
    for i in range(a.rank):
        for l in range(a.n_vars):
            want = w[l] + a.frame_weight(i)
            entry = a.anchor[i][l]
            if not entry.is_zero() and entry.homogeneous_weight(w) != want:
                out.append({"kind": "anchor", "indices": (i + 1, a.var_names[l]),
                            "expected_weight": want,
                            "entry": format_poly(entry, a.var_names)})
    for i in range(a.rank):
        for j in range(a.rank):
            for k in range(a.rank):
                want = a.frame_weight(i) + a.frame_weight(j) - a.frame_weight(k)
                entry = a.structure[i][j][k]
                if not entry.is_zero() and entry.homogeneous_weight(w) != want:
                    out.append({"kind": "structure", "indices": (i + 1, j + 1, k + 1),
                                "expected_weight": want,
                                "entry": format_poly(entry, a.var_names)})
    if rho is not None:
        for i in range(a.rank):
            for al in range(rho.rank):
                for be in range(rho.rank):
                    want = a.frame_weight(i) + rho.fibre_weight(be) - rho.fibre_weight(al)
                    entry = rho.gammas[i][al][be]
                    if not entry.is_zero() and entry.homogeneous_weight(w) != want:
                        out.append({"kind": "connection", "indices": (i + 1, al + 1, be + 1),
                                    "expected_weight": want,
                                    "entry": format_poly(entry, a.var_names)})
    return out


# -- submersion data ---------------------------------------------------------------


@dataclass
class SubmersionDatum:
    """An algebroid patch with a declared base-coordinate split and the
    rational points where surjectivity onto the base tangent is tested."""

    algebroid: LieAlgebroidPatch
    base_vars: Tuple[int, ...]
    test_points: List[Tuple[Fraction, ...]] = field(default_factory=list)

    def __post_init__(self):
        n = self.algebroid.n_vars
        if any(not 0 <= i < n for i in self.base_vars):
            raise StructuralError("base coordinate index out of range")
        if len(set(self.base_vars)) != len(self.base_vars):
            raise StructuralError("duplicate base coordinate")
        for p in self.test_points:
            if len(p) != n:
                raise StructuralError("test point has wrong arity")


@dataclass
class TauKernelReport:
    surjective: bool
    kernel_rank: int
    kernel_frame: List[List[TruncatedPoly]]          # coefficients in the big frame
    vertical_structure: List[List[List[TruncatedPoly]]]
    vertical_anchor: List[List[TruncatedPoly]]       # kernel_rank x n_vars
    pivot_frame: List[int]                            # frame indices solved for
    certified_order: int


@dataclass
class KernelSubalgebroid:
    """The kernel of an anchor block as a subalgebroid, in a solved frame."""

    pivots: List[int]                                 # frame indices solved for
    free: List[int]                                   # frame index of each kernel element
    frame: List[List[TruncatedPoly]]                  # coefficients in the big frame
    structure: List[List[List[TruncatedPoly]]]
    anchor: List[List[TruncatedPoly]]                 # kernel rank x n_vars
    gammas: Optional[List[List[List[TruncatedPoly]]]]  # connections on the kernel frame


def kernel_subalgebroid(big: LieAlgebroidPatch, block: List[List[TruncatedPoly]],
                        certified: int,
                        gammas: Optional[List[List[List[TruncatedPoly]]]] = None
                        ) -> KernelSubalgebroid:
    """The kernel of a submersion by the algebroid big: the sections that
    an anchor block annihilates, with their induced structure.

    block (one row per annihilated anchor component, one column per frame
    element of big, over big's ring) must be surjective at the origin.  The
    pivot_kernel_frame has 1 at its own free column and 0 at the others, so
    the structure constants are the free components of each frame bracket,
    and the pivot residual must vanish up to the certified order (else
    ValidationFailure "not_closed").  gammas, one connection matrix per
    frame element of big, are carried to the kernel frame.
    """
    r = big.rank
    pivots, free, frame = pivot_kernel_frame(block, r, big.n_vars, big.jet_order)
    kr = len(frame)
    z = TruncatedPoly.zero(big.n_vars, big.jet_order)
    structure = [[[z for _ in range(kr)] for _ in range(kr)] for _ in range(kr)]
    # antisymmetric data give [v, u] = -[u, v]; other data bracket both orders
    c = big.structure
    antisymmetric = not any(s or c[i][j][k].cap != c[j][i][k].cap
                            for (i, j, k), s in _symmetric_parts(c))
    for ti in range(kr):
        for tj in range(kr):
            if tj == ti:
                continue
            if antisymmetric and tj < ti:
                structure[ti][tj] = [-e for e in structure[tj][ti]]
                continue
            br = big.bracket_sections(frame[ti], frame[tj])
            structure[ti][tj] = [br[t] for t in free]
            # the residual vanishes at the free components by construction
            for i in pivots:
                resid = br[i]
                for tk, coeff in enumerate(structure[ti][tj]):
                    if not coeff.is_zero():
                        resid = resid - coeff * frame[tk][i]
                w = _lowest_nonzero_witness(resid, certified)
                if w:
                    raise ValidationFailure(
                        "kernel is not closed under the bracket",
                        {"kind": "not_closed", "pair": (ti + 1, tj + 1),
                         "frame_component": i + 1, "monomial": w[0],
                         "coefficient": w[1]})
    carried = None
    if gammas is not None:
        m = len(gammas[0]) if gammas else 0
        flat = _poly_mat_mul(frame, [[g for row in gam for g in row] for gam in gammas])
        carried = [[row[al * m:(al + 1) * m] for al in range(m)] for row in flat]
    return KernelSubalgebroid(pivots, free, frame, structure,
                              _poly_mat_mul(frame, big.anchor), carried)


def _submersion_ranks(block: List[List[TruncatedPoly]],
                      strata: Sequence[Tuple[str, Optional[Sequence]]]
                      ) -> Iterator[Tuple[str, int]]:
    """(label, rank) of a polynomial anchor block, one row per target
    coordinate, on each (label, point) stratum in the order given; a point
    of None stands for the generic rank over the fraction field.  The block
    is a submersion on a stratum when its rank there is its row count.
    Ranks are computed as they are read, so a caller that stops at the
    first deficient stratum computes no later one."""
    for label, pt in strata:
        yield label, (poly_matrix_rank(block) if pt is None
                      else QMatrix([[e.evaluate(pt) for e in row] for row in block]).rank())


def tau_and_kernel(s: SubmersionDatum) -> TauKernelReport:
    """Base component of the anchor, its kernel subalgebroid, and the
    induced vertical structure.

    The base block must be surjective at the origin, at every declared
    test point, and generically; the kernel is then a free module and a
    frame is produced by solving for the pivot columns.  Failure raises
    ValidationFailure with the offending point or a rank-jump witness.
    """
    a = s.algebroid
    nb = len(s.base_vars)
    r = a.rank
    tau_cols = [[a.anchor[i][l] for i in range(r)] for l in s.base_vars]  # nb x r
    strata = [("generic", None), ("origin", (Fraction(0),) * a.n_vars)] + \
        [(str(tuple(map(str, p))), p) for p in s.test_points]
    for label, rk in _submersion_ranks(tau_cols, strata):
        if rk < nb:
            at = ": generic rank" if label == "generic" else f" at {label}: rank"
            raise ValidationFailure(
                f"base anchor block is not surjective{at} {rk} < {nb}",
                {"kind": "not_surjective", "where": label, "rank": rk, "needed": nb})

    # The pivot submatrix is a unit in the jet ring, so the kernel is a free
    # module with an explicit frame.
    certified = a.certified_order()
    k = kernel_subalgebroid(a, tau_cols, certified)

    # Residual of the base block on the kernel frame must vanish within the cap.
    resid = _poly_mat_mul(k.frame, [[col[i] for col in tau_cols] for i in range(r)])
    for idx, row in enumerate(resid):
        for l, acc in enumerate(row):
            if not acc.is_zero():
                raise ValidationFailure(
                    "kernel frame is not annihilated by the base anchor block",
                    {"kind": "rank_jump", "frame_element": idx + 1,
                     "coordinate": a.var_names[s.base_vars[l]]})

    return TauKernelReport(True, len(k.frame), k.frame, k.structure, k.anchor,
                           list(k.pivots), certified)


def vertical_subalgebroid(s: SubmersionDatum) -> Tuple[LieAlgebroidPatch, TauKernelReport]:
    """Package the kernel of the base anchor block as an algebroid patch
    over the same chart."""
    rep = tau_and_kernel(s)
    a = s.algebroid
    return LieAlgebroidPatch(
        a.var_names, a.jet_order, rep.kernel_rank,
        rep.vertical_anchor, rep.vertical_structure,
        weights=a.weights,
        name=(a.name + ".vertical") if a.name else "vertical"), rep
