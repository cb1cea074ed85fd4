"""Combinatorial covers and the twisted double complex over a nerve.

A cover is a chart index set plus the declared nonempty pairwise and
triple intersections; its nerve is a simplicial complex of dimension at
most two, and `_chart_forest` is the one walk of its graph (components
and cycle basis).  Each chart carries constant fibre data (a Lie algebra and a
representation); overlaps carry rational transition pairs (P, Q) acting
on the two frames.  The double complex places the fibre cochains of the
smallest chart index on each simplex; the horizontal differential is the
alternating face sum, transporting through (P, Q) exactly when the face
drops the smallest vertex.  Every block and every total differential is
assembled as sparse rows.

The local system has one layer here, which `transport` reuses.
`_morphism_failure` is the one exact check that (P, Q) carries the fibre
data of one chart to another, as a bracket morphism P + Q of the two
semidirect tables g + V: it checks the edges of `validate_family`, which
judges each chart's connection over that chart's own fibre, and
certifies a transported frame map.  `_per_fibre` runs a per-chart
computation once per distinct fibre object: `validate_family` validates
the fibres through it.  `_chart_cohomology` is the one way in to a
family's fibre cohomology: it refuses a cover other than the family's,
raises the one invalid-family error, and then computes each distinct
fibre's cohomology once.  The double complex takes its chart bases and
vertical blocks from that list; the second-page oracle, localization, the
Gauss-Manin bundle and the monodromy check read the same list.

The pages of the filtration-by-column spectral sequence come from one
reduction per total degree: the columns of the total differential enter
one Echelon from the highest filtration column down, and each accepted
column is paired with its pivot row.  Every E_r term is then a count of
persistence pairs by length plus the unpaired positions, and
localization counts the unpaired positions of the same pairs.  Three
certificates stand beside the pages: the total square D o D = 0 at
assembly, the terminal page against total cohomology by rank-nullity, and
the second page against a simplicial cochain computation that never
touches the filtration reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .algebroid import (
    LieAlgebroidPatch,
    Representation,
    ValidationReport,
    CheckResult,
    semidirect_table,
    validate_algebroid,
    validate_representation,
)
from .cohomology import BasisElement, LieCohomology, lie_algebra_cohomology
from .errors import StructuralError, ValidationFailure
from .linalg import QMatrix, SparseRow, _axpy, persistence_pairs
from .ratpoly import minors

T = TypeVar("T")


# -- covers and nerves --------------------------------------------------------------------


@dataclass(frozen=True)
class CoverDatum:
    """Charts with declared nonempty (contractible) intersections."""

    charts: Tuple[str, ...]
    overlaps: Tuple[Tuple[int, int], ...] = ()
    triples: Tuple[Tuple[int, int, int], ...] = ()
    simply_connected: Optional[bool] = None   # user assertion for the base

    def __post_init__(self):
        m = len(self.charts)
        if len(set(self.charts)) != m:
            raise StructuralError("duplicate chart names")
        seen = set()
        for pair in self.overlaps:
            if len(pair) != 2 or not all(0 <= v < m for v in pair) or pair[0] >= pair[1]:
                raise StructuralError(f"bad overlap {pair!r}: need sorted chart indices")
            if pair in seen:
                raise StructuralError(f"duplicate overlap {pair!r}")
            seen.add(pair)
        tseen = set()
        for tri in self.triples:
            if len(tri) != 3 or tri[0] >= tri[1] or tri[1] >= tri[2] \
                    or not all(0 <= v < m for v in tri):
                raise StructuralError(f"bad triple {tri!r}: need sorted chart indices")
            if tri in tseen:
                raise StructuralError(f"duplicate triple {tri!r}")
            tseen.add(tri)
            for face in combinations(tri, 2):
                if face not in seen:
                    raise StructuralError(
                        f"cover not downward closed: triple {tri!r} needs overlap {face!r}")


@dataclass
class Nerve:
    simplices: List[List[Tuple[int, ...]]]    # by dimension: vertices, edges, triangles

    def dim(self) -> int:
        return len(self.simplices) - 1


def nerve(c: CoverDatum) -> Nerve:
    verts = [(i,) for i in range(len(c.charts))]
    edges = sorted(c.overlaps)
    tris = sorted(c.triples)
    levels: List[List[Tuple[int, ...]]] = [verts]
    if edges:
        levels.append(list(edges))
    if tris:
        levels.append(list(tris))
    return Nerve(levels)


def _chart_forest(c: CoverDatum) -> Tuple[List[List[int]], List[Tuple[int, ...]]]:
    """Breadth-first spanning forest of the chart graph, rooted at the least
    chart of each component: the components as sorted vertex lists, and one
    cycle per non-tree edge (a, b) in declared order, running from a along
    that edge to b and back to a through the tree."""
    adj: Dict[int, List[int]] = {i: [] for i in range(len(c.charts))}
    for (i, j) in c.overlaps:
        adj[i].append(j)
        adj[j].append(i)
    path: Dict[int, Tuple[int, ...]] = {}      # a vertex, its parent, ..., its root
    components = []
    for root in range(len(c.charts)):
        if root not in path:
            path[root], queue = (root,), [root]
            for u in queue:
                for v in sorted(adj[u]):
                    if v not in path:
                        path[v] = (v,) + path[u]
                        queue.append(v)
            components.append(sorted(queue))
    cycles = []
    for (a, b) in c.overlaps:
        pa, pb = path[a], path[b]
        if pb[1:2] != (a,) and pa[1:2] != (b,):        # not a tree edge
            lca = next(x for x in pb if x in pa)
            cycles.append((a, b) + pb[1:pb.index(lca) + 1] + pa[:pa.index(lca)][::-1])
    return components, cycles


# -- local systems -----------------------------------------------------------------------


@dataclass
class ChartData:
    algebra: LieAlgebroidPatch                # constant data over a point
    rep: Optional[Representation] = None


@dataclass
class LocalSystemFamily:
    """Per-chart constant fibre data plus rational transitions.

    transitions[(i, j)] = (P, Q) carries chart-j frames to chart-i frames;
    only sorted pairs are stored, the reverse direction is the inverse.
    """

    cover: CoverDatum
    charts: List[ChartData]
    transitions: Dict[Tuple[int, int], Tuple[QMatrix, QMatrix]] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.charts) != len(self.cover.charts):
            raise StructuralError("one fibre datum per chart required")
        for cd in self.charts:
            if cd.algebra.n_vars != 0:
                raise StructuralError("fibre data must be constant (point base)")
        for pair in self.transitions:
            if pair not in set(self.cover.overlaps):
                raise StructuralError(f"transition on undeclared overlap {pair!r}")

    def fibre_rank(self, i: int) -> int:
        return self.charts[i].algebra.rank

    def rep_rank(self, i: int) -> int:
        return self.charts[i].rep.rank if self.charts[i].rep is not None else 1

    def transition(self, i: int, j: int) -> Tuple[QMatrix, QMatrix]:
        """Transport from chart j data into chart i data."""
        key = (min(i, j), max(i, j))
        if i == j or key not in self.transitions:
            return (QMatrix.identity(self.fibre_rank(i)),
                    QMatrix.identity(self.rep_rank(i)))
        p, q = self.transitions[key]
        if i < j:
            return p, q
        return p.inverse(), q.inverse()


def _bracket_vec(c: List[List[List[Fraction]]], u: Sequence[Fraction], v: Sequence[Fraction]
                 ) -> List[Fraction]:
    """[u, v] for the structure constants c."""
    out = [Fraction(0)] * len(c)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            if vj == 0:
                continue
            for k, val in enumerate(c[i][j]):
                if val:
                    out[k] += ui * vj * val
    return out


def _fibre_table(algebra: LieAlgebroidPatch, rep: Optional[Representation]
                 ) -> List[List[List[Fraction]]]:
    """Constant bracket table of a chart fibre, or of its semidirect sum
    with rep when rep is given."""
    c = [[[e.constant_term() for e in row] for row in plane] for plane in algebra.structure]
    return c if rep is None else semidirect_table(
        c, [[[e.constant_term() for e in row] for row in g] for g in rep.gammas], Fraction(0))


def _morphism_failure(src: ChartData, dst: ChartData, p: QMatrix,
                      q: Optional[QMatrix]) -> Optional[dict]:
    """Witness of the first identity by which the frame map p and fibre map
    q fail to carry the fibre data of src to that of dst, or None.

    M[x, y] = [M x, M y] is checked for M = p + q on the semidirect tables
    when both charts carry a representation, else for M = p on the fibres:
    first on every frame pair (e_a, e_b) in lexicographic order, so on
    antisymmetric data the first failing pair has a < b; then, frame
    element by frame element, on (e_a, f_b), where it says that q
    intertwines the actions of e_a.  The other pairs hold by construction
    of the tables.  Invertibility is the caller's check.
    """
    r = src.algebra.rank
    with_rep = src.rep is not None and dst.rep is not None
    c_src, c_dst = (_fibre_table(cd.algebra, cd.rep if with_rep else None)
                    for cd in (src, dst))
    m = len(c_src) - r
    big = p if not with_rep else QMatrix(
        [row + [0] * m for row in p.rows] + [[0] * r + row for row in q.rows])
    cols = big.transpose().rows
    for a, b in ([(a, b) for a in range(r) for b in range(r)]
                 + [(a, r + b) for a in range(r) for b in range(m)]):
        if big.apply(c_src[a][b]) != _bracket_vec(c_dst, cols[a], cols[b]):
            if b < r:
                return {"pair": (a + 1, b + 1), "reason": "not a Lie algebra morphism"}
            return {"frame": a + 1, "reason": "transition does not intertwine"}
    return None


def _fibre_valid(cd: ChartData) -> bool:
    """A chart's fibre is a Lie algebra, and its connection, if any, is flat
    over that fibre, whatever patch the connection names (StructuralError if
    it cannot act there)."""
    return validate_algebroid(cd.algebra).ok and (
        cd.rep is None or validate_representation(replace(cd.rep, algebroid=cd.algebra)).ok)


def validate_family(f: LocalSystemFamily) -> ValidationReport:
    """Chart data validity, per-edge compatibility, cocycle on triples."""
    checks: List[CheckResult] = []
    valid = _per_fibre(f, _fibre_valid)
    for idx, ok in enumerate(valid):
        checks.append(CheckResult(f"chart[{idx}]", ok,
                                  None if ok else {"chart": idx}))
    ranks = {f.fibre_rank(i) for i in range(len(f.charts))}
    mranks = {f.rep_rank(i) for i in range(len(f.charts))}
    checks.append(CheckResult("constant_rank", len(ranks) == 1 and len(mranks) == 1,
                              None if len(ranks) == 1 and len(mranks) == 1
                              else {"fibre_ranks": sorted(ranks),
                                    "rep_ranks": sorted(mranks)}))
    edge_ok: Dict[Tuple[int, int], bool] = {}
    for (i, j) in f.cover.overlaps:
        p, q = f.transition(i, j)
        r, m = f.fibre_rank(i), f.rep_rank(i)
        if not (f.fibre_rank(j) == p.nrows == p.ncols == r and p.rank() == r):
            wit = {"reason": "transition not invertible"}
        elif not (f.rep_rank(j) == q.nrows == q.ncols == m and q.rank() == m):
            wit = {"reason": f"fibre transition Q not an invertible {m} x {m} matrix"}
        else:
            wit = _morphism_failure(f.charts[j], f.charts[i], p, q)
        checks.append(CheckResult(f"transition[{i},{j}]", wit is None,
                                  None if wit is None else {"edge": (i, j), **wit}))
        edge_ok[(i, j)] = wit is None
    for (i, j, k) in f.cover.triples:
        if not (edge_ok[(i, j)] and edge_ok[(j, k)] and edge_ok[(i, k)]):
            continue        # a failed edge check already names the edge
        pij, qij = f.transition(i, j)
        pjk, qjk = f.transition(j, k)
        pik, qik = f.transition(i, k)
        ok = ((pij @ pjk) - pik).is_zero() and ((qij @ qjk) - qik).is_zero()
        checks.append(CheckResult(f"cocycle[{i},{j},{k}]", ok,
                                  None if ok else {"triple": (i, j, k)}))
    return ValidationReport(all(c.ok for c in checks), 0, checks)


def _per_fibre(f: LocalSystemFamily, fn: Callable[[ChartData], T]) -> List[T]:
    """fn of every chart, called once per distinct (algebra, representation)
    object pair and shared by the charts that carry it."""
    seen: Dict[Tuple[int, int], T] = {}
    out = []
    for cd in f.charts:
        key = (id(cd.algebra), id(cd.rep))
        if key not in seen:
            seen[key] = fn(cd)
        out.append(seen[key])
    return out


def _chart_cohomology(f: LocalSystemFamily, c: Optional[CoverDatum] = None
                      ) -> List[LieCohomology]:
    """Fibre cohomology of every chart, once per distinct fibre, of a valid
    family: raise on a cover c other than the family's, then on the first
    failing check of validate_family, with its witness."""
    if c is not None and c != f.cover:
        raise StructuralError("cover disagrees with the family's cover")
    bad = validate_family(f).failing()
    if bad:
        raise ValidationFailure(f"family data invalid: {bad[0].name}", bad[0].witness or {})
    return _per_fibre(f, lambda cd: lie_algebra_cohomology(cd.algebra, cd.rep))


# -- cochain transport --------------------------------------------------------------------


def _add_block(rows: List[SparseRow], block: QMatrix, r0: int, c0: int,
               sign: int = 1) -> None:
    """Add sign * block into sparse rows with its top-left entry at (r0, c0)."""
    for r, brow in enumerate(block.sparse_rows()):
        _axpy(rows[r0 + r], sign, {c0 + c: v for c, v in brow.items()})


def _face_sum(faces: List[Tuple[int, ...]], cofaces: List[Tuple[int, ...]],
              size, transport) -> QMatrix:
    """Alternating face sum from cochains on `faces` to cochains on `cofaces`.

    Each simplex carries size(v) coordinates of its smallest vertex v.  A
    face keeps the smallest vertex of its coface, except the face that drops
    it, whose coordinates pass through transport(coface min, face min).
    """
    src_off: Dict[Tuple[int, ...], int] = {}
    ncols = 0
    for alpha in faces:
        src_off[alpha] = ncols
        ncols += size(alpha[0])
    rows: List[SparseRow] = [{} for _ in range(sum(size(b[0]) for b in cofaces))]
    roff = 0
    for beta in cofaces:
        nb = size(beta[0])
        for s in range(len(beta)):
            face = beta[:s] + beta[s + 1:]
            if face not in src_off:
                raise StructuralError(f"nerve face {face!r} of {beta!r} missing")
            sign = -1 if s % 2 else 1
            coff = src_off[face]
            if s == 0:
                _add_block(rows, transport(beta[0], face[0]), roff, coff, sign)
            else:
                for rr in range(nb):
                    rows[roff + rr][coff + rr] = Fraction(sign)
        roff += nb
    return QMatrix.of_sparse(rows, ncols)


def cochain_transport(p: QMatrix, q_mat: QMatrix,
                      src: List[BasisElement], dst: List[BasisElement]) -> QMatrix:
    """Matrix of omega |-> q . omega(p^{-1} ., ..., p^{-1} .) on CE bases."""
    minor, q_rows = minors(p.inverse().rows, Fraction(1)), q_mat.rows
    cols: List[SparseRow] = []
    for (_, wedge, beta) in src:
        col: SparseRow = {}
        for k, (_, wedge2, gamma) in enumerate(dst):
            qv = q_rows[gamma][beta]
            if qv == 0:
                continue
            det = minor(wedge, wedge2)
            if det:
                col[k] = qv * det
        cols.append(col)
    return QMatrix.of_sparse(cols, len(dst)).transpose()


# -- the double complex -------------------------------------------------------------------


@dataclass
class CechDoubleComplex:
    family: LocalSystemFamily
    simplices: List[List[Tuple[int, ...]]]
    q_max: int
    bases: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], BasisElement]]]
    delta: Dict[Tuple[int, int], QMatrix]     # C^{p,q} -> C^{p+1,q}
    vert: Dict[Tuple[int, int], QMatrix]      # C^{p,q} -> C^{p,q+1}, unsigned
    chart_cohomology: List[LieCohomology]     # fibre cohomology, one per chart
    _total: Dict[int, QMatrix] = field(default_factory=dict, init=False, repr=False,
                                       compare=False)

    def p_max(self) -> int:
        return len(self.simplices) - 1

    def dim(self, p: int, q: int) -> int:
        return len(self.bases.get((p, q), []))

    def total_basis_slices(self, n: int) -> List[Tuple[int, int, int]]:
        """(p, offset, size) per column contributing to total degree n."""
        out = []
        off = 0
        for p in range(0, min(n, self.p_max()) + 1):
            size = self.dim(p, n - p)
            out.append((p, off, size))
            off += size
        return out

    def total_dim(self, n: int) -> int:
        return sum(s for _, _, s in self.total_basis_slices(n))

    def total_matrix(self, n: int) -> QMatrix:
        """The total differential from total degree n to n + 1, built once
        per complex; callers must not modify it."""
        if n in self._total:
            return self._total[n]
        dst_off = {p: off for p, off, _ in self.total_basis_slices(n + 1)}
        ncols = self.total_dim(n)
        rows: List[SparseRow] = [{} for _ in range(self.total_dim(n + 1))]
        for p, off, size in self.total_basis_slices(n):
            if size == 0:
                continue
            dm = self.delta.get((p, n - p))
            if dm is not None and p + 1 in dst_off:
                _add_block(rows, dm, dst_off[p + 1], off)
            vm = self.vert.get((p, n - p))
            if vm is not None and p in dst_off:
                _add_block(rows, vm, dst_off[p], off, -1 if p % 2 else 1)
        self._total[n] = QMatrix.of_sparse(rows, ncols)
        return self._total[n]

    def total_betti(self) -> List[int]:
        """Total cohomology by rank-nullity, dim C^n - rank D_n - rank D_{n-1};
        build_double_complex certifies D o D = 0 first."""
        n_top = self.p_max() + self.q_max
        ranks = [self.total_matrix(n).rank() for n in range(n_top + 1)]
        return [self.total_dim(n) - ranks[n] - (ranks[n - 1] if n else 0)
                for n in range(n_top + 1)]

    def column_of(self, n: int) -> List[int]:
        """Filtration column p of each basis position of total degree n."""
        return [p for p, _, size in self.total_basis_slices(n) for _ in range(size)]


def build_double_complex(f: LocalSystemFamily, c: CoverDatum) -> CechDoubleComplex:
    """Assemble and exactly verify the twisted double complex."""
    lcs = _chart_cohomology(f, c)
    simpl = nerve(c).simplices
    q_max = max(f.fibre_rank(i) for i in range(len(f.charts)))

    def chart_basis(i: int, q: int) -> List[BasisElement]:
        # every chart has rank q_max, so none has cochains above it
        return lcs[i].bases[q] if q <= q_max else []

    bases = {(p, q): [(alpha, e) for alpha in level for e in chart_basis(alpha[0], q)]
             for p, level in enumerate(simpl) for q in range(q_max + 2)}

    # vertical differential, blockwise per simplex
    vert: Dict[Tuple[int, int], QMatrix] = {}
    for p, level in enumerate(simpl):
        for q in range(q_max + 1):
            ncols = len(bases[(p, q)])
            rows: List[SparseRow] = [{} for _ in range(len(bases[(p, q + 1)]))]
            r0 = c0 = 0
            for alpha in level:
                dm = lcs[alpha[0]].matrices[q]
                _add_block(rows, dm, r0, c0)
                r0 += dm.nrows
                c0 += dm.ncols
            vert[(p, q)] = QMatrix.of_sparse(rows, ncols)

    # horizontal differential with min-vertex twisting
    delta: Dict[Tuple[int, int], QMatrix] = {}
    tr_cache: Dict[Tuple[int, int, int], QMatrix] = {}

    def tr_matrix(i: int, j: int, q: int) -> QMatrix:
        key = (i, j, q)
        if key not in tr_cache:
            pmat, qmat = f.transition(i, j)
            if pmat == QMatrix.identity(pmat.nrows) and qmat == QMatrix.identity(qmat.nrows):
                # the identity on the equal chart bases (validate_family has
                # checked that the ranks agree), e.g. with no declared transition
                tr_cache[key] = QMatrix.identity(len(chart_basis(i, q)))
            else:
                tr_cache[key] = cochain_transport(pmat, qmat,
                                                  chart_basis(j, q), chart_basis(i, q))
        return tr_cache[key]

    for p in range(len(simpl) - 1):
        for q in range(q_max + 2):
            delta[(p, q)] = _face_sum(simpl[p], simpl[p + 1],
                                      lambda i: len(chart_basis(i, q)),
                                      lambda i, j: tr_matrix(i, j, q))

    dc = CechDoubleComplex(f, simpl, q_max, bases, delta, vert, lcs)
    _verify_complex(dc)
    return dc


_IDENTITY_BY_COLUMN_STEP = {
    0: "vertical differential does not square to zero",
    1: "differentials do not commute",
    2: "face sum does not square to zero",
}


def _verify_complex(dc: CechDoubleComplex) -> None:
    """Certify D o D = 0 on the total complex.

    Block (p + k, p) of the total D o D is, up to sign, the vertical square
    for k = 0, the commutator of the vertical and horizontal maps for k = 1
    and the face-sum square for k = 2, so a vanishing total square is the
    three block identities at once.  A failure names the identity from the
    blocks of its least nonzero entry by (column, row), at the source (p, q)
    of that entry.
    """
    for n in range(dc.p_max() + dc.q_max + 1):
        m1, m2 = dc.total_matrix(n), dc.total_matrix(n + 1)
        if not (m1.nrows and m2.nrows):
            continue
        square = (m2 @ m1).sparse_rows()
        nonzero = [(j, i) for i, row in enumerate(square) for j in row]
        if nonzero:
            j, i = min(nonzero)
            p = dc.column_of(n)[j]
            raise ValidationFailure(_IDENTITY_BY_COLUMN_STEP[dc.column_of(n + 2)[i] - p],
                                    {"kind": "not_complex", "at": (p, n - p)})


# -- spectral sequence engine ------------------------------------------------------------


@dataclass
class SSPage:
    r: int
    dims: Dict[Tuple[int, int], int]
    d_ranks: Dict[Tuple[int, int], int]


@dataclass
class SSReport:
    pages: List[SSPage]
    stable_from: int
    e_infinity: Dict[Tuple[int, int], int]
    total_betti: List[int]
    convergence_ok: bool
    e2_oracle: Dict[Tuple[int, int], int]
    e2_ok: bool


def _filtration_pairs(dc: CechDoubleComplex, n: int) -> List[Tuple[int, int]]:
    """Persistence pairs of the column filtration across D_n, as (source
    position in degree n, partner position in degree n + 1).

    The columns of D_n enter `persistence_pairs` from the highest filtration
    column down, and the rows of degree n + 1 are ordered by column
    ascending, so the pivot of each accepted column is the lowest-column row
    its reduced image can reach: its partner.
    """
    dmat = dc.total_matrix(n)
    last = dmat.ncols - 1
    return [(last - k, i)
            for k, i in persistence_pairs(dmat.nrows, reversed(dmat.sparse_columns()))]


def ss_pages(dc: CechDoubleComplex, r_max: int = 4) -> SSReport:
    """Pages of the column-filtration spectral sequence with certificates.

    One filtration-ordered reduction of each total differential pairs every
    basis position with at most one partner.  A pair whose source sits in
    column p and partner in column p + g lives on pages 0..g at both ends
    and is the rank of d_g out of its source; unpaired positions survive to
    the terminal page.  Dimension bookkeeping (next page = kernel modulo
    image of the page differential) is asserted at every step; the terminal
    page is compared against total cohomology by rank-nullity, and the
    second page against the independent simplicial oracle.
    """
    if r_max < 0:
        raise StructuralError("last page must be non-negative")
    p_top, q_top = dc.p_max(), dc.q_max
    r_stab = max(p_top + 1, q_top + 2)
    r_top = max(r_max, r_stab)
    essential = {(p, q): dc.dim(p, q) for p in range(p_top + 1) for q in range(q_top + 1)}
    pairs: List[Tuple[Tuple[int, int], int]] = []      # (source (p, q), gap)
    for n in range(p_top + q_top + 1):
        src_p, dst_p = dc.column_of(n), dc.column_of(n + 1)
        for j, i in _filtration_pairs(dc, n):
            src, dst = (src_p[j], n - src_p[j]), (dst_p[i], n + 1 - dst_p[i])
            essential[src] -= 1
            essential[dst] -= 1
            pairs.append((src, dst_p[i] - src_p[j]))
    pages: List[SSPage] = []
    prev: Optional[SSPage] = None
    for r in range(r_top + 1):
        dims = dict(essential)
        ranks = {key: 0 for key in essential}
        for (p, q), gap in pairs:
            if gap >= r:
                dims[(p, q)] += 1
                dims[(p + gap, q - gap + 1)] += 1
            if gap == r:
                ranks[(p, q)] += 1
        page = SSPage(r, dims, ranks)
        if prev is not None:
            for p in range(p_top + 1):
                for q in range(q_top + 1):
                    incoming = prev.d_ranks.get((p - prev.r, q + prev.r - 1), 0)
                    expect = prev.dims[(p, q)] - prev.d_ranks[(p, q)] - incoming
                    if page.dims[(p, q)] != expect:
                        raise ValidationFailure(
                            "page dimensions break the homology bookkeeping",
                            {"kind": "ss_bookkeeping", "r": r, "at": (p, q),
                             "expected": expect, "got": page.dims[(p, q)]})
        pages.append(page)
        prev = page
    e_inf = pages[r_stab].dims
    total = dc.total_betti()
    conv_ok = True
    for n in range(p_top + q_top + 1):
        graded = sum(e_inf.get((p, n - p), 0) for p in range(p_top + 1))
        if graded != total[n]:
            conv_ok = False
    oracle = e2_simplicial_oracle(dc.family, dc)
    e2_ok = {k: v for k, v in pages[2].dims.items() if v} == oracle
    return SSReport(pages[:r_max + 1], r_stab, e_inf, total, conv_ok, oracle, e2_ok)


# -- independent second-page oracle --------------------------------------------------------


def _induced_on_cohomology(p: QMatrix, q_mat: QMatrix, lc_src, lc_dst, q: int) -> QMatrix:
    """Map induced on degree-q cohomology by the frame change (p, q_mat),
    in the chosen representative bases: transport each source
    representative and solve modulo the destination coboundaries."""
    tmat = cochain_transport(p, q_mat, lc_src.bases[q], lc_dst.bases[q])
    reps_dst = lc_dst.representatives[q]
    bcols = lc_dst.matrices[q - 1].image_basis() if q > 0 else []
    solver = QMatrix.from_columns([list(v) for v in reps_dst] + bcols, len(lc_dst.bases[q]))
    cols = []
    for v in lc_src.representatives[q]:
        sol = solver.solve(tmat.apply(v))
        if sol is None:
            raise ValidationFailure("transported class leaves the cohomology",
                                    {"kind": "not_cocycle_preserving"})
        cols.append(sol[:len(reps_dst)])
    return QMatrix.from_columns(cols, len(reps_dst))


def _edge_maps(f: LocalSystemFamily, lcs) -> Callable[[int, int, int], QMatrix]:
    """Map on degree-q cohomology carrying chart j classes to chart i, as a
    function of (i, j, q) that computes each map once for all its callers."""
    return lru_cache(maxsize=None)(
        lambda i, j, q: _induced_on_cohomology(*f.transition(i, j), lcs[j], lcs[i], q))


def _holonomy(edge: Callable[[int, int, int], QMatrix], nodes: Sequence[int], q: int) -> QMatrix:
    """Map on degree-q cohomology carrying chart nodes[0] classes along the
    chart path nodes to chart nodes[-1]: the `_edge_maps` edge maps composed
    in path order."""
    hol = edge(nodes[1], nodes[0], q)
    for u, v in zip(nodes[1:], nodes[2:]):
        hol = edge(v, u, q) @ hol
    return hol


def e2_simplicial_oracle(f: LocalSystemFamily, dc: CechDoubleComplex
                         ) -> Dict[Tuple[int, int], int]:
    """Second page by a separate route: per-chart cohomology first, then the
    simplicial cochain complex of the nerve with transported coefficients,
    counted by rank-nullity."""
    lcs = dc.chart_cohomology
    edge = _edge_maps(f, lcs)
    simpl = dc.simplices
    out: Dict[Tuple[int, int], int] = {}
    for q in range(dc.q_max + 1):
        dims_h = [lc.betti[q] for lc in lcs]
        # simplicial cochain spaces with H^q coefficients at the min vertex;
        # every face sum transports along a nerve edge (coface min, face min)
        sizes = [sum(dims_h[alpha[0]] for alpha in level) for level in simpl]
        ranks = [_face_sum(simpl[p], simpl[p + 1], lambda i: dims_h[i],
                           lambda i, j: edge(i, j, q)).rank()
                 for p in range(len(simpl) - 1)] + [0]
        for p in range(len(simpl)):
            val = sizes[p] - ranks[p] - (ranks[p - 1] if p else 0)
            if val:
                out[(p, q)] = val
    return out


# -- localization ------------------------------------------------------------------------


@dataclass
class LocalizationReport:
    verdict: str                               # "injective" | "hypotheses unmet"
    hypotheses: Dict[str, bool]
    branch: Optional[str]
    degree: int
    chart: int
    total_dim: Optional[int]
    fibre_dim: int
    kernel_dim: Optional[int]


def _unpaired_columns(dc: CechDoubleComplex, n: int) -> List[int]:
    """Filtration column of each degree-n position that is neither a
    source of D_n nor a partner from D_{n-1}; column p holds
    dim E_infinity^{p, n-p} of them."""
    paired = {j for j, _ in _filtration_pairs(dc, n)}
    if n > 0:
        paired |= {i for _, i in _filtration_pairs(dc, n - 1)}
    return [p for pos, p in enumerate(dc.column_of(n)) if pos not in paired]


def localization_check(f: LocalSystemFamily, c: CoverDatum, chart: int, n: int
                       ) -> LocalizationReport:
    """Restriction of total degree-n classes (n >= 0) to one chart fibre.

    Hypotheses: fibre cohomology vanishes below n-1; connected base; and
    either the (n-1)-st fibre cohomology vanishes or the base is simply
    connected.  When unmet the verdict is reported, no claim is checked.

    When met, the counts are read off the filtration pairs of the pages:
    the unpaired degree-n positions count H^n, those in columns p >= 1
    count F^1 H^n, and F^1 H^n is the kernel of restriction to any one
    chart.  A class restricts through its column-0 edge term, a global
    section of the degree-n fibre cohomology; on a connected nerve whose
    edge maps are isomorphisms (validate_family guarantees that) a global
    section embeds in every chart's fibre cohomology.
    """
    if not 0 <= chart < len(f.charts):
        raise StructuralError("chart index out of range")
    if n < 0:
        raise StructuralError("negative degree")
    lc = _chart_cohomology(f, c)[chart]
    components, cycles = _chart_forest(c)
    hyp_a = all(lc.betti[q] == 0 for q in range(min(max(n - 1, 0), len(lc.betti))))
    hyp_b = len(components) == 1
    h_prev = lc.betti[n - 1] if 0 <= n - 1 < len(lc.betti) else 0
    c1 = h_prev == 0
    c2 = bool(c.simply_connected) if c.simply_connected is not None else hyp_b and not cycles
    hyps = {"fibre_vanishing_below": hyp_a, "connected": hyp_b,
            "top_minus_one_vanishes": c1, "simply_connected": c2}
    branch = "c1" if c1 else ("c2" if c2 else None)
    fibre_dim = lc.betti[n] if n < len(lc.betti) else 0
    if not (hyp_a and hyp_b and (c1 or c2)):
        return LocalizationReport("hypotheses unmet", hyps, branch, n, chart,
                                  None, fibre_dim, None)
    unpaired = _unpaired_columns(build_double_complex(f, c), n)
    kernel_dim = sum(p >= 1 for p in unpaired)
    verdict = "injective" if kernel_dim == 0 else "kernel nonzero"
    return LocalizationReport(verdict, hyps, branch, n, chart,
                              len(unpaired), fibre_dim, kernel_dim)
