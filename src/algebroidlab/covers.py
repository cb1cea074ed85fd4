"""Combinatorial covers and the twisted double complex over a nerve.

A cover is a chart index set plus the declared nonempty pairwise and
triple intersections; its nerve is a simplicial complex of dimension at
most two.  Each chart carries constant fibre data (a Lie algebra and a
representation); overlaps carry rational transition pairs (P, Q) acting
on the two frames.  The double complex places the fibre cochains of the
smallest chart index on each simplex; the horizontal differential is the
alternating face sum, transporting through (P, Q) exactly when the face
drops the smallest vertex.

The page engine computes every term of the associated filtration-by-
column spectral sequence as an explicit subquotient of the total complex,
with two independent certificates: total-degree dimensions against a
brute-force count, and the second page against a simplicial cochain
computation that never touches the staircase machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .algebroid import (
    LieAlgebroidPatch,
    Representation,
    ValidationReport,
    CheckResult,
    validate_algebroid,
    validate_representation,
)
from .cohomology import BasisElement, CEComplex, lie_algebra_cohomology
from .errors import StructuralError, ValidationFailure
from .linalg import Echelon, QMatrix, kernel_quotient_dims


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

    def all(self) -> List[Tuple[int, ...]]:
        return [s for level in self.simplices for s in level]


def nerve(c: CoverDatum) -> Nerve:
    verts = [(i,) for i in range(len(c.charts))]
    edges = sorted(c.overlaps)
    tris = sorted(c.triples)
    levels: List[List[Tuple[int, ...]]] = [verts]
    if edges:
        levels.append(list(edges))
    if tris:
        if len(levels) == 1:
            levels.append([])
        levels.append(list(tris))
    return Nerve(levels)


def nerve_components(c: CoverDatum) -> List[List[int]]:
    """Connected components of the chart graph, as sorted vertex lists."""
    parent = list(range(len(c.charts)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in c.overlaps:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: Dict[int, List[int]] = {}
    for v in range(len(c.charts)):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def graph_is_tree(c: CoverDatum) -> bool:
    """Connected and acyclic one-skeleton (ignores declared triangles)."""
    return len(nerve_components(c)) == 1 and \
        len(c.overlaps) == len(c.charts) - 1


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
        if i == j:
            return (QMatrix.identity(self.fibre_rank(i)),
                    QMatrix.identity(self.rep_rank(i)))
        key = (min(i, j), max(i, j))
        if key not in self.transitions:
            p = QMatrix.identity(self.fibre_rank(i))
            q = QMatrix.identity(self.rep_rank(i))
            return p, q
        p, q = self.transitions[key]
        if i < j:
            return p, q
        return p.inverse(), q.inverse()


def _bracket_vec(a: LieAlgebroidPatch, u: Sequence[Fraction], v: Sequence[Fraction]
                 ) -> List[Fraction]:
    out = [Fraction(0)] * a.rank
    for i in range(a.rank):
        if u[i] == 0:
            continue
        for j in range(a.rank):
            if v[j] == 0:
                continue
            for k in range(a.rank):
                val = a.structure[i][j][k].constant_term()
                if val:
                    out[k] += u[i] * v[j] * val
    return out


def _gamma_action(cd: ChartData, u: Sequence[Fraction]) -> QMatrix:
    m = cd.rep.rank
    out = [[Fraction(0)] * m for _ in range(m)]
    for i in range(cd.algebra.rank):
        if u[i] == 0:
            continue
        for al in range(m):
            for be in range(m):
                val = cd.rep.gammas[i][al][be].constant_term()
                if val:
                    out[al][be] += u[i] * val
    return QMatrix(out)


def validate_family(f: LocalSystemFamily) -> ValidationReport:
    """Chart data validity, per-edge compatibility, cocycle on triples."""
    checks: List[CheckResult] = []
    for idx, cd in enumerate(f.charts):
        rep = validate_algebroid(cd.algebra)
        ok = rep.ok
        if ok and cd.rep is not None:
            ok = validate_representation(cd.rep).ok
        checks.append(CheckResult(f"chart[{idx}]", ok,
                                  None if ok else {"chart": idx}))
    ranks = {f.fibre_rank(i) for i in range(len(f.charts))}
    mranks = {f.rep_rank(i) for i in range(len(f.charts))}
    checks.append(CheckResult("constant_rank", len(ranks) == 1 and len(mranks) == 1,
                              None if len(ranks) == 1 and len(mranks) == 1
                              else {"fibre_ranks": sorted(ranks),
                                    "rep_ranks": sorted(mranks)}))
    for (i, j) in f.cover.overlaps:
        p, q = f.transition(i, j)
        ai, aj = f.charts[i].algebra, f.charts[j].algebra
        ok = ai.rank == aj.rank and p.nrows == p.ncols == ai.rank \
            and p.rank() == ai.rank
        wit = None
        if not ok:
            wit = {"edge": (i, j), "reason": "transition not invertible"}
        else:
            for av in range(aj.rank):
                for bv in range(av + 1, aj.rank):
                    u = [Fraction(0)] * aj.rank
                    v = [Fraction(0)] * aj.rank
                    u[av], v[bv] = Fraction(1), Fraction(1)
                    lhs = p.apply(_bracket_vec(aj, u, v))
                    rhs = _bracket_vec(ai, p.apply(u), p.apply(v))
                    if lhs != rhs:
                        ok, wit = False, {"edge": (i, j), "pair": (av + 1, bv + 1),
                                          "reason": "not a Lie algebra morphism"}
                        break
                if not ok:
                    break
        if ok and f.charts[i].rep is not None and f.charts[j].rep is not None:
            for bv in range(aj.rank):
                u = [Fraction(0)] * aj.rank
                u[bv] = Fraction(1)
                lhs = q @ _gamma_action(f.charts[j], u)
                rhs = _gamma_action(f.charts[i], p.apply(u)) @ q
                if not (lhs - rhs).is_zero():
                    ok, wit = False, {"edge": (i, j), "frame": bv + 1,
                                      "reason": "transition does not intertwine"}
                    break
        checks.append(CheckResult(f"transition[{i},{j}]", ok, wit))
    for (i, j, k) in f.cover.triples:
        pij, qij = f.transition(i, j)
        pjk, qjk = f.transition(j, k)
        pik, qik = f.transition(i, k)
        ok = ((pij @ pjk) - pik).is_zero() and ((qij @ qjk) - qik).is_zero()
        checks.append(CheckResult(f"cocycle[{i},{j},{k}]", ok,
                                  None if ok else {"triple": (i, j, k)}))
    return ValidationReport(all(c.ok for c in checks), 0, checks)


# -- cochain transport --------------------------------------------------------------------


def _chart_complex(cd: ChartData) -> CEComplex:
    return CEComplex(cd.algebra, cd.rep)


def _chart_basis(cd: ChartData, q: int) -> List[BasisElement]:
    return _chart_complex(cd).window_basis(q, 0)


def _minor(m: QMatrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    k = len(rows)
    if k == 0:
        return Fraction(1)
    sub = [[m.rows[r][c] for c in cols] for r in rows]
    return _det(sub)


def _det(rows: List[List[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _add_block(rows: List[List[Fraction]], block: QMatrix, r0: int, c0: int,
               sign: int = 1) -> None:
    """Add sign * block into rows with its top-left entry at (r0, c0)."""
    for r, brow in enumerate(block.rows):
        out = rows[r0 + r]
        for c, v in enumerate(brow):
            if v:
                out[c0 + c] += sign * v


def cochain_transport(p: QMatrix, q_mat: QMatrix,
                      src: List[BasisElement], dst: List[BasisElement]) -> QMatrix:
    """Matrix of omega |-> q . omega(p^{-1} ., ..., p^{-1} .) on CE bases."""
    pinv = p.inverse()
    index = {e: i for i, e in enumerate(dst)}
    cols: List[List[Fraction]] = []
    for (_, wedge, beta) in src:
        col = [Fraction(0)] * len(dst)
        for (_, wedge2, gamma) in dst:
            qv = q_mat.rows[gamma][beta]
            if qv == 0:
                continue
            det = _minor(pinv, list(wedge), list(wedge2))
            if det:
                col[index[((), wedge2, gamma)]] += qv * det
        cols.append(col)
    return QMatrix.from_columns(cols, len(dst))


# -- the double complex -------------------------------------------------------------------


@dataclass
class CechDoubleComplex:
    family: LocalSystemFamily
    nerve: Nerve
    simplices: List[List[Tuple[int, ...]]]
    q_max: int
    bases: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], BasisElement]]]
    delta: Dict[Tuple[int, int], QMatrix]     # C^{p,q} -> C^{p+1,q}
    vert: Dict[Tuple[int, int], QMatrix]      # C^{p,q} -> C^{p,q+1}, unsigned
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
        rows = [[Fraction(0)] * ncols for _ in range(self.total_dim(n + 1))]
        for p, off, size in self.total_basis_slices(n):
            if size == 0:
                continue
            dm = self.delta.get((p, n - p))
            if dm is not None and p + 1 in dst_off:
                _add_block(rows, dm, dst_off[p + 1], off)
            vm = self.vert.get((p, n - p))
            if vm is not None and p in dst_off:
                _add_block(rows, vm, dst_off[p], off, -1 if p % 2 else 1)
        self._total[n] = QMatrix(rows, ncols)
        return self._total[n]

    def total_betti(self) -> List[int]:
        n_top = self.p_max() + self.q_max
        out = []
        for n in range(n_top + 1):
            d_n = self.total_matrix(n)
            if n == 0:
                z = len(d_n.kernel_basis())
                out.append(z)
                continue
            d_prev = self.total_matrix(n - 1)
            info = kernel_quotient_dims(d_prev, d_n)
            out.append(info["betti"])
        return out


def build_double_complex(f: LocalSystemFamily, c: CoverDatum) -> CechDoubleComplex:
    """Assemble and exactly verify the twisted double complex."""
    rep = validate_family(f)
    if not rep.ok:
        bad = rep.failing()[0]
        raise ValidationFailure(f"family data invalid: {bad.name}", bad.witness or {})
    nv = nerve(c)
    simpl = nv.simplices
    q_max = max(f.fibre_rank(i) for i in range(len(f.charts)))
    bases: Dict[Tuple[int, int], List] = {}
    chart_bases: Dict[Tuple[int, int], List[BasisElement]] = {}
    for i in range(len(f.charts)):
        for q in range(q_max + 2):
            chart_bases[(i, q)] = _chart_basis(f.charts[i], q)
    for p, level in enumerate(simpl):
        for q in range(q_max + 2):
            entries = []
            for alpha in level:
                for e in chart_bases[(alpha[0], q)]:
                    entries.append((alpha, e))
            bases[(p, q)] = entries

    # vertical differential, blockwise per simplex
    vert: Dict[Tuple[int, int], QMatrix] = {}
    chart_d: Dict[Tuple[int, int], QMatrix] = {}
    for i in range(len(f.charts)):
        cx = _chart_complex(f.charts[i])
        for q in range(q_max + 1):
            chart_d[(i, q)] = cx.d_matrix(chart_bases[(i, q)], chart_bases[(i, q + 1)])
    for p, level in enumerate(simpl):
        for q in range(q_max + 1):
            ncols = len(bases[(p, q)])
            rows = [[Fraction(0)] * ncols for _ in range(len(bases[(p, q + 1)]))]
            r0 = c0 = 0
            for alpha in level:
                dm = chart_d[(alpha[0], q)]
                _add_block(rows, dm, r0, c0)
                r0 += dm.nrows
                c0 += dm.ncols
            vert[(p, q)] = QMatrix(rows, ncols)

    # horizontal differential with min-vertex twisting
    delta: Dict[Tuple[int, int], QMatrix] = {}
    tr_cache: Dict[Tuple[int, int, int], QMatrix] = {}

    def tr_matrix(i: int, j: int, q: int) -> QMatrix:
        key = (i, j, q)
        if key not in tr_cache:
            pmat, qmat = f.transition(i, j)
            tr_cache[key] = cochain_transport(pmat, qmat,
                                              chart_bases[(j, q)], chart_bases[(i, q)])
        return tr_cache[key]

    for p in range(len(simpl) - 1):
        for q in range(q_max + 2):
            src = bases[(p, q)]
            dst = bases[(p + 1, q)]
            src_off = {}
            off = 0
            for alpha in simpl[p]:
                src_off[alpha] = off
                off += len(chart_bases[(alpha[0], q)])
            rows = [[Fraction(0)] * len(src) for _ in range(len(dst))]
            roff = 0
            for beta in simpl[p + 1]:
                nb = len(chart_bases[(beta[0], q)])
                for s in range(len(beta)):
                    face = beta[:s] + beta[s + 1:]
                    if face not in src_off:
                        raise StructuralError(
                            f"nerve face {face!r} of {beta!r} missing")
                    sign = -1 if s % 2 else 1
                    coff = src_off[face]
                    if s == 0:
                        _add_block(rows, tr_matrix(beta[0], face[0], q), roff, coff, sign)
                    else:
                        for rr in range(nb):
                            rows[roff + rr][coff + rr] += sign
                roff += nb
            delta[(p, q)] = QMatrix(rows, len(src))

    dc = CechDoubleComplex(f, nv, simpl, q_max, bases, delta, vert)
    _verify_complex(dc)
    return dc


def _verify_complex(dc: CechDoubleComplex) -> None:
    p_top = dc.p_max()
    for p in range(p_top + 1):
        for q in range(dc.q_max + 1):
            if q + 1 <= dc.q_max:
                m2 = dc.vert.get((p, q + 1))
                m1 = dc.vert.get((p, q))
                if m1 is not None and m2 is not None and m1.nrows and m2.nrows:
                    if not (m2 @ m1).is_zero():
                        raise ValidationFailure("vertical differential does not square to zero",
                                                {"kind": "not_complex", "at": (p, q)})
            if p + 2 <= p_top:
                d2 = dc.delta.get((p + 1, q))
                d1 = dc.delta.get((p, q))
                if d1 is not None and d2 is not None and d1.nrows and d2.nrows:
                    if not (d2 @ d1).is_zero():
                        raise ValidationFailure("face sum does not square to zero",
                                                {"kind": "not_complex", "at": (p, q)})
            if p + 1 <= p_top and q + 1 <= dc.q_max + 1:
                a = dc.vert.get((p + 1, q)) @ dc.delta.get((p, q)) \
                    if dc.delta.get((p, q)) is not None else None
                b = dc.delta.get((p, q + 1)) @ dc.vert.get((p, q)) \
                    if dc.vert.get((p, q)) is not None else None
                if a is not None and b is not None and not (a - b).is_zero():
                    raise ValidationFailure("differentials do not commute",
                                            {"kind": "not_complex", "at": (p, q)})
    n_top = p_top + dc.q_max
    for n in range(n_top + 1):
        m1 = dc.total_matrix(n)
        m2 = dc.total_matrix(n + 1)
        if m1.nrows and m2.nrows and not (m2 @ m1).is_zero():
            raise ValidationFailure("total differential does not square to zero",
                                    {"kind": "not_complex", "at": n})


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


class _Staircase:
    """Subquotient arithmetic for the column filtration of a double complex."""

    def __init__(self, dc: CechDoubleComplex):
        self.dc = dc
        self.p_top = dc.p_max()
        self.n_top = self.p_top + dc.q_max
        self._a_cache: Dict[Tuple[int, int, int], List[List[Fraction]]] = {}

    def _column_mask(self, n: int, p_min: int) -> List[int]:
        out = []
        for p, off, size in self.dc.total_basis_slices(n):
            if p >= p_min:
                out.extend(range(off, off + size))
        return out

    def a_basis(self, r: int, p: int, n: int) -> List[List[Fraction]]:
        """Vectors of total degree n, supported on columns >= p, whose image
        has no component in columns < p + r.  r < 0 means no image condition."""
        if n < 0 or n > self.n_top:
            return []
        key = (r, p, n)
        if key in self._a_cache:
            return self._a_cache[key]
        support = self._column_mask(n, max(p, 0))
        if not support:
            self._a_cache[key] = []
            return []
        dmat = self.dc.total_matrix(n)
        # rows of the image that must vanish: columns below p + r
        con_rows = []
        if r >= 0 and n + 1 <= self.n_top:
            allowed = set(self._column_mask(n + 1, max(p + r, 0)))
            con_rows = [rr for rr in self._column_mask(n + 1, 0) if rr not in allowed]
        sub = QMatrix([[dmat.rows[rr][cc] for cc in support] for rr in con_rows],
                      len(support))
        dim_n = self.dc.total_dim(n)
        out = []
        for vec in sub.kernel_basis():
            v = [Fraction(0)] * dim_n
            for pos, c in enumerate(support):
                v[c] = vec[pos]
            out.append(v)
        self._a_cache[key] = out
        return out

    def boundary_span(self, r: int, p: int, n: int) -> Echelon:
        """Echelon of A_{r-1}^{p+1} plus d(A_{r-1}^{p-r+1}) inside degree n."""
        ech = Echelon(self.dc.total_dim(n))
        for v in self.a_basis(r - 1, p + 1, n):
            ech.add(v)
        if n - 1 >= 0:
            dmat = self.dc.total_matrix(n - 1)
            for v in self.a_basis(r - 1, p - r + 1, n - 1):
                ech.add(dmat.apply(v))
        return ech

    def page_dim(self, r: int, p: int, q: int) -> int:
        n = p + q
        if q < 0 or p < 0 or p > self.p_top or q > self.dc.q_max:
            return 0
        z = self.a_basis(r, p, n)
        if not z:
            return 0
        bnd = self.boundary_span(r, p, n)
        return sum(bnd.add(v) for v in z)

    def d_rank(self, r: int, p: int, q: int) -> int:
        """Rank of the induced page differential out of (p, q), for a
        position (p, q) where the page does not vanish."""
        tp, tq = p + r, q - r + 1
        if tq < 0 or tp > self.p_top:
            return 0
        n = p + q
        dmat = self.dc.total_matrix(n)
        bnd = self.boundary_span(r, tp, n + 1)
        return sum(bnd.add(dmat.apply(v)) for v in self.a_basis(r, p, n))


def ss_pages(dc: CechDoubleComplex, r_max: int = 4) -> SSReport:
    """Pages of the column-filtration spectral sequence with certificates.

    Dimension bookkeeping (next page = kernel modulo image of the page
    differential) is asserted at every step; the terminal page is compared
    against brute-force total cohomology, and the second page against the
    independent simplicial oracle.
    """
    eng = _Staircase(dc)
    p_top, q_top = eng.p_top, dc.q_max
    r_stab = max(p_top + 1, q_top + 2)
    r_top = max(r_max, r_stab)
    pages: List[SSPage] = []
    prev: Optional[SSPage] = None
    for r in range(r_top + 1):
        dims = {}
        ranks = {}
        for p in range(p_top + 1):
            for q in range(q_top + 1):
                dims[(p, q)] = eng.page_dim(r, p, q)
        for p in range(p_top + 1):
            for q in range(q_top + 1):
                ranks[(p, q)] = eng.d_rank(r, p, q) if dims[(p, q)] else 0
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
    e2_ok = all(pages[2].dims.get(k, 0) == v for k, v in oracle.items()) and \
        all(oracle.get(k, 0) == v for k, v in pages[2].dims.items() if v) \
        if len(pages) > 2 else False
    return SSReport(pages[:r_max + 1], r_stab, e_inf, total, conv_ok, oracle, e2_ok)


# -- independent second-page oracle --------------------------------------------------------


def _induced_on_cohomology(lc_src, lc_dst, tmat: QMatrix, q: int,
                           d_prev_dst: Optional[QMatrix]) -> QMatrix:
    """Map induced on degree-q cohomology by a cochain map, in the chosen
    representative bases."""
    reps_src = lc_src.representatives[q]
    reps_dst = lc_dst.representatives[q]
    dim_dst = len(lc_dst.bases[q])
    bcols = d_prev_dst.image_basis() if d_prev_dst is not None else []
    solver = QMatrix.from_columns([list(v) for v in reps_dst] + bcols, dim_dst)
    cols = []
    for v in reps_src:
        w = tmat.apply(v)
        sol = solver.solve(w)
        if sol is None:
            raise ValidationFailure("transported class leaves the cohomology",
                                    {"kind": "not_cocycle_preserving"})
        cols.append(sol[:len(reps_dst)])
    return QMatrix.from_columns(cols, len(reps_dst))


def e2_simplicial_oracle(f: LocalSystemFamily, dc: CechDoubleComplex
                         ) -> Dict[Tuple[int, int], int]:
    """Second page by a separate route: per-chart cohomology first, then the
    simplicial cochain complex of the nerve with transported coefficients."""
    lcs = [lie_algebra_cohomology(cd.algebra, cd.rep) for cd in f.charts]
    simpl = dc.simplices
    out: Dict[Tuple[int, int], int] = {}
    for q in range(dc.q_max + 1):
        dims_h = [len(lc.representatives[q]) if q < len(lc.betti) else 0 for lc in lcs]
        ind_cache: Dict[Tuple[int, int], QMatrix] = {}

        def induced(i: int, j: int) -> QMatrix:
            if (i, j) not in ind_cache:
                pm, qm = f.transition(i, j)
                tm = cochain_transport(pm, qm, _chart_basis(f.charts[j], q),
                                       _chart_basis(f.charts[i], q))
                dpd = lcs[i].matrices[q - 1] if q > 0 else None
                ind_cache[(i, j)] = _induced_on_cohomology(lcs[j], lcs[i], tm, q, dpd)
            return ind_cache[(i, j)]

        # simplicial cochain spaces with H^q coefficients at the min vertex
        offs: List[Dict[Tuple[int, ...], int]] = []
        sizes: List[int] = []
        for level in simpl:
            off_map = {}
            off = 0
            for alpha in level:
                off_map[alpha] = off
                off += dims_h[alpha[0]]
            offs.append(off_map)
            sizes.append(off)
        deltas: List[QMatrix] = []
        for p in range(len(simpl) - 1):
            rows = [[Fraction(0)] * sizes[p] for _ in range(sizes[p + 1])]
            for beta in simpl[p + 1]:
                nb = dims_h[beta[0]]
                roff = offs[p + 1][beta]
                for s in range(len(beta)):
                    face = beta[:s] + beta[s + 1:]
                    sign = -1 if s % 2 else 1
                    coff = offs[p][face]
                    if s == 0:
                        _add_block(rows, induced(beta[0], face[0]), roff, coff, sign)
                    else:
                        for rr in range(nb):
                            rows[roff + rr][coff + rr] += sign
            deltas.append(QMatrix(rows, sizes[p]))
        for p in range(len(simpl)):
            d_out = deltas[p] if p < len(deltas) else QMatrix.zeros(0, sizes[p])
            z = len(d_out.kernel_basis()) if sizes[p] else 0
            b = 0
            if p > 0 and sizes[p]:
                b = deltas[p - 1].rank()
            val = z - b
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
    total_dim: int
    fibre_dim: int
    kernel_dim: Optional[int]


def localization_check(f: LocalSystemFamily, c: CoverDatum, chart: int, n: int
                       ) -> LocalizationReport:
    """Restriction of total degree-n classes to one chart fibre.

    Hypotheses: fibre cohomology vanishes below n-1; connected base; and
    either the (n-1)-st fibre cohomology vanishes or the base is simply
    connected.  When unmet the verdict is reported, no claim is checked.
    """
    if not 0 <= chart < len(f.charts):
        raise StructuralError("chart index out of range")
    lc = lie_algebra_cohomology(f.charts[chart].algebra, f.charts[chart].rep)
    hyp_a = all(lc.betti[q] == 0 for q in range(min(max(n - 1, 0), len(lc.betti))))
    hyp_b = len(nerve_components(c)) == 1
    h_prev = lc.betti[n - 1] if 0 <= n - 1 < len(lc.betti) else 0
    c1 = h_prev == 0
    c2 = bool(c.simply_connected) if c.simply_connected is not None else graph_is_tree(c)
    hyps = {"fibre_vanishing_below": hyp_a, "connected": hyp_b,
            "top_minus_one_vanishes": c1, "simply_connected": c2}
    branch = "c1" if c1 else ("c2" if c2 else None)
    fibre_dim = lc.betti[n] if n < len(lc.betti) else 0
    if not (hyp_a and hyp_b and (c1 or c2)):
        return LocalizationReport("hypotheses unmet", hyps, branch, n, chart,
                                  -1, fibre_dim, None)
    dc = build_double_complex(f, c)
    cocycles = dc.total_matrix(n).kernel_basis()
    bech = Echelon(dc.total_dim(n))
    if n > 0:
        for col in dc.total_matrix(n - 1).image_basis():
            bech.add(col)
    total_reps = [v for v in cocycles if bech.add(v)]
    total_dim = len(total_reps)

    # chart-x component of the (0, n) block
    slice_off = None
    for p, off, size in dc.total_basis_slices(n):
        if p == 0:
            base = dc.bases[(0, n)]
            pos = 0
            for alpha, _elem in base:
                if alpha == (chart,):
                    break
                pos += 1
            count = sum(1 for alpha, _ in base if alpha == (chart,))
            slice_off = (off + pos, count)
            break
    fibre_basis_len = len(_chart_basis(f.charts[chart], n))
    restricted = []
    for v in total_reps:
        if slice_off is None:
            restricted.append([Fraction(0)] * fibre_basis_len)
        else:
            off, count = slice_off
            restricted.append(list(v[off:off + count]))
    # kernel of the induced map on classes: restrict, then reduce modulo
    # chart coboundaries
    fib_b = Echelon(fibre_basis_len)
    if n > 0:
        for col in lc.matrices[n - 1].image_basis():
            fib_b.add(col)
    kernel_dim = total_dim - sum(fib_b.add(v) for v in restricted)
    verdict = "injective" if kernel_dim == 0 else "kernel nonzero"
    return LocalizationReport(verdict, hyps, branch, n, chart,
                              total_dim, fibre_dim, kernel_dim)
