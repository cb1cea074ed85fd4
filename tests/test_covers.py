"""Nerves, twisted double complexes, page computations, localization."""

import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroidlab import covers
from algebroidlab.algebroid import (LieAlgebroidPatch, Representation, adjoint_representation,
                                    trivial_representation)
from algebroidlab.covers import (
    ChartData,
    _morphism_failure,
    _verify_complex,
    CechDoubleComplex,
    CoverDatum,
    LocalSystemFamily,
    build_double_complex,
    cochain_transport,
    e2_simplicial_oracle,
    localization_check,
    nerve,
    ss_pages,
    validate_family,
)
from algebroidlab.cohomology import lie_algebra_cohomology
from algebroidlab.errors import StructuralError, ValidationFailure
from algebroidlab.library import abelian_patch, heisenberg_patch, sl2_patch
from algebroidlab.linalg import Echelon, QMatrix, quotient_dim_and_reps
from algebroidlab.modelfile import parse_model
from algebroidlab.ratpoly import TruncatedPoly, minors
from test_linalg import _sparse, compare_engines

MODELS = Path(__file__).resolve().parent.parent / "models"


def _const_rep(a, mat_list):
    """Representation with constant gamma matrices, one per frame element."""
    m = len(mat_list[0])
    gam = [[[TruncatedPoly.const(0, mat_list[i][al][be], 0)
             for be in range(m)] for al in range(m)] for i in range(a.rank)]
    return Representation(a, m, gam)


def _interval(n_charts=2):
    names = tuple(f"U{i}" for i in range(n_charts))
    overlaps = tuple((i, i + 1) for i in range(n_charts - 1))
    return CoverDatum(names, overlaps)


def _circle(n_charts=3):
    names = tuple(f"U{i}" for i in range(n_charts))
    overlaps = tuple(sorted([(i, (i + 1) % n_charts) if i < (i + 1) % n_charts
                             else ((i + 1) % n_charts, i)
                             for i in range(n_charts)]))
    return CoverDatum(names, overlaps)


def _sphere():
    """Four charts meeting pairwise and in every triple: the nerve is the
    boundary of a tetrahedron, a 2-sphere."""
    return CoverDatum(("A", "B", "C", "D"),
                      ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
                      ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))


def _constant_family(cover, fibre, rep=None, transitions=None):
    charts = [ChartData(fibre, rep) for _ in cover.charts]
    return LocalSystemFamily(cover, charts, transitions or {})


# -- covers and nerves --------------------------------------------------------------------


def test_nerve_two_charts():
    nv = nerve(_interval(2))
    assert nv.simplices == [[(0,), (1,)], [(0, 1)]]


def test_nerve_circle_is_triangle_boundary():
    nv = nerve(_circle(3))
    assert nv.simplices == [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)]]
    assert nv.dim() == 1


def test_nerve_single_chart():
    nv = nerve(CoverDatum(("U",)))
    assert nv.simplices == [[(0,)]]


def test_cover_rejects_closure_violation():
    with pytest.raises(StructuralError) as ei:
        CoverDatum(("A", "B", "C"), ((0, 1), (1, 2)), ((0, 1, 2),))
    assert "(0, 2)" in str(ei.value)


def test_cover_rejects_unsorted_overlap():
    with pytest.raises(StructuralError):
        CoverDatum(("A", "B"), ((1, 0),))


def _is_tree(c: CoverDatum) -> bool:
    """Connected and acyclic chart graph, read off the spanning forest."""
    components, cycles = covers._chart_forest(c)
    return len(components) == 1 and not cycles


def test_components_and_tree():
    assert covers._chart_forest(_interval(3))[0] == [[0, 1, 2]]
    assert _is_tree(_interval(3))
    assert not _is_tree(_circle(3))
    two = CoverDatum(("A", "B", "C"), ((0, 1),))
    assert covers._chart_forest(two)[0] == [[0, 1], [2]]


# The union-find components and the cycle basis that the chart graph had
# before one breadth-first forest served both, kept as references.


def _union_find_components(ncharts, overlaps):
    parent = list(range(ncharts))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in overlaps:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups: Dict[int, List[int]] = {}
    for v in range(ncharts):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def _cycle_basis_reference(ncharts, overlaps):
    adj = {i: [] for i in range(ncharts)}
    for (i, j) in overlaps:
        adj[i].append(j)
        adj[j].append(i)
    parent = {}
    tree = set()
    for root in range(ncharts):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(adj[u]):
                if v not in parent:
                    parent[v] = u
                    tree.add((min(u, v), max(u, v)))
                    queue.append(v)

    def path_to_root(x):
        out = [x]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    cycles = []
    for (a, b) in overlaps:
        if (a, b) in tree:
            continue
        pa = path_to_root(a)
        pb = path_to_root(b)
        seen = set(pa)
        lca = next(x for x in pb if x in seen)
        up = pb[:pb.index(lca) + 1]
        down = pa[:pa.index(lca) + 1]
        cycles.append((a, b) + tuple(up[1:]) + tuple(reversed(down[:-1])))
    return cycles


@st.composite
def _chart_graphs(draw):
    """Components of 3 to 5 charts, each a random spanning tree plus at
    least one more edge, and up to two lone charts; the charts are
    relabelled and the overlaps declared in random order.  Returns the
    cover and, per component, its spanning tree as a cover of its own."""
    sizes = draw(st.lists(st.integers(3, 5), min_size=2, max_size=3))
    sizes += [1] * draw(st.integers(0, 2))
    label = draw(st.permutations(range(sum(sizes))))
    edges, trees, start = [], [], 0
    for size in sizes:
        members = range(start, start + size)
        tree = [(draw(st.integers(start, v - 1)), v) for v in members[1:]]
        others = [e for e in combinations(members, 2) if e not in tree]
        edges += tree + (draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
                         if others else [])
        trees.append(CoverDatum(tuple(f"T{v}" for v in members),
                                tuple((i - start, j - start) for i, j in tree)))
        start += size
    overlaps = draw(st.permutations([tuple(sorted((label[i], label[j]))) for i, j in edges]))
    return CoverDatum(tuple(f"U{v}" for v in range(start)), tuple(overlaps)), trees


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_chart_graphs())
def test_chart_forest_matches_the_union_find_and_cycle_references(drawn):
    cover, trees = drawn
    components, cycles = covers._chart_forest(cover)
    assert len(components) >= 2 and len(cycles) >= 2
    for c in [cover] + trees:
        ncharts, edges = len(c.charts), set(c.overlaps)
        comps = _union_find_components(ncharts, c.overlaps)
        basis = _cycle_basis_reference(ncharts, c.overlaps)
        assert covers._chart_forest(c) == (comps, basis)
        assert _is_tree(c) == (len(comps) == 1 and len(edges) == ncharts - 1)
        assert len(basis) == len(edges) - ncharts + len(comps)
        for nodes in basis:
            assert nodes[0] == nodes[-1]
            assert all(tuple(sorted(e)) in edges for e in zip(nodes, nodes[1:]))
    assert all(_is_tree(t) for t in trees)


# -- family validation --------------------------------------------------------------------


def test_validate_constant_family_identity():
    f = _constant_family(_circle(3), sl2_patch())
    assert validate_family(f).ok


def test_validate_rejects_non_morphism_transition():
    # swapping e and f in sl2 without negating h is not an automorphism
    p = QMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    q = QMatrix([[1]])
    f = _constant_family(_interval(2), sl2_patch(), transitions={(0, 1): (p, q)})
    rep = validate_family(f)
    assert not rep.ok
    assert any("morphism" in (c.witness or {}).get("reason", "")
               for c in rep.failing())


def test_validate_accepts_sl2_diagonal_automorphism():
    lam = Fraction(3)
    p = QMatrix([[1, 0, 0], [0, lam, 0], [0, 0, 1 / lam]])
    q = QMatrix([[1]])
    f = _constant_family(_interval(2), sl2_patch(), transitions={(0, 1): (p, q)})
    assert validate_family(f).ok


def test_validate_cocycle_failure_names_triple():
    cover = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    g = QMatrix([[1, 1], [0, 1]])
    f = _constant_family(cover, abelian_patch(2),
                         transitions={(0, 1): (g, QMatrix([[1]]))})
    rep = validate_family(f)
    assert not rep.ok
    bad = [c for c in rep.failing() if c.name.startswith("cocycle")]
    assert bad and bad[0].witness == {"triple": (0, 1, 2)}
    with pytest.raises(ValidationFailure):
        build_double_complex(f, cover)


@pytest.mark.parametrize("q", [QMatrix([[0]]), QMatrix.identity(2), QMatrix([[1, 0]])],
                         ids=["singular", "square_mis_sized", "not_square"])
def test_validate_rejects_bad_fibre_transition_q(q):
    # rank-1 trivial coefficients: Q must be an invertible 1 x 1 matrix;
    # on a filled triangle the edge check names the edge and the cocycle
    # check of its triple is not attempted on mismatched shapes
    cover = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    f = _constant_family(cover, abelian_patch(2),
                         transitions={(0, 1): (QMatrix.identity(2), q)})
    rep = validate_family(f)
    assert not rep.ok
    assert [c.name for c in rep.failing()] == ["transition[0,1]"]
    witness = rep.failing()[0].witness
    assert witness["edge"] == (0, 1) and "transition Q" in witness["reason"]
    with pytest.raises(ValidationFailure):
        build_double_complex(f, cover)


def _counting_validators(monkeypatch):
    calls = []
    for name in ("validate_algebroid", "validate_representation"):
        def counting(obj, _name=name, _real=getattr(covers, name)):
            calls.append((_name, obj))
            return _real(obj)
        monkeypatch.setattr(covers, name, counting)
    return calls


def test_validate_family_checks_a_shared_fibre_once(monkeypatch):
    calls = _counting_validators(monkeypatch)
    f = parse_model(str(MODELS / "circle_family.alab")).families["unipotent"]
    rep = validate_family(f)
    assert rep.ok
    assert [c.name for c in rep.checks[:3]] == ["chart[0]", "chart[1]", "chart[2]"]
    assert [name for name, _ in calls] == ["validate_algebroid"]
    calls.clear()
    a = sl2_patch()
    validate_family(_constant_family(_circle(3), a, adjoint_representation(a)))
    assert [name for name, _ in calls] == ["validate_algebroid", "validate_representation"]


def test_validate_family_names_every_chart_of_a_shared_bad_fibre(monkeypatch):
    # not antisymmetric, so not a Lie algebra; charts 0 and 2 share it
    c = [[[TruncatedPoly.const(0, v, 0) for v in row] for row in plane]
         for plane in ([[0, 0], [0, 0]], [[1, 0], [0, 0]])]
    bad = LieAlgebroidPatch((), 0, 2, [[], []], c)
    calls = _counting_validators(monkeypatch)
    f = LocalSystemFamily(_circle(3), [ChartData(bad), ChartData(abelian_patch(2)),
                                       ChartData(bad)], {})
    checks = validate_family(f).checks[:3]
    assert [(x.name, x.ok, x.witness) for x in checks] == [
        ("chart[0]", False, {"chart": 0}), ("chart[1]", True, None),
        ("chart[2]", False, {"chart": 2})]
    assert len(calls) == 2


def test_validate_family_refuses_a_connection_shaped_for_another_fibre():
    # one connection matrix, for the frame of ab1, on charts of rank 3
    f = _constant_family(_circle(3), abelian_patch(3),
                         trivial_representation(abelian_patch(1), 2))
    with pytest.raises(StructuralError, match="one connection matrix per frame element"):
        validate_family(f)


def _bracket_reference(a, u, v):
    r = a.rank
    return [sum(u[i] * v[j] * a.structure[i][j][k].constant_term()
                for i in range(r) for j in range(r)) for k in range(r)]


def _gamma_reference(cd, u):
    m = cd.rep.rank
    return QMatrix([[sum(u[i] * cd.rep.gammas[i][al][be].constant_term()
                         for i in range(cd.algebra.rank)) for be in range(m)]
                    for al in range(m)])


def _edge_loop_reference(src, dst, p, q):
    """The per-edge loop validate_family used to run: frame pairs a < b,
    then intertwining per frame element; the witness without its edge."""
    r = src.algebra.rank
    units = [[Fraction(int(x == a)) for x in range(r)] for a in range(r)]
    for av, bv in combinations(range(r), 2):
        lhs = p.apply(_bracket_reference(src.algebra, units[av], units[bv]))
        rhs = _bracket_reference(dst.algebra, p.apply(units[av]), p.apply(units[bv]))
        if lhs != rhs:
            return {"pair": (av + 1, bv + 1), "reason": "not a Lie algebra morphism"}
    if src.rep is not None and dst.rep is not None:
        for bv in range(r):
            lhs = q @ _gamma_reference(src, units[bv])
            rhs = _gamma_reference(dst, p.apply(units[bv])) @ q
            if not (lhs - rhs).is_zero():
                return {"frame": bv + 1, "reason": "transition does not intertwine"}
    return None


def _constants(cd):
    structure = [[[e.constant_term() for e in row] for row in plane]
                 for plane in cd.algebra.structure]
    gammas = None if cd.rep is None else [[[e.constant_term() for e in row] for row in g]
                                          for g in cd.rep.gammas]
    return structure, gammas


def _exact_iso_reference(src, dst, p, q):
    """The exact identities the transport certificate used to check on its
    own: brackets over every (a, b, k), intertwining entry by entry."""
    (c0, g0), (ct, gt) = _constants(src), _constants(dst)
    phi, r = p.rows, src.algebra.rank
    for a in range(r):
        for b in range(r):
            for k in range(r):
                lhs = sum(phi[k][x] * c0[a][b][x] for x in range(r))
                rhs = sum(phi[i][a] * phi[j][b] * ct[i][j][k]
                          for i in range(r) for j in range(r))
                if lhs != rhs:
                    return False
    if g0 is not None and gt is not None:
        qr, m = q.rows, src.rep.rank
        for a in range(r):
            moved = [[sum(phi[l][a] * gt[l][x][y] for l in range(r))
                      for y in range(m)] for x in range(m)]
            for x in range(m):
                for y in range(m):
                    if sum(moved[x][z] * qr[z][y] for z in range(m)) != \
                            sum(qr[x][z] * g0[a][z][y] for z in range(m)):
                        return False
    return True


ENTRY = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
NONZERO = st.builds(lambda sign, num, den: Fraction(sign * num, den),
                    st.sampled_from([-1, 1]), st.integers(1, 3), st.integers(1, 3))


def _exp_ad(a, x, s):
    """exp(s ad e_x) = 1 + s ad + s^2/2 ad^2 for an ad e_x with cube zero."""
    ad = QMatrix([[a.structure[x][j][k].constant_term() for j in range(a.rank)]
                  for k in range(a.rank)])
    ad2 = ad @ ad
    return QMatrix([[int(i == j) + s * ad.rows[i][j] + s * s / 2 * ad2.rows[i][j]
                     for j in range(a.rank)] for i in range(a.rank)])


def _invertible(draw, r):
    """A unit lower times an invertible upper triangular r x r matrix."""
    lower = QMatrix([[1 if i == j else draw(ENTRY) if i > j else 0 for j in range(r)]
                     for i in range(r)])
    upper = QMatrix([[draw(NONZERO) if i == j else draw(ENTRY) if i < j else 0
                      for j in range(r)] for i in range(r)])
    return lower @ upper


@st.composite
def _fibre_automorphism(draw, kind, rep_kind):
    """(chart, p, q): p an automorphism of the fibre and q carrying its
    representation to itself along p."""
    if kind == "sl2":
        fib = sl2_patch()
        lam = draw(NONZERO)
        p = QMatrix([[1, 0, 0], [0, lam, 0], [0, 0, 1 / lam]]) \
            @ _exp_ad(fib, 1, draw(ENTRY)) @ _exp_ad(fib, 2, draw(ENTRY))
        if draw(st.booleans()):     # the Weyl element h -> -h, e <-> f
            p = p @ QMatrix([[-1, 0, 0], [0, 0, 1], [0, 1, 0]])
    elif kind == "heisenberg":
        # [e1, e2] = e3: any invertible block on e1, e2, its determinant on e3
        fib = heisenberg_patch()
        (a, b), (c, d) = _invertible(draw, 2).rows
        p = QMatrix([[a, b, 0], [c, d, 0], [draw(ENTRY), draw(ENTRY), a * d - b * c]])
    else:
        fib = abelian_patch(int(kind[-1]))
        p = _invertible(draw, fib.rank)
    if rep_kind == "adjoint":
        return ChartData(fib, adjoint_representation(fib)), p, p
    rep = trivial_representation(fib) if rep_kind == "trivial" else None
    return ChartData(fib, rep), p, QMatrix([[draw(NONZERO)]])


def _bumped(m, data):
    i = data.draw(st.integers(0, m.nrows - 1))
    j = data.draw(st.integers(0, m.ncols - 1))
    rows = m.rows
    rows[i][j] += data.draw(NONZERO)
    return QMatrix(rows)


@pytest.mark.parametrize("rep_kind", ["adjoint", "trivial", None])
@pytest.mark.parametrize("kind", ["sl2", "heisenberg", "abelian2", "abelian3"])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_morphism_check_agrees_with_both_references(kind, rep_kind, data):
    cd, p, q = data.draw(_fibre_automorphism(kind, rep_kind))
    assert _morphism_failure(cd, cd, p, q) is None
    assert _edge_loop_reference(cd, cd, p, q) is None
    assert _exact_iso_reference(cd, cd, p, q)
    how = data.draw(st.sampled_from(["scale_p", "bump_p", "bump_q"]))
    if how == "scale_p":
        lam = data.draw(NONZERO.filter(lambda v: v != 1))
        p = QMatrix([[lam * v for v in row] for row in p.rows])
    elif how == "bump_p":
        p = _bumped(p, data)
    else:
        q = _bumped(q, data)
    got = _morphism_failure(cd, cd, p, q)
    assert got == _edge_loop_reference(cd, cd, p, q)
    assert (got is None) == _exact_iso_reference(cd, cd, p, q)
    # a rescaled automorphism breaks a nonzero bracket; on sl2 only scalars
    # commute with the adjoint action, so no bumped q intertwines it
    if (how == "scale_p" and not kind.startswith("abelian")) or \
            (how == "bump_q" and kind == "sl2" and rep_kind == "adjoint"):
        assert got is not None


def test_morphism_check_covers_every_ordered_pair():
    # not antisymmetric: [e2, e1] = e1 but [e1, e2] = 0, so diag(1, 2)
    # keeps the pair (1, 2) and breaks only the pair (2, 1)
    c = [[[TruncatedPoly.const(0, v, 0) for v in row] for row in plane]
         for plane in ([[0, 0], [0, 0]], [[1, 0], [0, 0]])]
    cd, p = ChartData(LieAlgebroidPatch((), 0, 2, [[], []], c)), QMatrix([[1, 0], [0, 2]])
    assert _edge_loop_reference(cd, cd, p, None) is None
    assert not _exact_iso_reference(cd, cd, p, None)
    assert _morphism_failure(cd, cd, p, None) == \
        {"pair": (2, 1), "reason": "not a Lie algebra morphism"}


def test_pages_compute_a_shared_fibre_cohomology_once(monkeypatch):
    calls = []
    lac = covers.lie_algebra_cohomology

    def counting(a, rho=None):
        calls.append((a, rho))
        return lac(a, rho)

    monkeypatch.setattr(covers, "lie_algebra_cohomology", counting)
    twist = (QMatrix([[1, 1], [0, 1]]), QMatrix([[1]]))
    f = _constant_family(_circle(3), abelian_patch(2), transitions={(0, 2): twist})
    rep = ss_pages(build_double_complex(f, f.cover))
    assert rep.e2_ok and rep.convergence_ok and rep.total_betti == [1, 2, 2, 1]
    assert len(calls) == 1


def test_cochain_transport_identity_and_composition():
    a = sl2_patch()
    from algebroidlab.cohomology import CEComplex
    cx = CEComplex(a, None)
    basis2 = cx.window_basis(2, 0)
    ident = QMatrix.identity(3)
    t = cochain_transport(ident, QMatrix([[1]]), basis2, basis2)
    assert (t - QMatrix.identity(len(basis2))).is_zero()
    lam = Fraction(2)
    p = QMatrix([[1, 0, 0], [0, lam, 0], [0, 0, 1 / lam]])
    t1 = cochain_transport(p, QMatrix([[1]]), basis2, basis2)
    t2 = cochain_transport(p.inverse(), QMatrix([[1]]), basis2, basis2)
    assert ((t1 @ t2) - QMatrix.identity(len(basis2))).is_zero()


def _cofactor_det(rows, one=Fraction(1)):
    """Laplace expansion along the first row, unmemoized; the oracle for
    ratpoly.minors over the ring with unit one."""
    if not rows:
        return one
    acc = one - one
    for j, v in enumerate(rows[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            term = v * _cofactor_det(minor, one)
            acc = acc - term if j % 2 else acc + term
    return acc


def _all_minors_agree(m, one):
    """Every minor of m from one table against the cofactor oracle, queried
    largest first so the smaller ones are read back from the memo."""
    minor = minors(m, one)
    nrows, ncols = len(m), len(m[0]) if m else 0
    singular = 0
    for k in reversed(range(min(nrows, ncols) + 1)):
        for rows in combinations(range(nrows), k):
            for cols in combinations(range(ncols), k):
                want = _cofactor_det([[m[r][c] for c in cols] for r in rows], one)
                got = minor(rows, cols)
                assert got == want, (m, rows, cols)
                assert type(got) is type(one)
                singular += not want
    return singular


def test_det_matches_cofactor_expansion():
    rng = random.Random(60221)
    cases = [[]]
    for k in range(1, 7):
        for _ in range(25):
            m = [[Fraction(rng.randrange(-4, 5), rng.choice((1, 1, 2, 3)))
                  if rng.random() < 0.7 else Fraction(0) for _ in range(k)]
                 for _ in range(k)]
            cases.append(m)
            if k > 1:
                dup = [row[:] for row in m]          # singular: proportional rows
                c = rng.choice((Fraction(1), Fraction(-1, 2), Fraction(3)))
                dup[rng.randrange(1, k)] = [c * v for v in dup[0]]
                cases.append(dup)
                zero = [row[:] for row in m]         # singular: zero row
                zero[rng.randrange(k)] = [Fraction(0)] * k
                cases.append(zero)
    for nrows, ncols in ((2, 5), (4, 3), (3, 6)):    # rectangular: row/column subsets
        cases.append([[Fraction(rng.randrange(-3, 4)) for _ in range(ncols)]
                      for _ in range(nrows)])
    singular = 0
    for m in cases:
        if len(m) <= 4 or len(m) != len(m[0]):
            singular += _all_minors_agree(m, Fraction(1))
        else:                                        # the full determinant only
            full = tuple(range(len(m)))
            want = _cofactor_det(m)
            assert minors(m, Fraction(1))(full, full) == want, m
            singular += want == 0
    assert singular > 100
    swap = minors([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], Fraction(1))
    assert swap((0, 1), (0, 1)) == -1 and swap((), ()) == 1


def test_polynomial_minors_match_cofactor_expansion_and_evaluation():
    rng = random.Random(1729)
    one = TruncatedPoly.const(2, 1)

    def entry():
        if rng.random() < 0.35:
            return TruncatedPoly.zero(2)
        return TruncatedPoly(2, {(rng.randrange(2), rng.randrange(2)): rng.randrange(-3, 4),
                                 (0, 0): Fraction(rng.randrange(-2, 3), rng.choice((1, 2)))})

    cases = [[[TruncatedPoly.zero(2)] * 3 for _ in range(3)]]
    for nrows, ncols in ((1, 1), (2, 2), (3, 3), (2, 4), (4, 3), (4, 4)):
        for _ in range(3):
            m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            cases.append(m)
            sing = [row[:] for row in m]             # singular: a multiple of row 0
            sing[-1] = [TruncatedPoly.var(2, 0) * e for e in m[0]]
            cases.append(sing)
    singular = sum(_all_minors_agree(m, one) for m in cases)
    assert singular > 20
    # evaluation is a ring map: polynomial minors evaluate to rational minors
    for m in cases[1:]:
        pt = (Fraction(rng.randrange(-3, 4), 2), Fraction(rng.randrange(-3, 4), 3))
        pminor = minors(m, one)
        qminor = minors([[e.evaluate(pt) for e in row] for row in m], Fraction(1))
        k = min(len(m), len(m[0]))
        rows, cols = tuple(range(k)), tuple(range(len(m[0]) - k, len(m[0])))
        assert pminor(rows, cols).evaluate(pt) == qminor(rows, cols)


def test_inner_automorphism_acts_trivially_on_top_cohomology():
    a = sl2_patch()
    lam = Fraction(5)
    p = QMatrix([[1, 0, 0], [0, lam, 0], [0, 0, 1 / lam]])
    from algebroidlab.cohomology import CEComplex
    cx = CEComplex(a, None)
    basis3 = cx.window_basis(3, 0)
    t = cochain_transport(p, QMatrix([[1]]), basis3, basis3)
    assert (t - QMatrix.identity(1)).is_zero()


# -- double complex ----------------------------------------------------------------------


def test_one_chart_collapses_to_fibre_cohomology():
    cover = CoverDatum(("U",))
    f = _constant_family(cover, sl2_patch())
    dc = build_double_complex(f, cover)
    assert dc.total_betti() == [1, 0, 0, 1]


def test_circle_times_line_kunneth():
    # fibre = abelian of rank 1: total cohomology of the product with the circle
    f = _constant_family(_circle(3), abelian_patch(1))
    dc = build_double_complex(f, _circle(3))
    assert dc.total_betti() == [1, 2, 1]


def test_circle_times_plane_kunneth():
    f = _constant_family(_circle(3), abelian_patch(2))
    dc = build_double_complex(f, _circle(3))
    assert dc.total_betti() == [1, 3, 3, 1]


def test_circle_unipotent_twist_wang_count():
    g = QMatrix([[1, 1], [0, 1]])
    f = _constant_family(_circle(3), abelian_patch(2),
                         transitions={(1, 2): (g, QMatrix([[1]]))})
    dc = build_double_complex(f, _circle(3))
    betti = dc.total_betti()
    assert betti[1] == 2
    assert betti == [1, 2, 2, 1]


def test_filled_triangle_is_contractible():
    cover = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    f = _constant_family(cover, abelian_patch(2))
    dc = build_double_complex(f, cover)
    assert dc.total_betti() == [1, 2, 1, 0, 0]


def test_filled_triangle_pure_gauge_twist():
    cover = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    v = [QMatrix.identity(2), QMatrix([[2, 1], [1, 1]]), QMatrix([[0, 1], [-1, 3]])]
    trans = {}
    for (i, j) in cover.overlaps:
        trans[(i, j)] = (v[i] @ v[j].inverse(), QMatrix([[1]]))
    f = _constant_family(cover, abelian_patch(2), transitions=trans)
    assert validate_family(f).ok
    dc = build_double_complex(f, cover)
    assert dc.total_betti() == [1, 2, 1, 0, 0]


# -- spectral sequence --------------------------------------------------------------------


def test_ss_one_chart():
    cover = CoverDatum(("U",))
    f = _constant_family(cover, sl2_patch())
    rep = ss_pages(build_double_complex(f, cover), r_max=3)
    assert rep.convergence_ok and rep.e2_ok
    assert rep.e_infinity.get((0, 0), 0) == 1
    assert rep.e_infinity.get((0, 3), 0) == 1
    assert sum(rep.e_infinity.values()) == 2


def test_ss_circle_identity_degenerates_at_two():
    f = _constant_family(_circle(3), abelian_patch(2))
    rep = ss_pages(build_double_complex(f, _circle(3)), r_max=3)
    assert rep.convergence_ok and rep.e2_ok
    page2 = {k: v for k, v in rep.pages[2].dims.items() if v}
    assert page2 == {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 2, (0, 2): 1, (1, 2): 1}
    assert rep.pages[2].dims == rep.e_infinity
    assert all(v == 0 for v in rep.pages[2].d_ranks.values())


def test_ss_unipotent_pages():
    g = QMatrix([[1, 1], [0, 1]])
    f = _constant_family(_circle(3), abelian_patch(2),
                         transitions={(1, 2): (g, QMatrix([[1]]))})
    rep = ss_pages(build_double_complex(f, _circle(3)), r_max=3)
    assert rep.convergence_ok and rep.e2_ok
    assert rep.total_betti == [1, 2, 2, 1]
    page2 = {k: v for k, v in rep.pages[2].dims.items() if v}
    assert page2 == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1, (1, 2): 1}


def test_ss_graph_bases_degenerate_at_two():
    # nerves without triangles have two columns, so the second differential
    # must vanish and the second page equals the terminal one
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randint(2, 4)
        cover = _circle(n) if rng.random() < 0.5 and n >= 3 else _interval(n)
        fib = abelian_patch(rng.randint(1, 2))
        f = _constant_family(cover, fib)
        rep = ss_pages(build_double_complex(f, cover), r_max=2)
        assert rep.pages[2].dims == rep.e_infinity
        assert all(v == 0 for v in rep.pages[2].d_ranks.values())


def _random_family(rng):
    """Random cover and matching local system, small enough for exactness."""
    shape = rng.choice(["interval", "circle", "tree", "triangle"])
    if shape == "interval":
        cover = _interval(rng.randint(2, 4))
    elif shape == "circle":
        cover = _circle(rng.randint(3, 5))
    elif shape == "tree":
        n = rng.randint(3, 5)
        overlaps = tuple(sorted((rng.randint(0, i - 1), i) for i in range(1, n)))
        cover = CoverDatum(tuple(f"U{i}" for i in range(n)), overlaps)
    else:
        cover = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    kind = rng.choice(["abelian", "sl2", "heisenberg"])
    if kind == "abelian":
        fib = abelian_patch(rng.randint(1, 3))
    elif kind == "sl2":
        fib = sl2_patch()
    else:
        fib = heisenberg_patch()

    def rand_aut():
        if kind == "abelian":
            while True:
                m = [[Fraction(rng.randint(-2, 2)) for _ in range(fib.rank)]
                     for _ in range(fib.rank)]
                q = QMatrix(m)
                if q.rank() == fib.rank:
                    return q
        if kind == "sl2":
            lam = Fraction(rng.choice([1, 2, 3, -1]))
            return QMatrix([[1, 0, 0], [0, lam, 0], [0, 0, 1 / lam]])
        aa, bb = Fraction(rng.choice([1, 2, -1])), Fraction(rng.choice([1, 3]))
        return QMatrix([[aa, 0, 0], [0, bb, 0], [0, 0, aa * bb]])

    trans = {}
    if cover.triples:
        gauges = [rand_aut() for _ in cover.charts]
        qg = [Fraction(rng.choice([1, 2, 3])) for _ in cover.charts]
        for (i, j) in cover.overlaps:
            trans[(i, j)] = (gauges[i] @ gauges[j].inverse(),
                             QMatrix([[qg[i] / qg[j]]]))
    else:
        for (i, j) in cover.overlaps:
            if rng.random() < 0.7:
                trans[(i, j)] = (rand_aut(), QMatrix([[Fraction(rng.choice([1, 2]))]]))
    f = _constant_family(cover, fib, transitions=trans)
    return cover, f


# -- page oracle --------------------------------------------------------------------------

# Every page term as an explicit subquotient of the total complex: a fresh
# kernel for each (r, p, n).  Slow, but it shares nothing with the
# filtration-ordered reduction in ss_pages.


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
        drows = self.dc.total_matrix(n).rows          # a dense read-out: read it once
        # rows of the image that must vanish: columns below p + r
        con_rows = []
        if r >= 0 and n + 1 <= self.n_top:
            allowed = set(self._column_mask(n + 1, max(p + r, 0)))
            con_rows = [rr for rr in self._column_mask(n + 1, 0) if rr not in allowed]
        sub = QMatrix([[drows[rr][cc] for cc in support] for rr in con_rows],
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
            ech.add(_sparse(v))
        if n - 1 >= 0:
            dmat = self.dc.total_matrix(n - 1)
            for v in self.a_basis(r - 1, p - r + 1, n - 1):
                ech.add(_sparse(dmat.apply(v)))
        return ech

    def page_dim(self, r: int, p: int, q: int) -> int:
        n = p + q
        if q < 0 or p < 0 or p > self.p_top or q > self.dc.q_max:
            return 0
        z = self.a_basis(r, p, n)
        if not z:
            return 0
        bnd = self.boundary_span(r, p, n)
        return sum(bnd.add(_sparse(v)) is not None for v in z)

    def d_rank(self, r: int, p: int, q: int) -> int:
        """Rank of the induced page differential out of (p, q), for a
        position (p, q) where the page does not vanish."""
        tp, tq = p + r, q - r + 1
        if tq < 0 or tp > self.p_top:
            return 0
        n = p + q
        dmat = self.dc.total_matrix(n)
        bnd = self.boundary_span(r, tp, n + 1)
        return sum(bnd.add(_sparse(dmat.apply(v))) is not None for v in self.a_basis(r, p, n))



def _oracle_pages(dc: CechDoubleComplex, r_top: int):
    eng = _Staircase(dc)
    grid = [(p, q) for p in range(eng.p_top + 1) for q in range(dc.q_max + 1)]
    out = []
    for r in range(r_top + 1):
        dims = {(p, q): eng.page_dim(r, p, q) for p, q in grid}
        ranks = {(p, q): eng.d_rank(r, p, q) if dims[(p, q)] else 0 for p, q in grid}
        out.append((dims, ranks))
    return out


def _assert_pages_match_oracle(dc):
    rep = ss_pages(dc, r_max=dc.p_max() + dc.q_max + 2)
    assert len(rep.pages) > rep.stable_from
    oracle = _oracle_pages(dc, rep.stable_from)
    for page, (dims, ranks) in zip(rep.pages, oracle):
        assert page.dims == dims, page.r
        assert page.d_ranks == ranks, page.r
    assert rep.e_infinity == oracle[rep.stable_from][0]
    return rep


def test_random_double_complexes_certificates():
    # pages against the subquotient oracle, total cohomology and the
    # simplicial second page, every instance
    rng = random.Random(991)
    for _ in range(32):
        cover, f = _random_family(rng)
        rep = _assert_pages_match_oracle(build_double_complex(f, cover))
        assert rep.convergence_ok
        assert rep.e2_ok


def test_pages_match_oracle_on_twisted_circles():
    from algebroidlab.algebroid import adjoint_representation
    lam = Fraction(2)
    p = QMatrix([[1, 0, 0], [0, lam, 0], [0, 0, 1 / lam]])
    cover = _circle(4)
    g = sl2_patch()
    # an automorphism of sl2 intertwines the adjoint action through itself
    f = LocalSystemFamily(cover, [ChartData(g, adjoint_representation(g))
                                  for _ in cover.charts], {(0, 1): (p, p)})
    assert validate_family(f).ok
    rep = _assert_pages_match_oracle(build_double_complex(f, cover))
    assert rep.convergence_ok and rep.e2_ok
    u = QMatrix([[1, 1], [0, 1]])
    f = _constant_family(_circle(5), abelian_patch(2),
                         transitions={(1, 2): (u, QMatrix([[1]])),
                                      (0, 4): (u, QMatrix([[2]]))})
    rep = _assert_pages_match_oracle(build_double_complex(f, _circle(5)))
    assert rep.convergence_ok and rep.e2_ok


def test_filtration_columns_reduce_alike_in_both_engines(monkeypatch):
    """The columns of every total differential of sl2 with its adjoint
    representation on a twisted circle of 8 charts are accepted at the same
    partners by the fraction-free Echelon and by the Fraction oracle."""
    fed = []

    def twin(dim, rows):
        rows = list(rows)
        fed.append(len(rows))
        return compare_engines(dim, rows)

    g = sl2_patch()
    cover = _circle(8)
    twists = {(0, 1): Fraction(2), (3, 4): Fraction(-3, 5), (0, 7): Fraction(7, 2)}
    f = LocalSystemFamily(cover, [ChartData(g, adjoint_representation(g)) for _ in cover.charts],
                          {edge: (p, p) for edge, lam in twists.items()
                           for p in [QMatrix([[1, 0, 0], [0, lam, 0], [0, 0, 1 / lam]])]})
    assert validate_family(f).ok
    dc = build_double_complex(f, cover)
    monkeypatch.setattr(covers, "persistence_pairs", twin)
    rep = ss_pages(dc, r_max=3)
    assert rep.convergence_ok and rep.e2_ok
    assert len(fed) == 5 and sum(fed) > 300, fed


def test_sphere_cover_two_dimensional_nerve():
    # total cohomology is H*(S^2) (x) H*(fibre)
    cover = _sphere()
    assert nerve(cover).dim() == 2
    cases = [(abelian_patch(1), {}, [1, 1, 1, 1]),
             (abelian_patch(2), {}, [1, 2, 2, 2, 1]),
             (sl2_patch(), {}, [1, 0, 1, 1, 0, 1])]
    # a twisted draw: gauge transitions satisfy the cocycle on every triple
    gauges = [QMatrix.identity(2), QMatrix([[2, 1], [1, 1]]),
              QMatrix([[0, 1], [-1, 3]]), QMatrix([[1, -1], [1, 1]])]
    scales = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)]
    cases.append((abelian_patch(2),
                  {(i, j): (gauges[i] @ gauges[j].inverse(),
                            QMatrix([[scales[i] / scales[j]]]))
                   for (i, j) in cover.overlaps},
                  [1, 2, 2, 2, 1]))
    for fibre, trans, total in cases:
        f = _constant_family(cover, fibre, transitions=trans)
        assert validate_family(f).ok
        rep = _assert_pages_match_oracle(build_double_complex(f, cover))
        assert rep.convergence_ok and rep.e2_ok
        assert rep.total_betti == total


# -- the total-square certificate ----------------------------------------------------------


def _named_identity_fails(dc, message: str, p: int, q: int) -> bool:
    """The block product of the identity a failure names, at its source."""
    vert, delta = dc.vert, dc.delta
    if message == "vertical differential does not square to zero":
        return not (vert[(p, q + 1)] @ vert[(p, q)]).is_zero()
    if message == "face sum does not square to zero":
        return not (delta[(p + 1, q)] @ delta[(p, q)]).is_zero()
    assert message == "differentials do not commute", message
    return not ((vert[(p + 1, q)] @ delta[(p, q)])
                - (delta[(p, q + 1)] @ vert[(p, q)])).is_zero()


def test_verify_complex_names_a_failing_block_identity():
    triangle = CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))
    corruptions = [(sl2_patch(), "vert", (0, 0)), (sl2_patch(), "vert", (1, 1)),
                   (abelian_patch(2), "vert", (1, 0)), (abelian_patch(2), "delta", (0, 1)),
                   (abelian_patch(2), "delta", (1, 0)), (sl2_patch(), "delta", (0, 2))]
    rng = random.Random(7)
    named = set()
    for fibre, which, key in corruptions:
        dc = build_double_complex(_constant_family(triangle, fibre), triangle)
        blocks = getattr(dc, which)
        block = blocks[key]
        rows_with_bump = block.rows
        rows_with_bump[rng.randrange(block.nrows)][rng.randrange(block.ncols)] += 1
        blocks[key] = QMatrix(rows_with_bump, block.ncols)
        dc._total.clear()
        with pytest.raises(ValidationFailure) as ei:
            _verify_complex(dc)
        message, witness = str(ei.value), ei.value.witness
        assert witness["kind"] == "not_complex"
        assert _named_identity_fails(dc, message, *witness["at"]), (which, key, message)
        named.add(message)
    assert len(named) == 3, named


# -- localization ------------------------------------------------------------------------


def test_localization_interval_injective_via_tree():
    f = _constant_family(_interval(2), abelian_patch(1))
    rep = localization_check(f, _interval(2), chart=0, n=1)
    assert rep.verdict == "injective"
    assert rep.branch == "c2"
    assert rep.kernel_dim == 0
    assert rep.total_dim == 1


def test_localization_circle_adjoint_vacuous():
    g = sl2_patch()
    f = LocalSystemFamily(_circle(3),
                          [ChartData(sl2_patch(), _adjoint_chart()) for _ in range(3)])
    rep = localization_check(f, _circle(3), chart=0, n=1)
    assert rep.verdict == "injective"
    assert rep.branch == "c1"
    assert rep.total_dim == 0


def _adjoint_chart():
    from algebroidlab.algebroid import adjoint_representation
    return adjoint_representation(sl2_patch())


def test_localization_hypotheses_unmet_on_circle(monkeypatch):
    def no_build(*args):
        raise AssertionError("built the double complex with unmet hypotheses")

    monkeypatch.setattr(covers, "build_double_complex", no_build)
    f = _constant_family(_circle(3), abelian_patch(1))
    rep = localization_check(f, _circle(3), chart=0, n=1)
    assert rep.verdict == "hypotheses unmet"
    assert rep.total_dim is None
    assert not rep.hypotheses["top_minus_one_vanishes"]
    assert not rep.hypotheses["simply_connected"]


def test_localization_user_asserted_simply_connected():
    cover = CoverDatum(("A", "B", "C"),
                       ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),),
                       simply_connected=True)
    f = _constant_family(cover, abelian_patch(1))
    rep = localization_check(f, cover, chart=1, n=1)
    assert rep.verdict == "injective"
    assert rep.branch == "c2"


def test_localization_randomized_trees_and_adjoint_circles():
    rng = random.Random(424243)
    qualified = 0
    for _ in range(24):
        if rng.random() < 0.5:
            n_charts = rng.randint(2, 5)
            overlaps = tuple(sorted((rng.randint(0, i - 1), i)
                                    for i in range(1, n_charts)))
            cover = CoverDatum(tuple(f"U{i}" for i in range(n_charts)), overlaps)
            fib = abelian_patch(rng.randint(1, 2))
            f = _constant_family(cover, fib)
            rep = localization_check(f, cover, chart=rng.randint(0, n_charts - 1), n=1)
        else:
            cover = _circle(rng.randint(3, 4))
            f = LocalSystemFamily(cover, [ChartData(sl2_patch(), _adjoint_chart())
                                          for _ in cover.charts])
            rep = localization_check(f, cover, chart=0, n=rng.randint(1, 2))
        assert rep.verdict in ("injective", "hypotheses unmet")
        if rep.verdict == "injective":
            qualified += 1
            assert rep.kernel_dim == 0
    assert qualified >= 20


def _restriction_reference(dc, lc, chart, n):
    """(total_dim, kernel_dim) by restricting total classes to one chart,
    the computation localization_check made before it counted filtration
    pairs: total cocycles modulo D_{n-1}, then the chart component of the
    (0, n) block modulo the chart coboundaries."""
    boundaries = dc.total_matrix(n - 1).transpose().echelon() if n > 0 \
        else Echelon(dc.total_dim(n))
    total_dim, total_reps = quotient_dim_and_reps(dc.total_matrix(n).echelon().kernel(),
                                                  boundaries)
    own = [i for i, (alpha, _) in enumerate(dc.bases.get((0, n), [])) if alpha == (chart,)]
    restricted = [{k: v[i] for k, i in enumerate(own) if v[i]} for v in total_reps]
    fib_b = lc.matrices[n - 1].transpose().echelon() if 0 < n <= len(lc.matrices) \
        else Echelon(len(own))
    return total_dim, total_dim - sum(fib_b.add(v) is not None for v in restricted)


def _twisted_circle(n_charts, scale, simply_connected=None):
    """Rank-1 abelian fibre on a circle, its frame scaled by `scale` across
    the closing overlap: degree-1 fibre classes pick up the twist."""
    cover = CoverDatum(_circle(n_charts).charts, _circle(n_charts).overlaps,
                       simply_connected=simply_connected)
    return cover, _constant_family(
        cover, abelian_patch(1),
        transitions={(0, n_charts - 1): (QMatrix([[scale]]), QMatrix([[1]]))})


def test_localization_counts_match_the_restriction_reference():
    rng = random.Random(20260415)
    families = [_random_family(rng) for _ in range(30)]
    families += [_twisted_circle(n, s, sc) for n in (3, 4) for s in (1, 2)
                 for sc in (None, True)]
    nonzero = met_nonzero = 0
    for cover, f in families:
        dc = build_double_complex(f, cover)
        lcs = dc.chart_cohomology
        for chart in range(len(cover.charts)):
            for n in range(dc.p_max() + dc.q_max + 2):
                ref = _restriction_reference(dc, lcs[chart], chart, n)
                unpaired = covers._unpaired_columns(dc, n)
                assert (len(unpaired), sum(p >= 1 for p in unpaired)) == ref
                nonzero += ref[1] > 0
                rep = localization_check(f, cover, chart, n)
                if rep.verdict != "hypotheses unmet":
                    assert (rep.total_dim, rep.kernel_dim) == ref
                    met_nonzero += ref[1] > 0
    assert nonzero >= 20 and met_nonzero >= 4


def test_a_cover_other_than_the_familys_is_refused():
    f = _constant_family(_circle(3), abelian_patch(1))
    for other in (CoverDatum(("U0", "U1", "U2"), ((0, 1),)), _interval(4), _interval(3)):
        with pytest.raises(StructuralError, match="cover disagrees with the family's cover"):
            build_double_complex(f, other)
        with pytest.raises(StructuralError, match="cover disagrees with the family's cover"):
            localization_check(f, other, chart=0, n=1)


def test_e2_oracle_standalone():
    f = _constant_family(_circle(3), abelian_patch(1))
    dc = build_double_complex(f, _circle(3))
    oracle = e2_simplicial_oracle(f, dc)
    assert oracle == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
