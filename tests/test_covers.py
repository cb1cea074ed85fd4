"""Nerves, twisted double complexes, page computations, localization."""

import random
from fractions import Fraction

import pytest

from algebroidlab.algebroid import Representation, trivial_representation
from algebroidlab.covers import (
    ChartData,
    _det,
    CoverDatum,
    LocalSystemFamily,
    build_double_complex,
    cochain_transport,
    e2_simplicial_oracle,
    graph_is_tree,
    localization_check,
    nerve,
    nerve_components,
    ss_pages,
    validate_family,
)
from algebroidlab.cohomology import lie_algebra_cohomology
from algebroidlab.errors import StructuralError, ValidationFailure
from algebroidlab.library import abelian_patch, heisenberg_patch, sl2_patch
from algebroidlab.linalg import QMatrix
from algebroidlab.ratpoly import TruncatedPoly


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


def test_components_and_tree():
    assert nerve_components(_interval(3)) == [[0, 1, 2]]
    assert graph_is_tree(_interval(3))
    assert not graph_is_tree(_circle(3))
    two = CoverDatum(("A", "B", "C"), ((0, 1),))
    assert nerve_components(two) == [[0, 1], [2]]


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


def _cofactor_det(rows):
    """Laplace expansion along the first row; the oracle for covers._det."""
    if not rows:
        return Fraction(1)
    acc = Fraction(0)
    for j, v in enumerate(rows[0]):
        if v:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            acc += (-1) ** j * v * _cofactor_det(minor)
    return acc


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
    singular = 0
    for m in cases:
        want = _cofactor_det(m)
        assert _det(m) == want, m
        assert type(_det(m)) is Fraction
        singular += want == 0
    assert singular > 100
    assert _det([]) == 1
    assert _det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1


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


def test_random_double_complexes_certificates():
    # pages against brute force and the simplicial oracle, every instance
    rng = random.Random(991)
    for _ in range(12):
        cover, f = _random_family(rng)
        dc = build_double_complex(f, cover)
        rep = ss_pages(dc, r_max=3)
        assert rep.convergence_ok
        assert rep.e2_ok


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


def test_localization_hypotheses_unmet_on_circle():
    f = _constant_family(_circle(3), abelian_patch(1))
    rep = localization_check(f, _circle(3), chart=0, n=1)
    assert rep.verdict == "hypotheses unmet"
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


def test_e2_oracle_standalone():
    f = _constant_family(_circle(3), abelian_patch(1))
    dc = build_double_complex(f, _circle(3))
    oracle = e2_simplicial_oracle(f, dc)
    assert oracle == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
