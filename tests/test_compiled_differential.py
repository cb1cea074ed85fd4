"""The compiled differential and the memoized window bases against the
polynomial construction they replace.

The reference routines below build d, the interior contraction and the
weight-filtered window bases the direct way: `TruncatedPoly` products and
derivatives for every element, and a weight filter over the whole window
for every stratum.  The complex must agree with them element by element on
the shipped models, the library patches, the affine patches and on
constant frame changes g in GL(r, Q) of the classical algebras.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from pathlib import Path

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from algebroidlab.algebroid import (LieAlgebroidPatch, adjoint_representation,
                                    trivial_representation, validate_algebroid,
                                    validate_representation)
from algebroidlab.cohomology import (CEComplex, jet_cohomology, lie_algebra_cohomology,
                                     wedge_tuples)
from algebroidlab.library import (abelian_patch, euler_vector_field_patch, heisenberg_patch,
                                  poisson_disc_patch, product_with_tangent, sl2_patch,
                                  tangent_patch)
from algebroidlab.linalg import QMatrix
from algebroidlab.modelfile import parse_model
from algebroidlab.pullback import standard_euler_section
from algebroidlab.ratpoly import TruncatedPoly, monomials_up_to
from test_pullback import _gl2_plane_action, _lift_rep
from test_windowed_cohomology import _affine_patch, _fractional_patches

MODELS = Path(__file__).resolve().parent.parent / "models"
QZERO = F(0)


# -- reference routines -------------------------------------------------------------------


def _reference_shift(cx):
    """Max coefficient-degree increase over every nonzero data entry."""
    degs = [0]
    degs += [e.total_degree() - 1 for row in cx.a.anchor for e in row if e]
    degs += [e.total_degree() for plane in cx.a.structure for col in plane for e in col if e]
    degs += [e.total_degree() for g in cx.rho.gammas for row in g for e in row if e]
    return max(degs)


def _reference_insert_sign(j, wedge):
    """Sign and result of sorting e^j into e^wedge; 0 sign if j is present."""
    if j in wedge:
        return 0, wedge
    return (-1) ** sum(1 for i in wedge if i < j), tuple(sorted(wedge + (j,)))


def _uncapped(cx):
    """Exact copies of the anchor, structure and connection data, free of jet caps."""
    return ([[e.truncate(None) for e in row] for row in cx.a.anchor],
            [[[e.truncate(None) for e in col] for col in plane] for plane in cx.a.structure],
            [[[e.truncate(None) for e in row] for row in g] for g in cx.rho.gammas])


def _reference_d(cx, elem, data):
    """d of one basis element by polynomial arithmetic in the uncapped ring;
    data is `_uncapped(cx)`."""
    mono, wedge, beta = elem
    a, n = cx.a, cx.a.n_vars
    anchor, structure, gammas = data
    poly_mono = TruncatedPoly.monomial(n, mono, 1)
    out = {}

    def add(p, wedge2, beta2, scale):
        if scale == 0 or p.is_zero():
            return
        for m2, v in p.c.items():
            key = (m2, wedge2, beta2)
            s = out.get(key, QZERO) + v * scale
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s

    for j in range(a.rank):
        sign, wedge2 = _reference_insert_sign(j, wedge)
        if sign == 0:
            continue
        deriv = TruncatedPoly.zero(n)
        for l in range(n):
            if not anchor[j][l].is_zero() and mono[l]:
                deriv = deriv + anchor[j][l] * poly_mono.deriv(l)
        add(deriv, wedge2, beta, sign)
        for gamma in range(cx.rho.rank):
            g = gammas[j][gamma][beta]
            if not g.is_zero():
                add(g * poly_mono, wedge2, gamma, sign)
    for pos_k, k in enumerate(wedge):
        rest = wedge[:pos_k] + wedge[pos_k + 1:]
        sigma = (-1) ** pos_k
        for u in range(a.rank):
            if u != k and u in rest:
                continue
            for v in range(u + 1, a.rank):
                if v != k and v in rest:
                    continue
                c_uv_k = structure[u][v][k]
                if c_uv_k.is_zero():
                    continue
                wedge2 = tuple(sorted(rest + (u, v)))
                if len(wedge2) != len(rest) + 2:
                    continue
                pa, pb = wedge2.index(u), wedge2.index(v)
                add(c_uv_k * poly_mono, wedge2, beta, sigma * (-1) ** (pa + pb))
    return out


def _reference_contract(cx, coeffs, elem):
    """Interior product of one basis element with a section, by products."""
    mono, wedge, beta = elem
    poly_mono = TruncatedPoly.monomial(cx.a.n_vars, mono, 1)
    out = {}
    for pos, i in enumerate(wedge):
        if coeffs[i].is_zero():
            continue
        rest = wedge[:pos] + wedge[pos + 1:]
        for m2, v in (coeffs[i].truncate(None) * poly_mono).c.items():
            key = (m2, rest, beta)
            s = out.get(key, QZERO) + v * (-1) ** pos
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _reference_window_basis(cx, q, max_deg, weight=None):
    """The window in canonical order, every element filtered by weight."""
    out = []
    monos = monomials_up_to(cx.a.n_vars, max_deg)
    for wedge in wedge_tuples(cx.a.rank, q):
        for beta in range(cx.rho.rank):
            for mono in monos:
                elem = (mono, wedge, beta)
                if weight is not None and cx.element_weight(elem) != weight:
                    continue
                out.append(elem)
    return out


# -- the comparison ---------------------------------------------------------------------------


def _assert_exact(cochain, want, where):
    """cochain equals the reference and holds Fractions only."""
    assert cochain == want, where
    assert all(type(x) is F for x in cochain.values()), where


def _assert_matches_reference(a, rho=None, max_deg=3, sections=()):
    cx = CEComplex(a, rho)
    assert cx.degree_shift() == _reference_shift(cx), a.name
    data = _uncapped(cx)
    for q in range(a.rank + 1):
        source = cx.window_basis(q, max_deg)
        want = [_reference_d(cx, elem, data) for elem in source]
        for elem, ref in zip(source, want):
            _assert_exact(cx.d_of_element(elem), ref, (a.name, elem))
            for coeffs in sections:
                assert cx.contract_with(coeffs, elem) == _reference_contract(cx, coeffs, elem), \
                    (a.name, elem)
        # d_matrix reads out the same exact d, one column per source element
        target = cx.window_basis(q + 1, max_deg + cx.degree_shift())
        for col, ref in zip(cx.d_matrix(source, target).sparse_columns(), want):
            _assert_exact({target[i]: x for i, x in col.items()}, ref, (a.name, q))
    if a.n_vars == 0:
        lc = lie_algebra_cohomology(a, rho)
        for q, mat in enumerate(lc.matrices):
            target = cx.window_basis(q + 1, 0)
            for elem, col in zip(lc.bases[q], mat.sparse_columns()):
                _assert_exact({target[i]: x for i, x in col.items()},
                              _reference_d(cx, elem, data), (a.name, elem))
    if a.n_vars and a.weights is None:
        return                    # weight buckets need coordinate weights
    for q in range(a.rank + 2):
        for n_deg in (max_deg, 0, max_deg + 1):
            whole = _reference_window_basis(cx, q, n_deg)
            assert cx.window_basis(q, n_deg) == whole
            weights = {cx.element_weight(e) for e in whole}
            for w in sorted(weights) + [max(weights, default=0) + 1]:
                got = cx.window_basis(q, n_deg, w)
                assert got == _reference_window_basis(cx, q, n_deg, w), (a.name, q, n_deg, w)
                got.append(None)          # callers own the list they get
                assert None not in cx.window_basis(q, n_deg, w)


def _section(a, seed):
    """A section with constant and linear coefficients on every frame element."""
    rng = random.Random(seed)
    n = a.n_vars
    coeffs = []
    for _ in range(a.rank):
        p = TruncatedPoly.const(n, F(rng.randint(-3, 3), rng.randint(1, 3)), a.jet_order)
        for l in range(n):
            p = p + TruncatedPoly.var(n, l, a.jet_order).scale(rng.randint(-2, 2))
        coeffs.append(p)
    return coeffs


def _model_patches():
    """Every algebroid of the shipped models with each representation over
    it, and the chart algebras of every family."""
    for path in sorted(MODELS.glob("*.alab")):
        model = parse_model(str(path))
        for a in model.algebroids.values():
            yield a, None
        for rho in model.representations.values():
            yield rho.algebroid, rho
        for fam in model.families.values():
            for chart in fam.charts:
                yield chart.algebra, chart.rep


def test_compiled_differential_matches_reference_on_models():
    seen = 0
    for a, rho in _model_patches():
        _assert_matches_reference(a, rho, max_deg=3, sections=[_section(a, seen)])
        seen += 1
    assert seen >= 6


def test_compiled_differential_matches_reference_on_library_patches():
    sl2, heis = sl2_patch(), heisenberg_patch()
    sl2_y = product_with_tangent(sl2, ("y",), 5, (1,))
    heis_yz = product_with_tangent(heis, ("y", "z"), 4, (1, 2))
    plane = tangent_patch(("x", "y"), 5, (1, 2))
    cases = [
        (sl2, None), (sl2, adjoint_representation(sl2)), (sl2, trivial_representation(sl2, 2)),
        (heis, None), (heis, adjoint_representation(heis)),
        (abelian_patch(3), None),
        (sl2_y, None), (sl2_y, _lift_rep(adjoint_representation(sl2), sl2_y)),
        (heis_yz, None), (plane, None),
        (euler_vector_field_patch(5), None), (poisson_disc_patch(4), None),
    ]
    for a, rho in cases:
        sections = [_section(a, 1)]
        if a.weights is not None and a.n_vars and a.rank >= a.n_vars:
            sections.append(standard_euler_section(a).coeffs)
        _assert_matches_reference(a, rho, max_deg=3, sections=sections)


def test_compiled_differential_matches_reference_on_affine_patches():
    for slopes, jet in (([F(2)], 5), ([F(-1, 2)], 6), ([F(1, 2), F(-3)], 3)):
        a = _affine_patch(slopes, jet)
        _assert_matches_reference(a, None, max_deg=4, sections=[_section(a, 2)])
    # integral patch data: only the connection carries a denominator
    for a, rho in _fractional_patches():
        if rho is not None:
            _assert_matches_reference(a, rho, max_deg=4, sections=[_section(a, 2)])


def test_stratum_basis_is_the_weight_filtered_window():
    for a in (tangent_patch(("x", "y"), 5, (1, 2)),
              product_with_tangent(sl2_patch(), ("y",), 5, (1,))):
        cx = CEComplex(a)
        for q in range(a.rank + 1):
            for w in range(-3, 5):
                assert cx.stratum_basis(q, w) == _reference_window_basis(cx, q, 8, w), \
                    (a.name, q, w)


def test_stratum_basis_weighs_each_basis_element_once(monkeypatch):
    weighed = []
    weigh = CEComplex.element_weight
    monkeypatch.setattr(CEComplex, "element_weight",
                        lambda self, elem: weighed.append(elem) or weigh(self, elem))
    cx = CEComplex(product_with_tangent(sl2_patch(), ("y",), 5, (1,)))
    strata = [[cx.stratum_basis(q, w) for w in range(-3, 5)] for q in range(6)]
    first = len(weighed)
    assert first
    assert [[cx.stratum_basis(q, w) for w in range(-3, 5)] for q in range(6)] == strata
    assert len(weighed) == first


# -- constant frame changes -------------------------------------------------------------------


def _frame_change(a, g):
    """a in the constant frame f_b = sum_i g[i][b] e_i.  Anchors and brackets
    expand bilinearly; bracket components are read back through g^-1."""
    r, n, jet = a.rank, a.n_vars, a.jet_order
    ginv = QMatrix(g).inverse().rows
    zero = TruncatedPoly.zero(n, jet)

    def combine(pairs):
        acc = zero
        for coeff, p in pairs:
            if coeff and p:
                acc = acc + p.scale(coeff)
        return acc

    anchor = [[combine((g[i][b], a.anchor[i][l]) for i in range(r)) for l in range(n)]
              for b in range(r)]
    old = [[[combine((g[i][b] * g[j][c], a.structure[i][j][m])
                     for i in range(r) for j in range(r)) for m in range(r)]
            for c in range(r)] for b in range(r)]
    structure = [[[combine((ginv[k][m], old[b][c][m]) for m in range(r)) for k in range(r)]
                  for c in range(r)] for b in range(r)]
    return LieAlgebroidPatch(a.var_names, jet, r, anchor, structure, weights=a.weights,
                             name=a.name + "'")


def _gl(r):
    """Invertible r x r rational matrices with at least one non-integer entry."""
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.lists(st.lists(entry, min_size=r, max_size=r), min_size=r, max_size=r).filter(
        lambda g: any(x.denominator != 1 for row in g for x in row)
        and QMatrix(g).rank() == r)


BUILDERS = {
    "sl2": lambda seed: sl2_patch(),
    "heisenberg": lambda seed: heisenberg_patch(),
    "abelian": lambda seed: abelian_patch(3),
    "gl2_plane": lambda seed: _gl2_plane_action(random.Random(seed)),
}


# no shrink phase: every example builds whole complexes, and shrinking a
# failure took minutes; the failing example is reported as drawn
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(st.data())
def test_frame_changes_match_reference_and_keep_betti(data):
    name = data.draw(st.sampled_from(sorted(BUILDERS)))
    a = BUILDERS[name](data.draw(st.integers(0, 7)))
    g = data.draw(_gl(a.rank))
    b = _frame_change(a, g)
    rho_a, rho_b = adjoint_representation(a), adjoint_representation(b)
    assert validate_algebroid(b).ok and validate_representation(rho_b).ok
    # the section's constant part is the first column of g
    section = [TruncatedPoly.const(b.n_vars, g[i][0], b.jet_order) + p
               for i, p in enumerate(_section(b, 3))]
    for rho in (None, rho_b):
        _assert_matches_reference(b, rho, max_deg=1, sections=[section])
    # a constant frame change is an isomorphism of complexes that keeps
    # the coefficient degree, so every betti number is unchanged
    if a.n_vars == 0:
        for ra, rb in ((None, None), (rho_a, rho_b)):
            assert lie_algebra_cohomology(b, rb).betti == lie_algebra_cohomology(a, ra).betti
    else:
        want = jet_cohomology(a, None, window=(1, 1, 1)).rows
        got = jet_cohomology(b, None, window=(1, 1, 1)).rows
        assert [r.history for r in got] == [r.history for r in want]
