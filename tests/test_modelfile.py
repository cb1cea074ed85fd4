"""Model file parsing: happy paths, diagnostics, shipped fixtures."""

from fractions import Fraction
from pathlib import Path

import pytest

from algebroidlab.errors import StructuralError
from algebroidlab.algebroid import validate_algebroid, validate_representation
from algebroidlab.cohomology import cohomology
from algebroidlab.covers import validate_family
from algebroidlab.modelfile import ModelError, parse_model, parse_model_text
from algebroidlab.transport import validate_path_family

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_minimal_abelian_parses():
    m = parse_model_text("version 1\nalgebroid a {\n  rank = 1\n}\n")
    a = m.algebroids["a"]
    assert a.rank == 1 and a.n_vars == 0
    assert validate_algebroid(a).ok


def test_dangling_reference_reported_with_position():
    text = "version 1\nrepresentation r {\n  of = ghost\n  rank = 1\n}\n"
    with pytest.raises(ModelError) as exc:
        parse_model_text(text, "m.alab")
    assert "undefined algebroid 'ghost'" in str(exc.value)
    assert exc.value.line == 3
    assert exc.value.col == 8


def test_version_line_required_and_checked():
    with pytest.raises(ModelError, match="version"):
        parse_model_text("algebroid a {\n rank = 1\n}\n")
    with pytest.raises(ModelError, match="not supported"):
        parse_model_text("version 7\n")
    with pytest.raises(ModelError, match="empty file"):
        parse_model_text("# only a comment\n")


def test_unknown_key_rejected():
    text = "version 1\nalgebroid a {\n  rank = 1\n  colour = blue\n}\n"
    with pytest.raises(ModelError) as exc:
        parse_model_text(text, "m.alab")
    assert "unknown key 'colour'" in str(exc.value)
    assert exc.value.line == 4


def test_syntax_error_positions():
    with pytest.raises(ModelError) as exc:
        parse_model_text("version 1\nalgebroid a {\n  rank == 1\n}\n")
    assert exc.value.line == 3
    with pytest.raises(ModelError, match="never closed"):
        parse_model_text("version 1\nalgebroid a {\n  rank = 1\n")
    with pytest.raises(ModelError, match="outside any section"):
        parse_model_text("version 1\n}\n")


def test_bad_polynomial_points_into_the_value():
    text = "version 1\nalgebroid a {\n  vars = x\n  rank = 1\n  anchor[0] = x +\n}\n"
    with pytest.raises(ModelError) as exc:
        parse_model_text(text, "m.alab")
    assert exc.value.line == 5
    assert exc.value.col >= 15          # inside the value, not the key


def test_bracket_indices_validated():
    text = "version 1\nalgebroid a {\n  rank = 2\n  bracket[1][0] = 0, 0\n}\n"
    with pytest.raises(ModelError, match="i < j"):
        parse_model_text(text)
    text = "version 1\nalgebroid a {\n  rank = 2\n  bracket[0][1] = 1\n}\n"
    with pytest.raises(ModelError, match="needs 2 entries"):
        parse_model_text(text)


def test_duplicate_names_and_keys():
    with pytest.raises(ModelError, match="duplicate section name"):
        parse_model_text("version 1\nalgebroid a {\n rank = 1\n}\n"
                         "cover a {\n charts = U\n}\n")
    with pytest.raises(ModelError, match="duplicate key"):
        parse_model_text("version 1\nalgebroid a {\n rank = 1\n rank = 2\n}\n")


def test_antisymmetry_filled_in():
    m = parse_model_text(
        "version 1\nalgebroid g {\n  rank = 2\n  bracket[0][1] = 1, 0\n}\n")
    g = m.algebroids["g"]
    assert g.structure[0][1][0].constant_term() == 1
    assert g.structure[1][0][0].constant_term() == -1


def test_weighted_patch_round_trip():
    m = parse_model_text(
        "version 1\nalgebroid p {\n  vars = x, y\n  jet_order = 3\n"
        "  rank = 2\n  weights = 1, 2\n  frame_weights = -1, -2\n"
        "  anchor[0] = 1, 0\n  anchor[1] = 0, 1\n}\n")
    p = m.algebroids["p"]
    assert p.weights.weights == (1, 2)
    assert p.frame_weights == (-1, -2)
    assert validate_algebroid(p).ok


def test_family_defaults_identity_transitions():
    text = """version 1
algebroid ab2 {
  rank = 2
}
cover tri {
  charts = U, V, W
  overlaps = (0,1), (0,2), (1,2)
}
family f {
  cover = tri
  fibre[0] = ab2
  fibre[1] = ab2
  fibre[2] = ab2
  transition[0][2] = 1, 1 ; 0, 1
}
"""
    m = parse_model_text(text)
    fam = m.families["f"]
    assert validate_family(fam).ok
    p, q = fam.transitions[(0, 2)]
    assert p.rows == [[1, 1], [0, 1]]
    assert q.rows == [[1]]
    assert (0, 1) not in fam.transitions      # identity left implicit


def test_family_missing_fibre_and_bad_cover():
    base = "version 1\nalgebroid a {\n rank = 1\n}\ncover c {\n charts = U, V\n overlaps = (0,1)\n}\n"
    with pytest.raises(ModelError, match="missing fibre"):
        parse_model_text(base + "family f {\n cover = c\n fibre[0] = a\n}\n")
    with pytest.raises(ModelError, match="undefined cover"):
        parse_model_text("version 1\nalgebroid a {\n rank = 1\n}\n"
                         "family f {\n cover = ghost\n fibre[0] = a\n}\n")


def test_path_family_section():
    text = """version 1
path_family shear {
  rank = 2
  bracket[0][1] = t, 1
  omega = 0, 1 ; 0, 0
}
"""
    m = parse_model_text(text)
    pf = m.path_families["shear"]
    assert pf.rank == 2
    assert validate_path_family(pf).ok
    c = pf.fibre_at(Fraction(1, 2)).algebra.structure
    assert c[0][1][0].constant_term() == Fraction(1, 2) and c[0][1][1].constant_term() == 1


def test_path_family_with_moving_rep():
    text = """version 1
path_family withrep {
  rank = 2
  omega = 0, 1 ; 0, 0
  gamma[0] = 1
  gamma[1] = -t
  omega_rep = 0
}
"""
    pf = parse_model_text(text).path_families["withrep"]
    assert pf.rep_rank == 1
    assert validate_path_family(pf).ok


def test_exhaustion_section_oracles():
    text = """version 1
exhaustion e {
  charts = A, B
  overlaps = (0,1)
  mu[1][0] = prefix 2, 2 ; slope 1 ; offset 2
  mu[0][1] = slope 1 ; offset 2
}
"""
    ep = parse_model_text(text).exhaustions["e"]
    mu10 = ep.oracles[(1, 0)]
    assert [mu10(n) for n in (1, 2, 3, 4)] == [2, 2, 5, 6]
    with pytest.raises(ModelError, match="prefix/slope/offset"):
        parse_model_text(text.replace("slope 1 ; offset 2\n}", "speed 1\n}"))


def test_pick_selection_rules():
    m = parse_model_text("version 1\nalgebroid a {\n rank = 1\n}\n"
                         "algebroid b {\n rank = 2\n}\n")
    assert m.pick("algebroid", "b")[1].rank == 2
    with pytest.raises(StructuralError, match="select one with --name"):
        m.pick("algebroid", None)
    with pytest.raises(StructuralError, match="no algebroid named 'zz'"):
        m.pick("algebroid", "zz")
    single = parse_model_text("version 1\nalgebroid only {\n rank = 1\n}\n")
    assert single.pick("algebroid", None)[0] == "only"


def test_shipped_fixtures_parse_and_validate():
    seen = 0
    for path in sorted(MODELS.glob("*.alab")):
        m = parse_model(str(path))
        for a in m.algebroids.values():
            assert validate_algebroid(a).ok, path
        for r in m.representations.values():
            assert validate_representation(r).ok, path
        for f in m.families.values():
            assert validate_family(f).ok, path
        for pf in m.path_families.values():
            assert validate_path_family(pf).ok, path
        seen += 1
    assert seen >= 5


def test_sl2_demo_cohomology_matches():
    m = parse_model(str(MODELS / "sl2_demo.alab"))
    rep = cohomology(m.algebroids["sl2"])
    betti = [row.betti for row in rep.rows]
    assert betti == [1, 0, 0, 1]
    adj = cohomology(m.algebroids["sl2"], m.representations["adjoint"])
    assert [row.betti for row in adj.rows] == [0, 0, 0, 0]
