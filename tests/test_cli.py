"""Command dispatch, report emission, exit taxonomy, determinism."""

import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from algebroidlab import cli
from algebroidlab.cli import main, run_command
from algebroidlab.cohomology import lie_algebra_cohomology
from algebroidlab.errors import LabError, ValidationFailure
from algebroidlab.linalg import QMatrix
from algebroidlab.modelfile import parse_model, parse_model_text
from algebroidlab.transport import TransportResult
from algebroidlab.report import (Report, Table, cell, emit_report,
                                 parse_structured)
from fractions import Fraction
from test_golden_reports import _run

MODELS = Path(__file__).resolve().parent.parent / "models"
SL2 = str(MODELS / "sl2_demo.alab")
PLANE = str(MODELS / "plane_jet.alab")
LINE = str(MODELS / "sl2_line.alab")
CIRCLE = str(MODELS / "circle_family.alab")
PAIR = str(MODELS / "pair_family.alab")
EXH = str(MODELS / "exhaustion_pair.alab")


def run(argv, capsysbinary):
    code = main(argv)
    return code, capsysbinary.readouterr().out


# ------------------------------------------------------------- emission

def test_cell_rendering():
    assert cell(None) == "-"
    assert cell(True) == "yes" and cell(False) == "no"
    assert cell(Fraction(3, 2)) == "3/2"
    assert cell(Fraction(4, 2)) == "2"
    assert cell(7) == "7"
    assert cell((1, Fraction(1, 3))) == "1, 1/3"


def test_empty_report_text_is_header_only():
    out = emit_report(Report("check demo"), "text")
    assert out == b"== algebroidlab check demo\n"


def test_csv_one_row_per_table_row():
    r = Report("cohomology demo", verdict="pass")
    t = r.table("betti", ("degree", "weight", "betti"))
    t.add(0, 0, 1)
    t.add(1, 2, 3)
    out = emit_report(r, "csv").decode()
    lines = out.splitlines()
    assert lines[0] == "command,cohomology demo"
    assert lines[2] == "table,betti"
    assert lines[4] == "0,0,1"
    assert lines[5] == "1,2,3"


def test_structured_round_trip():
    r = Report("transport demo", verdict="pass",
               notes=["loop 0 -> 1"], witnesses=[{"q": "1/3", "deg": 2}])
    t = r.table("frame", ("row", "entries"))
    t.add(0, (Fraction(1), Fraction(-1, 2)))
    data = emit_report(r, "structured")
    back = parse_structured(data)
    assert back == r
    assert back.tables[0].rows == [("0", "1, -1/2")]


def test_unknown_format_rejected():
    from algebroidlab.errors import StructuralError
    with pytest.raises(StructuralError, match="unknown format"):
        emit_report(Report("x"), "yaml")


def test_table_width_checked():
    from algebroidlab.errors import StructuralError
    with pytest.raises(StructuralError, match="row width"):
        Table("t", ("a", "b"), [("1",)])


# ------------------------------------------------------------- commands

def test_check_valid_file_exits_zero(capsysbinary):
    code, out = run(["check", SL2], capsysbinary)
    assert code == 0
    assert b"verdict: pass" in out


def test_check_reports_broken_axioms(tmp_path, capsysbinary):
    bad = tmp_path / "bad.alab"
    # [e1,e2] = e1 and [e1,e3] = e3 break the Jacobi identity
    bad.write_text("version 1\nalgebroid g {\n  rank = 3\n"
                   "  bracket[0][1] = 1, 0, 0\n  bracket[0][2] = 0, 0, 1\n}\n")
    code, out = run(["check", str(bad)], capsysbinary)
    assert code == 2
    assert b"verdict: fail" in out
    assert b"jacobi" in out.lower()


def test_cohomology_deg_three_row(capsysbinary):
    code, out = run(["cohomology", SL2, "--name", "sl2", "--deg", "3",
                     "--format", "structured"], capsysbinary)
    assert code == 0
    rep = parse_structured(out)
    betti = next(t for t in rep.tables if t.name == "betti")
    assert betti.rows[0][0] == "3"
    assert betti.rows[0][3] == "1"


def test_jet_cohomology_refuses_a_differential_that_does_not_square_to_zero(
        tmp_path, capsysbinary):
    # anchor([e1, e2]) = 5 d_y but [anchor(e1), anchor(e2)] = -d_y: d o d != 0,
    # and the window counts would be betti numbers of no complex
    bad = tmp_path / "bad.alab"
    bad.write_text("version 1\n\nalgebroid bad {\n  vars = x, y\n  jet_order = 6\n"
                   "  rank = 2\n  anchor[0] = 1, y\n  anchor[1] = 0, 1\n"
                   "  bracket[0][1] = 0, 5\n}\n")
    code, out = run(["check", str(bad)], capsysbinary)
    assert code == 2 and b"anchor_bracket" in out
    code, out = run(["cohomology", str(bad), "--mode", "jet", "--window", "3:5:3",
                     "--format", "structured"], capsysbinary)
    assert code == 2
    rep = parse_structured(out)
    assert rep.verdict == "fail"
    assert rep.notes == ["differential does not square to zero"]
    assert rep.witnesses == [{"kind": "not_complex", "degree": 0, "element": "y",
                              "d_of_d": "-6*e[1,2]"}]


def test_not_complex_witness_is_exact_on_fractional_data(tmp_path, capsysbinary):
    # the reproducer above with [e1, e2] = 5/2 e2: the differential runs on
    # integers under the denominator 2, and the witness prints d o d itself
    bad = tmp_path / "bad.alab"
    bad.write_text("version 1\n\nalgebroid bad {\n  vars = x, y\n  jet_order = 6\n"
                   "  rank = 2\n  anchor[0] = 1, y\n  anchor[1] = 0, 1\n"
                   "  bracket[0][1] = 0, 5/2\n}\n")
    code, out = run(["cohomology", str(bad), "--mode", "jet", "--window", "3:5:3",
                     "--format", "structured"], capsysbinary)
    assert code == 2
    assert parse_structured(out).witnesses == [
        {"kind": "not_complex", "degree": 0, "element": "y", "d_of_d": "-7/2*e[1,2]"}]


NOT_JACOBI = ("version 1\n\nalgebroid g {\n  rank = 3\n"
              "  bracket[0][1] = 1, 0, 0\n  bracket[0][2] = 0, 0, 1\n}\n")


def test_weight_cohomology_refuses_a_differential_that_does_not_square_to_zero(
        tmp_path, capsysbinary):
    # [e1, e2] = e1 and [e1, e3] = e3 break the Jacobi identity, so d o d != 0
    # on the constant cochains, and the finite strata hold no complex
    bad = tmp_path / "g.alab"
    bad.write_text(NOT_JACOBI)
    code, out = run(["check", str(bad)], capsysbinary)
    assert code == 2 and b"jacobi" in out
    code, out = run(["cohomology", str(bad), "--format", "structured"], capsysbinary)
    assert code == 2
    rep = parse_structured(out)
    assert rep.verdict == "fail"
    assert rep.notes == ["differential does not square to zero"]
    assert rep.witnesses == [{"kind": "not_complex", "degree": 1, "element": "e[3]",
                              "d_of_d": "e[1,2,3]"}]
    g = parse_model_text(NOT_JACOBI).algebroids["g"]
    with pytest.raises(ValidationFailure) as err:
        lie_algebra_cohomology(g)
    assert err.value.witness["kind"] == "not_complex"


@pytest.fixture
def digit_limit():
    """Python's default limit on the digits of an int made into a string."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def test_unprintable_rational_is_a_named_error(digit_limit):
    huge = Fraction(10 ** digit_limit + 1, 3)
    assert cell(Fraction(10 ** (digit_limit - 1), 7)).endswith("/7")
    for value in (huge, 1 / huge, (Fraction(1), huge), QMatrix([[1, huge]])):
        with pytest.raises(LabError, match=f"more than {digit_limit} digits"):
            cell(value)


def test_transport_with_an_unprintable_entry_is_an_error(digit_limit, monkeypatch,
                                                         capsysbinary):
    huge = Fraction(10 ** digit_limit + 1, 3)
    result = TransportResult(1, 1e-8, Fraction(0), True, False, QMatrix([[huge]]), None,
                             True, None)
    monkeypatch.setattr(cli, "parallel_transport", lambda pf, tol, max_steps: result)
    with pytest.raises(LabError, match=f"sys.get_int_max_str_digits\\(\\) = {digit_limit}"):
        run_command("transport", parse_model(CIRCLE), {"name": "loop"})
    code, out = run(["transport", CIRCLE, "--name", "loop", "--format", "structured"],
                    capsysbinary)
    assert code == 1
    rep = parse_structured(out)
    assert rep.verdict == "error"
    assert len(rep.notes) == 1 and f"more than {digit_limit} digits" in rep.notes[0]


def test_cohomology_requires_unique_or_named_section(capsysbinary):
    code, out = run(["cohomology", SL2], capsysbinary)
    assert code == 0          # only one algebroid in the file: no --name needed
    code, out = run(["cohomology", SL2, "--name", "ghost"], capsysbinary)
    assert code == 2
    assert b"no algebroid named 'ghost'" in out


def test_jet_window_flag(capsysbinary):
    code, out = run(["cohomology", PLANE, "--mode", "jet",
                     "--window", "4:8:3", "--format", "structured"],
                    capsysbinary)
    assert code == 0
    rep = parse_structured(out)
    betti = next(t for t in rep.tables if t.name == "betti")
    assert [row[3] for row in betti.rows] == ["1", "0", "0"]
    assert all(row[4] == "yes" for row in betti.rows)       # stabilized


def test_bad_window_rejected(capsysbinary):
    code, out = run(["cohomology", PLANE, "--mode", "jet", "--window", "4:8"],
                    capsysbinary)
    assert code == 2
    assert b"window must" in out


WEIGHT_ZERO_PLANE = """version 1

algebroid plane {
  vars = x, y
  jet_order = 6
  rank = 2
  weights = 0, 1
  frame_weights = 0, -1
  anchor[0] = 1, 0
  anchor[1] = 0, 1
}
"""

# the three commands that take a window, on the weight-0 plane
WINDOW_COMMANDS = (["cohomology"], ["cohomology", "--mode", "jet"],
                   ["transversal", "--slice", "0"])


def test_bad_windows_rejected_on_every_path(tmp_path, capsysbinary):
    # a weight-0 coordinate makes weight mode and the transversal check
    # slide a window too; an empty window or a zero span is refused there
    # just as in jet mode
    model = tmp_path / "plane.alab"
    model.write_text(WEIGHT_ZERO_PLANE)
    for cmd, *rest in WINDOW_COMMANDS:
        for window in ("5:3:3", "3:5:0", "-1:2:1"):
            code, out = run([cmd, str(model), *rest, f"--window={window}"], capsysbinary)
            assert code == 2, (cmd, rest, window, out)
            assert b"bad window" in out and b"internal error" not in out


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.sampled_from(WINDOW_COMMANDS), st.integers(-1, 4), st.integers(-1, 4),
       st.integers(-1, 3))
def test_window_fuzz_keeps_the_exit_taxonomy(tmp_path, command, start, end, span):
    model = tmp_path / "plane.alab"
    model.write_text(WEIGHT_ZERO_PLANE)
    cmd, *rest = command
    code, out = _run([cmd, str(model), *rest, f"--window={start}:{end}:{span}"])
    assert code in (0, 1, 2, 3), (command, start, end, span)
    assert b"internal error" not in out, (command, start, end, span, out)


def test_pullback_point_and_rescale(capsysbinary):
    code, out = run(["pullback", LINE, "--map", "point", "--point", "1/2"],
                    capsysbinary)
    assert code == 0
    assert b"point  3" in out
    code, out = run(["pullback", LINE, "--map", "rescale", "--t", "1/3"],
                    capsysbinary)
    assert code == 0
    assert b"rescale" in out


def test_transversal_slice_iso(capsysbinary):
    code, out = run(["transversal", LINE, "--format", "structured"],
                    capsysbinary)
    assert code == 0
    rep = parse_structured(out)
    rows = next(t for t in rep.tables if t.name == "restriction").rows
    assert [r[1] for r in rows] == [r[2] for r in rows]     # equal betti


def test_ss_command(capsysbinary):
    code, out = run(["ss", CIRCLE, "--format", "structured"], capsysbinary)
    assert code == 0
    rep = parse_structured(out)
    total = next(t for t in rep.tables if t.name == "total")
    assert [row[1] for row in total.rows] == ["1", "2", "2", "1"]


def test_localize_exit_taxonomy(capsysbinary):
    code, out = run(["localize", CIRCLE, "--at", "0", "--deg", "1"],
                    capsysbinary)
    assert code == 3
    assert b"hypotheses unmet" in out
    code, out = run(["localize", PAIR, "--at", "0", "--deg", "0"],
                    capsysbinary)
    assert code == 0
    assert b"verdict: injective" in out


SL2_ADJOINT_PAIR = """version 1

algebroid sl2 {
  rank = 3
  bracket[0][1] = 0, 2, 0
  bracket[0][2] = 0, 0, -2
  bracket[1][2] = 1, 0, 0
}

representation adjoint {
  of = sl2
  rank = 3
  gamma[0] = 0, 0, 0 ; 0, 2, 0 ; 0, 0, -2
  gamma[1] = 0, 0, 1 ; -2, 0, 0 ; 0, 0, 0
  gamma[2] = 0, -1, 0 ; 0, 0, 0 ; 2, 0, 0
}

cover pair {
  charts = U, V
  overlaps = (0,1)
}

family adjoint_pair {
  cover = pair
  fibre[0] = sl2
  fibre[1] = sl2
  rep[0] = adjoint
  rep[1] = adjoint
}
"""


def test_localize_degrees_outside_the_fibre_range(tmp_path, capsysbinary):
    # sl2 with its adjoint coefficients has no cohomology at all, so every
    # degree past the fibre rank has no classes and the verdict holds
    model = tmp_path / "sl2_adjoint_pair.alab"
    model.write_text(SL2_ADJOINT_PAIR)
    for deg in ("4", "5", "7"):
        code, out = run(["localize", str(model), "--at", "0", "--deg", deg,
                         "--format", "structured"], capsysbinary)
        assert code == 0, out
        rep = parse_structured(out)
        assert rep.verdict == "injective"
        row = next(t for t in rep.tables if t.name == "localization").rows[0]
        assert row[:5] == (deg, "0", "0", "0", "0")
    # a negative degree is rejected like a chart index out of range
    for path in (str(model), CIRCLE):
        code, out = run(["localize", path, "--at", "0", "--deg", "-1"], capsysbinary)
        assert code == 2
        assert b"negative degree" in out and b"internal error" not in out


def test_transport_command(capsysbinary):
    code, out = run(["transport", CIRCLE, "--format", "structured"],
                    capsysbinary)
    assert code == 0
    rep = parse_structured(out)
    frame = next(t for t in rep.tables if t.name == "frame_map")
    assert frame.rows == [("0", "1, 1"), ("1", "0, 1")]
    mon = next(t for t in rep.tables if t.name == "monodromy")
    assert mon.rows[1] == ("1", "2", "1, 0 ; -1, 1")


def test_monodromy_command(capsysbinary):
    code, out = run(["monodromy", CIRCLE], capsysbinary)
    assert code == 0
    assert b"verdict: match" in out
    assert b"matched entry for entry" in out


# rank-1 abelian fibres over the circle, twisted by a fraction within 1e-7
# of e, and a path family moving the frame by exp(omega t)
_GROWTH = """version 1

algebroid ab1 {
  rank = 1
}

cover circle {
  charts = U0, U1, U2
  overlaps = (0,1), (0,2), (1,2)
}

family twist {
  cover = circle
  fibre[0] = ab1
  fibre[1] = ab1
  fibre[2] = ab1
  transition[0][2] = 2716289/999267
}

path_family grow {
  rank = 1
  omega = OMEGA
}
"""


def _growth_model(tmp_path, omega):
    model = tmp_path / "growth.alab"
    model.write_text(_GROWTH.replace("OMEGA", omega))
    return str(model)


def test_transport_of_exp_t_is_a_certified_ball_around_e(tmp_path, capsysbinary):
    code, out = run(["transport", _growth_model(tmp_path, "1"), "--format",
                     "structured"], capsysbinary)
    assert code == 0
    rep = parse_structured(out)
    steps, radius, exact, invertible, _ = next(
        t for t in rep.tables if t.name == "transport").rows[0]
    assert (steps, exact, invertible) == ("11", "no", "yes")
    # sum_(j<=11) 1/j!, with radius 1/12! 3^1
    centre = next(t for t in rep.tables if t.name == "frame_map").rows[0][1]
    assert centre == "13563139/4989600"
    assert 0 < float(radius) <= 1e-8
    assert abs(float(Fraction(centre)) - math.e) <= float(radius)


def test_transport_refuses_a_huge_generator_at_once(tmp_path, capsysbinary):
    model = _growth_model(tmp_path, "100000000")
    start = time.process_time()
    code, out = run(["transport", model, "--steps", "64"], capsysbinary)
    assert time.process_time() - start < 1.0
    assert code == 1
    assert b"verdict: error" in out and b"series tail bound" in out
    assert b"internal error" not in out


def test_monodromy_of_an_approximate_transport_claims_no_exactness(tmp_path,
                                                                   capsysbinary):
    # the centre's induced map sits about 4.4e-8 from the twist's
    model = _growth_model(tmp_path, "1")
    for tol, verdict in (("1e-8", b"verdict: mismatch"), ("1e-7", b"verdict: match")):
        code, out = run(["monodromy", model, "--tol", tol], capsysbinary)
        assert code == (0 if verdict == b"verdict: match" else 2)
        assert verdict in out and b"within certified radius" in out
        assert b"exact" not in out and b"matched entry for entry" not in out


# a fibre bracket that moves with no generator to move it, and a constant
# fibre that is no Lie algebra ([e1,e2] = e1 and [e1,e3] = e3)
_FAILING_PATHS = {
    "bent": ("  rank = 2\n  bracket[0][1] = 0, t\n  omega = 0, 0 ; 0, 0\n",
             "not_flat", [1, 2, 3, 2]),
    "nonlie": ("  rank = 3\n  bracket[0][1] = 1, 0, 0\n  bracket[0][2] = 0, 0, 1\n"
               "  omega = 0, 0, 0 ; 0, 0, 0 ; 0, 0, 0\n", "frozen_axioms", [1, 2, 3, 3]),
}


@pytest.mark.parametrize("name", sorted(_FAILING_PATHS))
def test_failing_path_family_is_witnessed_by_check_and_transport(tmp_path, capsysbinary,
                                                                 name):
    body, kind, indices = _FAILING_PATHS[name]
    model = tmp_path / f"{name}.alab"
    model.write_text(f"version 1\n\npath_family {name} {{\n{body}}}\n")
    code, out = run(["check", str(model), "--format", "structured"], capsysbinary)
    assert code == 2, out
    rep = parse_structured(out)
    assert rep.verdict == "fail"
    assert rep.tables[0].rows == [(name, "path_family", "no", "jacobi")]
    (witness,) = rep.witnesses
    assert witness["name"] == name and witness["identity"] == "Jacobi"
    assert witness["indices"] == indices
    code, out = run(["transport", str(model), "--format", "structured"], capsysbinary)
    assert code == 2, out
    rep = parse_structured(out)
    assert rep.verdict == "fail"
    (witness,) = rep.witnesses
    assert witness["kind"] == kind and witness["indices"] == indices


@pytest.mark.parametrize("q_text", ["0", "1, 0 ; 0, 1"], ids=["singular", "mis_sized"])
def test_family_commands_reject_a_bad_fibre_transition(tmp_path, capsysbinary, q_text):
    # rank-1 trivial coefficients need an invertible 1 x 1 transition Q
    text = Path(CIRCLE).read_text().replace(
        "  transition[0][2] = 1, 1 ; 0, 1\n",
        f"  transition[0][2] = 1, 1 ; 0, 1\n  transition_rep[0][1] = {q_text}\n")
    model = tmp_path / "bad_q.alab"
    model.write_text(text)
    for argv in (["check"], ["ss"], ["localize", "--at", "0", "--deg", "0"],
                 ["localize", "--at", "0", "--deg", "2"], ["monodromy"]):
        code, out = run([argv[0], str(model), *argv[1:], "--format", "structured"],
                        capsysbinary)
        assert code == 2, (argv, out)
        rep = parse_structured(out)
        assert rep.verdict == "fail" and b"internal error" not in out
        assert any(w.get("edge") == [0, 1] and "transition Q" in w.get("reason", "")
                   for w in rep.witnesses), (argv, rep.witnesses)



# abelian fibres whose charts name sl2's adjoint connection: flat over sl2,
# not over the abelian fibre, so the family is no local system
_FOREIGN_CONNECTION = """version 1

algebroid ab3 {
  rank = 3
}

algebroid sl2 {
  rank = 3
  bracket[0][1] = 0, 2, 0
  bracket[0][2] = 0, 0, -2
  bracket[1][2] = 1, 0, 0
}

representation adj {
  of = sl2
  rank = 3
  gamma[0] = 0, 0, 0 ; 0, 2, 0 ; 0, 0, -2
  gamma[1] = 0, 0, 1 ; -2, 0, 0 ; 0, 0, 0
  gamma[2] = 0, -1, 0 ; 0, 0, 0 ; 2, 0, 0
}

cover pair {
  charts = U, V
  overlaps = (0,1)
}

family fam {
  cover = pair
  fibre[0] = ab3
  fibre[1] = ab3
  rep[0] = adj
  rep[1] = adj
}
"""


def test_family_connection_is_judged_over_the_chart_fibre(tmp_path, capsysbinary):
    model = tmp_path / "foreign.alab"
    model.write_text(_FOREIGN_CONNECTION)
    code, out = run(["check", str(model), "--format", "structured"], capsysbinary)
    assert code == 2, out
    rows = {row[0]: row for row in next(
        t for t in parse_structured(out).tables if t.name == "checks").rows}
    assert rows["fam"][2:] == ("no", "chart[0]")
    assert rows["adj"][2] == "yes"
    for argv in (["ss"], ["localize", "--at", "0", "--deg", "0"]):
        code, out = run([argv[0], str(model), *argv[1:]], capsysbinary)
        assert code == 2 and b"family data invalid: chart[0]" in out, (argv, out)


# the charts' rank-2 nilpotent coefficients and the path's differ by the
# transpose; both have trivial monodromy, so only the fibre comparison tells
_TRANSPOSED_COEFFICIENTS = """version 1

algebroid ab1 {
  rank = 1
}

representation nil {
  of = ab1
  rank = 2
  gamma[0] = 0, 0 ; 1, 0
}

cover circle {
  charts = U0, U1, U2
  overlaps = (0,1), (0,2), (1,2)
}

family fam {
  cover = circle
  fibre[0] = ab1
  fibre[1] = ab1
  fibre[2] = ab1
  rep[0] = nil
  rep[1] = nil
  rep[2] = nil
}

path_family loop {
  rank = 1
  omega = 0
  gamma[0] = 0, 1 ; 0, 0
  omega_rep = 0, 0 ; 0, 0
}
"""


def test_monodromy_compares_the_basepoint_representation(tmp_path, capsysbinary):
    model = tmp_path / "transposed.alab"
    model.write_text(_TRANSPOSED_COEFFICIENTS)
    code, out = run(["monodromy", str(model)], capsysbinary)
    assert code == 2, out
    assert b"basepoint chart does not carry the time-0 fibre" in out
    assert b"verdict: match" not in out

# each command on its shipped model, with the boundary values of the flags it takes
BOUNDARY_VALUES = {"--deg": ("-1", "0", "9"), "--rmax": ("-1", "0"), "--at": ("-1", "99"),
                   "--tol": ("nan", "inf", "-1", "0"), "--steps": ("0", "-5"),
                   "--window": ("0:0:1", "3:2:1")}
FLAG_TARGETS = ((["cohomology", SL2, "--name", "sl2"], ("--deg", "--window")),
                (["cohomology", LINE], ("--deg", "--window")),
                (["cohomology", LINE, "--mode", "jet"], ("--deg", "--window")),
                (["transversal", LINE], ("--window",)),
                (["ss", CIRCLE], ("--rmax",)),
                (["localize", CIRCLE, "--at", "0", "--deg", "1"], ("--at", "--deg")),
                (["transport", CIRCLE], ("--tol", "--steps")),
                (["monodromy", CIRCLE], ("--tol",)),
                (["subexhaust", EXH], ("--steps",)))
FLAG_CASES = [(argv, f"{flag}={value}") for argv, flags in FLAG_TARGETS
              for flag in flags for value in BOUNDARY_VALUES[flag]]


@pytest.mark.parametrize("argv,flag", FLAG_CASES,
                         ids=[f"{argv[0]}-{Path(argv[1]).stem}-{flag}" for argv, flag in FLAG_CASES])
def test_boundary_flags_keep_the_exit_taxonomy(argv, flag):
    code, out = _run([*argv, flag])
    assert code in (0, 2, 3), (argv, flag, out)
    assert b"internal error" not in out, (argv, flag, out)


@pytest.mark.parametrize("argv,message", [
    (["cohomology", LINE, "--deg=-1"], b"negative degree"),
    (["cohomology", LINE, "--mode", "jet", "--deg=-1"], b"negative degree"),
    (["ss", CIRCLE, "--rmax=-1"], b"last page must be non-negative"),
    (["transport", CIRCLE, "--tol=nan"], b"tolerance must be finite and positive"),
    (["transport", CIRCLE, "--tol=inf"], b"tolerance must be finite and positive"),
    (["monodromy", CIRCLE, "--tol=nan"], b"tolerance must be finite and positive"),
    (["monodromy", CIRCLE, "--tol=inf"], b"tolerance must be finite and positive"),
    (["transport", CIRCLE, "--steps=0"], b"steps must be positive"),
    (["transport", CIRCLE, "--steps=-5"], b"steps must be positive"),
])
def test_out_of_range_flags_are_refused(argv, message):
    code, out = _run(argv)
    assert code == 2 and message in out, out


def test_subexhaust_command(capsysbinary):
    code, out = run(["subexhaust", EXH, "--steps", "6", "--format",
                     "structured"], capsysbinary)
    assert code == 0
    rep = parse_structured(out)
    stages = next(t for t in rep.tables if t.name == "stages")
    assert stages.rows == [("A", "1, 4, 7, 10, 13, 16"),
                           ("B", "2, 5, 8, 11, 14, 17")]


# ------------------------------------------------------------- errors

def test_unknown_flag_is_internal_error(capsysbinary):
    code, _ = run(["cohomology", SL2, "--bogus"], capsysbinary)
    assert code == 1


def test_unreadable_file_is_internal_error(capsysbinary):
    code, out = run(["check", "no_such_file.alab"], capsysbinary)
    assert code == 1
    assert b"verdict: error" in out


def test_syntax_error_is_validation_failure(tmp_path, capsysbinary):
    bad = tmp_path / "bad.alab"
    bad.write_text("version 1\nalgebroid g {\n  rank = x\n}\n")
    code, out = run(["check", str(bad)], capsysbinary)
    assert code == 2
    assert b"must be an integer" in out


def test_run_command_rejects_unknown_command():
    from algebroidlab.errors import StructuralError
    model = parse_model(SL2)
    with pytest.raises(StructuralError, match="unknown command"):
        run_command("frobnicate", model, {})


# ------------------------------------------------------------- determinism

def test_repeat_runs_are_byte_identical(capsysbinary):
    for argv in (["cohomology", SL2, "--name", "sl2"],
                 ["ss", CIRCLE, "--format", "csv"],
                 ["monodromy", CIRCLE, "--format", "structured"]):
        _, first = run(argv, capsysbinary)
        _, second = run(argv, capsysbinary)
        assert first == second


def test_installed_entry_point_matches_module():
    argv = ["check", SL2, "--format", "csv"]
    a = subprocess.run(["algebroidlab", *argv], capture_output=True)
    b = subprocess.run([sys.executable, "-m", "algebroidlab", *argv],
                       capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
