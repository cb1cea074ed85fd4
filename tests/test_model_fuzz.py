"""Mutation fuzz of the shipped model files through the CLI.

Each example takes one command of the golden-report matrix, mutates its
model file and runs the command in process.  Every outcome must stay in
the 0/1/2/3 exit taxonomy, and no exception may escape as an internal
error.  The mutations only delete lines, truncate the file or overwrite
one character with a separator; none of them can write a digit, join two
numbers or add a term, so no rank, window, jet order or step count grows
and each run stays as small as the shipped model.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_golden_reports import MATRIX, MODELS, _run

SEPARATORS = "=,;()[]{}#-"


@st.composite
def _mutated_command(draw):
    cmd, fixture, *rest = draw(st.sampled_from(MATRIX))
    text = (MODELS / fixture).read_text()
    for kind in draw(st.lists(st.sampled_from(("line", "truncate", "char")),
                              min_size=1, max_size=3)):
        if kind == "line":
            lines = text.splitlines(keepends=True)
            if lines:
                del lines[draw(st.integers(0, len(lines) - 1))]
            text = "".join(lines)
        elif kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif text:
            i = draw(st.integers(0, len(text) - 1))
            text = text[:i] + draw(st.sampled_from(SEPARATORS)) + text[i + 1:]
    return cmd, fixture, rest, text


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(_mutated_command())
def test_mutated_models_keep_the_exit_taxonomy(tmp_path, case):
    cmd, fixture, rest, text = case
    path = tmp_path / fixture                 # overwritten by every example
    path.write_text(text)
    code, out = _run([cmd, str(path), *rest])
    assert code in (0, 1, 2, 3), (cmd, rest, text)
    assert b"internal error" not in out, (cmd, rest, text, out)
