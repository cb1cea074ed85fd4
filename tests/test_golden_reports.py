"""Golden reports: stdout and exit code of the criterion-10 command matrix.

`golden_reports.json` holds, for every command of the matrix in every
output format, the exit code and the sha256 of stdout with the models
directory replaced by ``<models>``.  A change that alters a report on
purpose re-records the file, so the change shows in its diff:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json
"""

import hashlib
import io
import json
import sys
from pathlib import Path

from algebroidlab.cli import main

HERE = Path(__file__).resolve().parent
MODELS = HERE.parent / "models"
GOLDEN = HERE / "golden_reports.json"
FORMATS = ("text", "csv", "structured")

MATRIX = [
    ["check", "sl2_demo.alab"],
    ["check", "plane_jet.alab"],
    ["check", "sl2_line.alab"],
    ["check", "circle_family.alab"],
    ["check", "pair_family.alab"],
    ["check", "exhaustion_pair.alab"],
    ["cohomology", "sl2_demo.alab", "--name", "sl2"],
    ["cohomology", "sl2_demo.alab", "--name", "sl2", "--rep", "adjoint"],
    ["cohomology", "plane_jet.alab", "--mode", "jet", "--window", "4:8:3"],
    ["cohomology", "sl2_line.alab"],
    ["pullback", "sl2_line.alab", "--map", "point", "--point", "1/2"],
    ["pullback", "sl2_line.alab", "--map", "rescale", "--t", "1/3"],
    ["transversal", "sl2_line.alab"],
    ["ss", "circle_family.alab"],
    ["ss", "pair_family.alab"],
    ["localize", "circle_family.alab", "--at", "0", "--deg", "1"],
    ["localize", "pair_family.alab", "--at", "0", "--deg", "0"],
    ["transport", "circle_family.alab"],
    ["monodromy", "circle_family.alab"],
    ["subexhaust", "exhaustion_pair.alab", "--steps", "6"],
]


def _run(argv):
    """Exit code and raw stdout bytes of one in-process CLI run."""
    saved = sys.stdout
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    try:
        code = main(argv)
        sys.stdout.flush()
        out = sys.stdout.buffer.getvalue()
    finally:
        sys.stdout = saved
    return code, out


def current_hashes():
    """Case key -> {"exit": code, "sha256": hex digest of normalized stdout}."""
    result = {}
    for cmd, fixture, *rest in MATRIX:
        for fmt in FORMATS:
            code, out = _run([cmd, str(MODELS / fixture), *rest,
                              "--format", fmt])
            out = out.replace(str(MODELS).encode(), b"<models>")
            key = " ".join([cmd, fixture, *rest, "--format", fmt])
            result[key] = {"exit": code,
                           "sha256": hashlib.sha256(out).hexdigest()}
    return result


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    current = current_hashes()
    assert list(current) == list(golden), "command matrix differs from golden"
    for key, want in golden.items():
        assert current[key] == want, f"first differing case: {key}"


if __name__ == "__main__":
    print(json.dumps(current_hashes(), indent=1))
