"""Uniform result objects and their deterministic serializations.

Every command produces one Report: a command echo, a verdict, named
tables of pre-rendered cells, witness payloads, and free-form notes.
Three output formats are supported; all of them are byte-deterministic
functions of the report content.  Rationals are always written as exact
``p/q`` strings, never as floats.  Wall-clock timing is carried on the
object for interactive display but deliberately kept out of the emitted
bytes so that repeated runs compare equal.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import StructuralError
from .ratpoly import format_rational

FORMATS = ("text", "csv", "structured")

# verdict -> process exit status; anything unlisted is a failed check
EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_FAIL = 2
EXIT_UNMET = 3

_VERDICT_EXITS = {
    "": EXIT_OK,
    "pass": EXIT_OK,
    "match": EXIT_OK,
    "injective": EXIT_OK,
    "error": EXIT_INTERNAL,
    "hypotheses unmet": EXIT_UNMET,
}


def cell(value) -> str:
    """Render one table cell deterministically."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    if hasattr(value, "rows"):                      # rational matrices
        return " ; ".join(", ".join(format_rational(x) for x in row)
                          for row in value.rows)
    if isinstance(value, (tuple, list)):
        return ", ".join(cell(v) for v in value)
    return str(value)


def sanitize(obj):
    """Witness payloads as JSON-safe data with exact rational strings."""
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [sanitize(v) for v in obj]
    if hasattr(obj, "rows"):
        return [[format_rational(x) for x in row] for row in obj.rows]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


@dataclass
class Table:
    name: str
    columns: Tuple[str, ...]
    rows: List[Tuple[str, ...]] = field(default_factory=list)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        self.rows = [tuple(cell(c) for c in row) for row in self.rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise StructuralError(
                    f"table '{self.name}': row width {len(row)} != "
                    f"{len(self.columns)} columns")

    def add(self, *row):
        if len(row) != len(self.columns):
            raise StructuralError(f"table '{self.name}': bad row width")
        self.rows.append(tuple(cell(c) for c in row))


@dataclass
class Report:
    command: str
    verdict: str = ""
    tables: List[Table] = field(default_factory=list)
    witnesses: List[dict] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    elapsed: Optional[float] = field(default=None, compare=False)

    def table(self, name: str, columns: Sequence[str]) -> Table:
        t = Table(name, tuple(columns))
        self.tables.append(t)
        return t

    def witness(self, payload: dict):
        self.witnesses.append(sanitize(payload))

    def exit_code(self) -> int:
        return _VERDICT_EXITS.get(self.verdict, EXIT_FAIL)


# ------------------------------------------------------------- emitters

def _emit_text(r: Report) -> str:
    lines = [f"== algebroidlab {r.command}".rstrip()]
    if r.verdict:
        lines.append(f"verdict: {r.verdict}")
    for t in r.tables:
        lines.append(f"-- {t.name}")
        widths = [len(c) for c in t.columns]
        for row in t.rows:
            for k, c in enumerate(row):
                widths[k] = max(widths[k], len(c))
        header = "  ".join(c.ljust(widths[k]) for k, c in enumerate(t.columns))
        lines.append(header.rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in t.rows:
            lines.append("  ".join(c.ljust(widths[k])
                                   for k, c in enumerate(row)).rstrip())
    for n in r.notes:
        lines.append(f"note: {n}")
    for w in r.witnesses:
        lines.append("witness: " + json.dumps(w, sort_keys=True))
    return "\n".join(lines) + "\n"


def _emit_csv(r: Report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["command", r.command])
    if r.verdict:
        w.writerow(["verdict", r.verdict])
    for t in r.tables:
        w.writerow(["table", t.name])
        w.writerow(list(t.columns))
        for row in t.rows:
            w.writerow(list(row))
    for n in r.notes:
        w.writerow(["note", n])
    for wit in r.witnesses:
        w.writerow(["witness", json.dumps(wit, sort_keys=True)])
    return buf.getvalue()


def _emit_structured(r: Report) -> str:
    payload = {
        "command": r.command,
        "verdict": r.verdict,
        "tables": [{"name": t.name, "columns": list(t.columns),
                    "rows": [list(row) for row in t.rows]} for t in r.tables],
        "witnesses": r.witnesses,
        "notes": r.notes,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def emit_report(r: Report, fmt: str = "text") -> bytes:
    if fmt not in FORMATS:
        raise StructuralError(f"unknown format {fmt!r}; pick one of {FORMATS}")
    if fmt == "text":
        out = _emit_text(r)
    elif fmt == "csv":
        out = _emit_csv(r)
    else:
        out = _emit_structured(r)
    return out.encode("utf-8")


def parse_structured(data) -> Report:
    """Inverse of the structured emitter; numeric strings survive exactly."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    payload = json.loads(data)
    tables = [Table(t["name"], tuple(t["columns"]),
                    [tuple(row) for row in t["rows"]])
              for t in payload["tables"]]
    return Report(payload["command"], payload["verdict"], tables,
                  payload["witnesses"], payload["notes"])
