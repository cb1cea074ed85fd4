"""Structured text model files bundling named problem instances.

A model file opens with a ``version`` line and then lists brace sections:

    version 1

    algebroid sl2 {
      rank = 3
      bracket[0][1] = 0, 2, 0
      bracket[0][2] = 0, 0, -2
      bracket[1][2] = 1, 0, 0
    }

Section kinds: ``algebroid``, ``representation``, ``cover``, ``family``,
``path_family``, ``exhaustion``.  Values are comma lists; matrix rows are
separated by ``;``; index pairs are written ``(0,1)``.  Every
cross-reference (a representation's ``of``, a family's ``cover`` and
``fibre`` entries) must resolve inside the same file.  Unknown keys are
rejected.  The first problem found is reported with its line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import LabError, StructuralError
from .ratpoly import PolyParseError, parse_poly, parse_rational, TruncatedPoly, WeightAssignment
from .linalg import QMatrix
from .algebroid import LieAlgebroidPatch, Representation
from .covers import ChartData, CoverDatum, LocalSystemFamily
from .transport import PathFamily
from .exhaustion import ExhaustionProblem, MonotoneOracle

CURRENT_VERSION = 1

SECTION_KINDS = ("algebroid", "representation", "cover", "family",
                 "path_family", "exhaustion")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEY_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)\Z")
_TUPLE_RE = re.compile(r"\(([^()]*)\)")


class ModelError(StructuralError):
    """Parse or reference failure, pinned to a file position."""

    def __init__(self, message: str, path: str, line: int, col: int = 1):
        super().__init__(f"{path}:{line}:{col}: {message}")
        self.path = path
        self.line = line
        self.col = col


@dataclass
class _Entry:
    key: str
    indices: Tuple[int, ...]
    value: str
    line: int
    col_key: int
    col_value: int
    used: bool = False


@dataclass
class _RawSection:
    kind: str
    name: str
    line: int
    entries: List[_Entry] = field(default_factory=list)


class _Reader:
    """Consumes entries of one section; leftovers become unknown-key errors."""

    def __init__(self, sec: _RawSection, path: str):
        self.sec = sec
        self.path = path

    def err(self, message: str, line: Optional[int] = None, col: int = 1) -> ModelError:
        return ModelError(message, self.path, self.sec.line if line is None else line, col)

    def take(self, key: str, required: bool = False) -> Optional[_Entry]:
        hits = [e for e in self.sec.entries if e.key == key and not e.indices]
        if len(hits) > 1:
            raise self.err(f"duplicate key '{key}'", hits[1].line, hits[1].col_key)
        if not hits:
            if required:
                raise self.err(f"section '{self.sec.name}' is missing required key '{key}'")
            return None
        hits[0].used = True
        return hits[0]

    def take_indexed(self, key: str, depth: int) -> List[_Entry]:
        out = []
        for e in self.sec.entries:
            if e.key == key and e.indices:
                if len(e.indices) != depth:
                    raise self.err(f"'{key}' takes {depth} bracket indices",
                                   e.line, e.col_key)
                e.used = True
                out.append(e)
        seen: Dict[Tuple[int, ...], _Entry] = {}
        for e in out:
            if e.indices in seen:
                raise self.err(f"duplicate entry '{key}{list(e.indices)}'",
                               e.line, e.col_key)
            seen[e.indices] = e
        return out

    def finish(self):
        for e in self.sec.entries:
            if not e.used:
                raise self.err(f"unknown key '{e.key}' in {self.sec.kind} section",
                               e.line, e.col_key)


@dataclass
class ModelFile:
    """All named objects of one file, ready for dispatch."""

    version: int
    path: str
    algebroids: Dict[str, LieAlgebroidPatch] = field(default_factory=dict)
    representations: Dict[str, Representation] = field(default_factory=dict)
    covers: Dict[str, CoverDatum] = field(default_factory=dict)
    families: Dict[str, LocalSystemFamily] = field(default_factory=dict)
    path_families: Dict[str, PathFamily] = field(default_factory=dict)
    exhaustions: Dict[str, ExhaustionProblem] = field(default_factory=dict)

    _POOLS = {"algebroid": "algebroids", "representation": "representations",
              "cover": "covers", "family": "families",
              "path_family": "path_families", "exhaustion": "exhaustions"}

    def pool(self, kind: str) -> Dict[str, object]:
        return getattr(self, self._POOLS[kind])

    def pick(self, kind: str, name: Optional[str]):
        """The named object, or the unique one of its kind."""
        pool = self.pool(kind)
        if name is not None:
            if name not in pool:
                have = ", ".join(sorted(pool)) or "none"
                raise StructuralError(
                    f"no {kind} named '{name}' in {self.path} (have: {have})")
            return name, pool[name]
        if len(pool) == 1:
            return next(iter(pool.items()))
        raise StructuralError(
            f"{self.path} defines {len(pool)} {kind} sections; select one with --name")


# ---------------------------------------------------------------- scanning

def _scan(text: str, path: str) -> Tuple[int, List[_RawSection]]:
    version: Optional[int] = None
    sections: List[_RawSection] = []
    current: Optional[_RawSection] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col0 = line.index(stripped[0]) + 1
        if version is None:
            parts = stripped.split()
            if parts[0] != "version":
                raise ModelError("file must begin with a 'version' line",
                                 path, lineno, col0)
            if len(parts) != 2 or not parts[1].isdigit():
                raise ModelError("usage: version <integer>", path, lineno, col0)
            version = int(parts[1])
            if version != CURRENT_VERSION:
                raise ModelError(
                    f"version {version} not supported (expected {CURRENT_VERSION})",
                    path, lineno, col0)
            continue
        if current is None:
            if stripped == "}":
                raise ModelError("'}' outside any section", path, lineno, col0)
            m = re.match(r"(\w+)\s+(\S+)\s*\{\Z", stripped)
            if not m:
                raise ModelError("expected '<kind> <name> {'", path, lineno, col0)
            kind, name = m.group(1), m.group(2)
            if kind not in SECTION_KINDS:
                raise ModelError(f"unknown section kind '{kind}'", path, lineno, col0)
            if not _NAME_RE.match(name):
                raise ModelError(f"bad section name '{name}'", path, lineno,
                                 col0 + len(kind) + 1)
            current = _RawSection(kind, name, lineno)
            continue
        if stripped == "}":
            sections.append(current)
            current = None
            continue
        if "=" not in stripped:
            raise ModelError("expected 'key = value' or '}'", path, lineno, col0)
        key_part, value = line.split("=", 1)
        key_text = key_part.strip()
        m = _KEY_RE.match(key_text)
        if not m:
            raise ModelError(f"bad key '{key_text}'", path, lineno, col0)
        indices = tuple(int(s) for s in re.findall(r"\[(\d+)\]", m.group(2)))
        col_value = len(key_part) + 2 + (len(value) - len(value.lstrip()))
        current.entries.append(_Entry(m.group(1), indices, value.strip(),
                                      lineno, col0, col_value))
    if current is not None:
        raise ModelError(f"section '{current.name}' is never closed",
                         path, current.line)
    if version is None:
        raise ModelError("empty file: expected a 'version' line", path, 1)
    return version, sections


# ---------------------------------------------------------------- field kits

def _split_csv(value: str) -> List[str]:
    if not value.strip():
        return []
    return [p.strip() for p in value.split(",")]


def _take_int(r: _Reader, key: str, required: bool = False,
              default: int = 0, minimum: Optional[int] = None) -> int:
    e = r.take(key, required)
    if e is None:
        return default
    try:
        v = int(e.value)
    except ValueError:
        raise r.err(f"'{key}' must be an integer", e.line, e.col_value)
    if minimum is not None and v < minimum:
        raise r.err(f"'{key}' must be >= {minimum}", e.line, e.col_value)
    return v


def _take_bool(r: _Reader, key: str) -> Optional[bool]:
    e = r.take(key)
    if e is None:
        return None
    if e.value not in ("true", "false"):
        raise r.err(f"'{key}' must be true or false", e.line, e.col_value)
    return e.value == "true"


def _take_ints(r: _Reader, key: str) -> Optional[List[int]]:
    e = r.take(key)
    if e is None:
        return None
    try:
        return [int(p) for p in _split_csv(e.value)]
    except ValueError:
        raise r.err(f"'{key}' must be a comma list of integers", e.line, e.col_value)


def _take_names(r: _Reader, key: str, required: bool = False) -> List[str]:
    e = r.take(key, required)
    if e is None:
        return []
    names = _split_csv(e.value)
    for nm in names:
        if not _NAME_RE.match(nm):
            raise r.err(f"bad name '{nm}' in '{key}'", e.line, e.col_value)
    return names


def _take_pairs(r: _Reader, key: str, width: int) -> List[Tuple[int, ...]]:
    e = r.take(key)
    if e is None:
        return []
    leftovers = _TUPLE_RE.sub("", e.value)
    if leftovers.strip(" ,\t"):
        raise r.err(f"'{key}' must be a comma list of ({width} indices) tuples",
                    e.line, e.col_value)
    out: List[Tuple[int, ...]] = []
    for group in _TUPLE_RE.findall(e.value):
        try:
            tpl = tuple(int(p) for p in _split_csv(group))
        except ValueError:
            raise r.err(f"non-integer index in '{key}'", e.line, e.col_value)
        if len(tpl) != width:
            raise r.err(f"each '{key}' tuple needs exactly {width} indices",
                        e.line, e.col_value)
        out.append(tpl)
    return out


def _parse_entry_poly(r: _Reader, e: _Entry, text: str,
                      var_names: Sequence[str], cap: Optional[int]) -> TruncatedPoly:
    try:
        return parse_poly(text, var_names, cap)
    except PolyParseError as exc:
        raise r.err(str(exc), e.line, e.col_value + exc.col)
    except ValueError as exc:
        raise r.err(str(exc), e.line, e.col_value)


def _poly_row(r: _Reader, e: _Entry, var_names: Sequence[str],
              cap: Optional[int], width: int, what: str) -> List[TruncatedPoly]:
    parts = _split_csv(e.value)
    if len(parts) != width:
        raise r.err(f"{what} needs {width} entries, got {len(parts)}",
                    e.line, e.col_value)
    return [_parse_entry_poly(r, e, p, var_names, cap) for p in parts]


def _take_brackets(r: _Reader, var_names: Sequence[str], cap: Optional[int], rank: int
                   ) -> Dict[Tuple[int, int], List[TruncatedPoly]]:
    """The section's bracket[i][j] rows, i < j < rank, by (i, j)."""
    out: Dict[Tuple[int, int], List[TruncatedPoly]] = {}
    for e in r.take_indexed("bracket", 2):
        i, j = e.indices
        if not 0 <= i < j < rank:
            raise r.err(f"bracket[{i}][{j}] needs indices i < j < rank",
                        e.line, e.col_key)
        out[(i, j)] = _poly_row(r, e, var_names, cap, rank, f"bracket[{i}][{j}]")
    return out


def _poly_matrix(r: _Reader, e: _Entry, var_names: Sequence[str],
                 cap: Optional[int], nrows: int, ncols: int,
                 what: str) -> List[List[TruncatedPoly]]:
    rows = [p.strip() for p in e.value.split(";")]
    if len(rows) != nrows:
        raise r.err(f"{what} needs {nrows} rows separated by ';', got {len(rows)}",
                    e.line, e.col_value)
    out = []
    for row in rows:
        parts = _split_csv(row)
        if len(parts) != ncols:
            raise r.err(f"{what} rows need {ncols} entries, got {len(parts)}",
                        e.line, e.col_value)
        out.append([_parse_entry_poly(r, e, p, var_names, cap) for p in parts])
    return out


def _rational_matrix(r: _Reader, e: _Entry, what: str) -> QMatrix:
    rows = []
    for row in e.value.split(";"):
        parts = _split_csv(row)
        if not parts:
            raise r.err(f"{what} has an empty row", e.line, e.col_value)
        try:
            rows.append([parse_rational(p) for p in parts])
        except ValueError as exc:
            raise r.err(f"{what}: {exc}", e.line, e.col_value)
    if any(len(row) != len(rows[0]) for row in rows):
        raise r.err(f"{what} rows have unequal lengths", e.line, e.col_value)
    return QMatrix(rows)


# ---------------------------------------------------------------- builders

def _build_algebroid(r: _Reader) -> LieAlgebroidPatch:
    var_names = tuple(_take_names(r, "vars"))
    jet_order = _take_int(r, "jet_order", default=0, minimum=0)
    rank = _take_int(r, "rank", required=True, minimum=0)
    n = len(var_names)
    weights_e = r.take("weights")
    weights = None
    if weights_e is not None:
        try:
            weights = WeightAssignment(tuple(int(p) for p in _split_csv(weights_e.value)))
        except (ValueError, StructuralError) as exc:
            raise r.err(f"weights: {exc}", weights_e.line, weights_e.col_value)
        if weights.n != n:
            raise r.err(f"weights needs {n} entries", weights_e.line,
                        weights_e.col_value)
    fw = _take_ints(r, "frame_weights")
    if fw is not None and len(fw) != rank:
        raise r.err(f"frame_weights needs {rank} entries")
    z = TruncatedPoly.zero(n, jet_order)
    anchor = [[z] * n for _ in range(rank)]
    for e in r.take_indexed("anchor", 1):
        (i,) = e.indices
        if not 0 <= i < rank:
            raise r.err(f"anchor row {i} out of range", e.line, e.col_key)
        anchor[i] = _poly_row(r, e, var_names, jet_order, n, f"anchor[{i}]")
    structure = [[[z] * rank for _ in range(rank)] for _ in range(rank)]
    for (i, j), row in _take_brackets(r, var_names, jet_order, rank).items():
        for k, p in enumerate(row):
            structure[i][j][k] = p
            structure[j][i][k] = p.scale(Fraction(-1))
    r.finish()
    return LieAlgebroidPatch(var_names, jet_order, rank, anchor, structure,
                             weights=weights,
                             frame_weights=tuple(fw) if fw is not None else None,
                             name=r.sec.name)


def _build_representation(r: _Reader, algebroids: Dict[str, LieAlgebroidPatch]
                          ) -> Representation:
    of = r.take("of", required=True)
    if of.value not in algebroids:
        raise r.err(f"representation refers to undefined algebroid '{of.value}'",
                    of.line, of.col_value)
    a = algebroids[of.value]
    rank = _take_int(r, "rank", required=True, minimum=1)
    fw = _take_ints(r, "fibre_weights")
    if fw is not None and len(fw) != rank:
        raise r.err(f"fibre_weights needs {rank} entries")
    z = TruncatedPoly.zero(a.n_vars, a.jet_order)
    gammas = [[[z] * rank for _ in range(rank)] for _ in range(a.rank)]
    for e in r.take_indexed("gamma", 1):
        (i,) = e.indices
        if not 0 <= i < a.rank:
            raise r.err(f"gamma index {i} out of range", e.line, e.col_key)
        gammas[i] = _poly_matrix(r, e, a.var_names, a.jet_order, rank, rank,
                                 f"gamma[{i}]")
    r.finish()
    return Representation(a, rank, gammas,
                          fibre_weights=tuple(fw) if fw is not None else None,
                          name=r.sec.name)


def _build_cover(r: _Reader) -> CoverDatum:
    charts = _take_names(r, "charts", required=True)
    overlaps = _take_pairs(r, "overlaps", 2)
    triples = _take_pairs(r, "triples", 3)
    sc = _take_bool(r, "simply_connected")
    r.finish()
    return CoverDatum(tuple(charts), tuple(overlaps), tuple(triples),
                      simply_connected=sc)


def _build_family(r: _Reader, model: ModelFile) -> LocalSystemFamily:
    cov_e = r.take("cover", required=True)
    if cov_e.value not in model.covers:
        raise r.err(f"family refers to undefined cover '{cov_e.value}'",
                    cov_e.line, cov_e.col_value)
    cover = model.covers[cov_e.value]
    m = len(cover.charts)
    fibres: List[Optional[LieAlgebroidPatch]] = [None] * m
    for e in r.take_indexed("fibre", 1):
        (i,) = e.indices
        if not 0 <= i < m:
            raise r.err(f"fibre index {i} out of range", e.line, e.col_key)
        if e.value not in model.algebroids:
            raise r.err(f"fibre refers to undefined algebroid '{e.value}'",
                        e.line, e.col_value)
        fibres[i] = model.algebroids[e.value]
    for i, fb in enumerate(fibres):
        if fb is None:
            raise r.err(f"family is missing fibre[{i}]")
    reps: List[Optional[Representation]] = [None] * m
    for e in r.take_indexed("rep", 1):
        (i,) = e.indices
        if not 0 <= i < m:
            raise r.err(f"rep index {i} out of range", e.line, e.col_key)
        if e.value not in model.representations:
            raise r.err(f"rep refers to undefined representation '{e.value}'",
                        e.line, e.col_value)
        reps[i] = model.representations[e.value]
    p_mats: Dict[Tuple[int, int], QMatrix] = {}
    q_mats: Dict[Tuple[int, int], QMatrix] = {}
    for e in r.take_indexed("transition", 2):
        p_mats[e.indices] = _rational_matrix(r, e, "transition")
    for e in r.take_indexed("transition_rep", 2):
        q_mats[e.indices] = _rational_matrix(r, e, "transition_rep")
    charts = [ChartData(fibres[i], reps[i]) for i in range(m)]
    transitions: Dict[Tuple[int, int], Tuple[QMatrix, QMatrix]] = {}
    for pair in sorted(set(p_mats) | set(q_mats)):
        i, _j = pair
        p = p_mats.get(pair)
        if p is None:
            p = QMatrix.identity(charts[i].algebra.rank)
        q = q_mats.get(pair)
        if q is None:
            rr = charts[i].rep.rank if charts[i].rep is not None else 1
            q = QMatrix.identity(rr)
        transitions[pair] = (p, q)
    r.finish()
    try:
        return LocalSystemFamily(cover, charts, transitions)
    except StructuralError as exc:
        raise r.err(str(exc))


def _build_path_family(r: _Reader) -> PathFamily:
    rank = _take_int(r, "rank", required=True, minimum=1)
    t = ("t",)
    brackets = _take_brackets(r, t, None, rank)
    omega_e = r.take("omega", required=True)
    omega = _poly_matrix(r, omega_e, t, None, rank, rank, "omega")
    gamma_entries = r.take_indexed("gamma", 1)
    rep_e = r.take("omega_rep")
    gammas = None
    omega_rep = None
    if gamma_entries or rep_e is not None:
        if rep_e is None:
            raise r.err("gamma entries need an omega_rep generator")
        # the generator's row count fixes the moving-frame size
        m = len(rep_e.value.split(";"))
        omega_rep = _poly_matrix(r, rep_e, t, None, m, m, "omega_rep")
        gammas = [[[TruncatedPoly.zero(1)] * m for _ in range(m)]
                  for _ in range(rank)]
        for e in gamma_entries:
            (i,) = e.indices
            if not 0 <= i < rank:
                raise r.err(f"gamma index {i} out of range", e.line, e.col_key)
            gammas[i] = _poly_matrix(r, e, t, None, m, m, f"gamma[{i}]")
    r.finish()
    try:
        return PathFamily.from_brackets(rank, brackets, omega, gammas=gammas,
                                        omega_rep=omega_rep, name=r.sec.name)
    except StructuralError as exc:
        raise r.err(str(exc))


def _build_exhaustion(r: _Reader) -> ExhaustionProblem:
    charts = _take_names(r, "charts", required=True)
    overlaps = _take_pairs(r, "overlaps", 2)
    oracles: Dict[Tuple[int, int], MonotoneOracle] = {}
    for e in r.take_indexed("mu", 2):
        prefix: Tuple[int, ...] = ()
        slope, offset = 1, 0
        for clause in e.value.split(";"):
            parts = clause.split(None, 1)
            if not parts:
                continue
            word = parts[0]
            body = parts[1] if len(parts) > 1 else ""
            try:
                if word == "prefix":
                    prefix = tuple(int(p) for p in _split_csv(body))
                elif word == "slope":
                    slope = int(body)
                elif word == "offset":
                    offset = int(body)
                else:
                    raise r.err(f"mu clause must be prefix/slope/offset, got '{word}'",
                                e.line, e.col_value)
            except ValueError:
                raise r.err(f"mu clause '{word}' needs integer data",
                            e.line, e.col_value)
        try:
            oracles[e.indices] = MonotoneOracle(prefix, slope, offset)
        except StructuralError as exc:
            raise r.err(f"mu{list(e.indices)}: {exc}", e.line, e.col_value)
    r.finish()
    try:
        return ExhaustionProblem(tuple(charts),
                                 tuple(tuple(p) for p in overlaps), oracles)
    except StructuralError as exc:
        raise r.err(str(exc))


# ---------------------------------------------------------------- front door

def parse_model_text(text: str, path: str = "<string>") -> ModelFile:
    version, sections = _scan(text, path)
    model = ModelFile(version, path)
    names = set()
    for sec in sections:
        if sec.name in names:
            raise ModelError(f"duplicate section name '{sec.name}'",
                             path, sec.line)
        names.add(sec.name)
    # two passes so later kinds may reference earlier ones in any file order
    for sec in sections:
        r = _Reader(sec, path)
        if sec.kind == "algebroid":
            model.algebroids[sec.name] = _build_algebroid(r)
        elif sec.kind == "cover":
            model.covers[sec.name] = _build_cover(r)
        elif sec.kind == "path_family":
            model.path_families[sec.name] = _build_path_family(r)
        elif sec.kind == "exhaustion":
            model.exhaustions[sec.name] = _build_exhaustion(r)
    for sec in sections:
        r = _Reader(sec, path)
        if sec.kind == "representation":
            model.representations[sec.name] = _build_representation(
                r, model.algebroids)
    for sec in sections:
        r = _Reader(sec, path)
        if sec.kind == "family":
            model.families[sec.name] = _build_family(r, model)
    return model


def parse_model(path: str) -> ModelFile:
    """Parse and fully validate one model file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        # not a content problem: keep it out of the validation-failure exit
        raise LabError(f"cannot read model file: {exc}")
    return parse_model_text(text, path)
