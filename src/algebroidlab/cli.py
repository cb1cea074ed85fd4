"""Command line front end: one subcommand per computational module.

    algebroidlab check      <model> [--name N]
    algebroidlab cohomology <model> [--name N] [--rep R] [--mode weight|jet]
                                    [--window a:b:s] [--deg q]
    algebroidlab pullback   <model> [--name N] [--rep R] --map KIND
                                    [--point ...] [--t ...] [--slice ...]
                                    [--fibre ...] [--fibre-weights ...]
    algebroidlab transversal <model> [--name N] [--rep R] --slice coords
                                    [--window a:b:s]
    algebroidlab ss         <model> [--name N] [--rmax R]
    algebroidlab localize   <model> [--name N] --at i --deg n
    algebroidlab transport  <model> [--name N] [--tol x] [--steps n]
    algebroidlab monodromy  <model> [--name N] [--family F] [--tol x]
    algebroidlab subexhaust <model> [--name N] [--steps n]

Exit status: 0 all checks pass, 1 internal error, 2 a validation or
verdict failure, 3 hypotheses unmet.  Output is a deterministic function
of the input file and flags; pick the encoding with --format.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .errors import LabError, StructuralError, ValidationFailure
from .ratpoly import parse_rational
from .algebroid import validate_algebroid, validate_representation
from .cohomology import cohomology
from .pullback import StructuredMap, pullback_structured, transversal_iso_check
from .covers import (build_double_complex, localization_check, ss_pages,
                     validate_family)
from .transport import monodromy_check, parallel_transport, validate_path_family
from .exhaustion import subexhaust
from .modelfile import ModelFile, parse_model
from .report import (EXIT_INTERNAL, FORMATS, Report, cell, emit_report)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # keep exit status 1 for usage problems; 2 is reserved for failed checks
    def error(self, message):
        raise _UsageError(message)


def _parse_window(text: str) -> Tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise StructuralError("window must look like a:b:s")
    try:
        a, b, s = (int(p) for p in parts)
    except ValueError:
        raise StructuralError("window must be three integers a:b:s")
    return a, b, s


def _parse_rationals(text: str) -> Tuple[Fraction, ...]:
    if not text.strip():
        return ()
    return tuple(parse_rational(p.strip()) for p in text.split(","))


def _parse_ints(text: str) -> Tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise StructuralError(f"expected a comma list of integers, got {text!r}")


def _parse_names(text: str) -> Tuple[str, ...]:
    if not text.strip():
        return ()
    return tuple(p.strip() for p in text.split(","))


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    top = _Parser(prog="algebroidlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="cmd", required=True, metavar="command")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="model file path")
        p.add_argument("--name", help="which section to use")
        p.add_argument("--format", choices=FORMATS, default="text")
        return p

    add("check", "validate every object in the file")

    p = add("cohomology", "betti numbers by weight stratum or jet window")
    p.add_argument("--rep", help="coefficient representation section")
    p.add_argument("--mode", choices=("weight", "jet"), default="weight")
    p.add_argument("--window", default="2:5:3", help="jet windows a:b:s")
    p.add_argument("--deg", type=int, help="restrict to one degree")

    p = add("pullback", "pull an algebroid back along a structured map")
    p.add_argument("--rep", help="carry this representation along")
    p.add_argument("--map", required=True, dest="map_kind",
                   choices=StructuredMap.KINDS)
    p.add_argument("--point", default="", help="rational target point p/q,...")
    p.add_argument("--t", default=None, help="rescale factor p/q")
    p.add_argument("--slice", default="", dest="slice_", help="kept coordinates")
    p.add_argument("--fibre", default="", help="projection fibre coordinate names")
    p.add_argument("--fibre-weights", default="", help="weights for --fibre")

    p = add("transversal", "compare cohomology with its transversal slice")
    p.add_argument("--rep", help="coefficient representation section")
    p.add_argument("--slice", default="", dest="slice_",
                   help="kept coordinate indices i,j,... (default: none)")
    p.add_argument("--window", default="3:5:3", help="jet windows a:b:s")

    p = add("ss", "spectral sequence of a chart-local family")
    p.add_argument("--rmax", type=int, default=4, help="last page to compute")

    p = add("localize", "restriction of total classes to one chart fibre")
    p.add_argument("--at", type=int, required=True, help="chart index")
    p.add_argument("--deg", type=int, required=True, help="total degree")

    p = add("transport", "integrate the frame flow of a moving fibre")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--steps", type=int, default=1 << 16,
                   help="series term budget")

    p = add("monodromy", "compare loop transport with the cover's holonomy")
    p.add_argument("--family", help="local-system family section")
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("subexhaust", "interleave chart exhaustions over a graph")
    p.add_argument("--steps", type=int, default=10, help="stages per chart")
    return top


# ---------------------------------------------------------------- commands

_FLAG_NAMES = {"map_kind": "map", "slice_": "slice",
               "fibre_weights": "fibre-weights"}


def _echo(cmd: str, path: str, flags: Dict[str, object]) -> str:
    parts = [cmd, path]
    for key in sorted(flags):
        val = flags[key]
        if val in (None, ""):
            continue
        parts.append(f"--{_FLAG_NAMES.get(key, key)} {val}")
    return " ".join(parts)


def _cmd_check(model: ModelFile, flags, rep: Report):
    only = flags.get("name")
    t = rep.table("checks", ("name", "kind", "ok", "detail"))

    def validated(vr, fine=None):
        """(ok, detail, witness); the first failing check names the detail."""
        bad = vr.failing()
        return (vr.ok, bad[0].name if bad else fine or f"order {vr.certified_order}",
                bad[0].witness if bad else None)

    kinds = (("algebroid", model.algebroids, lambda a: validated(validate_algebroid(a))),
             ("representation", model.representations,
              lambda rho: validated(validate_representation(rho))),
             ("cover", model.covers, lambda c: (True, "well formed", None)),
             ("family", model.families, lambda f: validated(validate_family(f), "compatible")),
             ("path_family", model.path_families,
              lambda pf: validated(validate_path_family(pf), "flat")),
             ("exhaustion", model.exhaustions, lambda e: (True, "well formed", None)))
    all_ok = True
    found = False
    for kind, pool, check in kinds:
        for name in sorted(pool):
            if only and name != only:
                continue
            ok, detail, witness = check(pool[name])
            found = True
            all_ok = all_ok and ok
            t.add(name, kind, ok, detail)
            if witness:
                rep.witness({"name": name, **witness})
    if not found:
        raise StructuralError(
            f"nothing named '{only}' in {model.path}" if only
            else f"{model.path} defines no sections")
    rep.verdict = "pass" if all_ok else "fail"


def _pick_rep(model: ModelFile, flags, algebra):
    rep_name = flags.get("rep")
    if rep_name is None:
        return None
    _, rho = model.pick("representation", rep_name)
    if rho.algebroid is not algebra:
        raise StructuralError(
            f"representation '{rep_name}' acts on '{rho.algebroid.name}', "
            "not the selected algebroid")
    return rho


def _cmd_cohomology(model: ModelFile, flags, rep: Report):
    _, a = model.pick("algebroid", flags.get("name"))
    rho = _pick_rep(model, flags, a)
    window = _parse_window(flags.get("window", "2:5:3"))
    deg = flags.get("deg")
    degrees = None if deg is None else [deg]
    result = cohomology(a, rho, mode=flags.get("mode", "weight"),
                        window=window, degrees=degrees)
    t = rep.table("betti", ("degree", "weight", "window", "betti",
                            "stabilized", "exact"))
    for row in result.rows:
        t.add(row.degree, row.weight,
              "%d:%d:%d" % row.window if row.window else None,
              row.betti, row.stabilized, row.exact)
    if result.dims:
        td = rep.table("cochain_dims", ("degree", "dim"))
        for q in sorted(result.dims):
            td.add(q, result.dims[q])
    rep.verdict = "pass"


def _structured_map(flags) -> StructuredMap:
    kind = flags["map_kind"]
    at = _parse_rationals(flags.get("point", ""))
    keep = _parse_ints(flags.get("slice_", ""))
    fibre = _parse_names(flags.get("fibre", ""))
    fw = _parse_ints(flags.get("fibre_weights", ""))
    t = flags.get("t")
    return StructuredMap(kind, keep=keep, at=at, fibre_names=fibre,
                         fibre_weights=fw or None,
                         t=parse_rational(t) if t is not None else None)


def _cmd_pullback(model: ModelFile, flags, rep: Report):
    _, a = model.pick("algebroid", flags.get("name"))
    rho = _pick_rep(model, flags, a)
    phi = _structured_map(flags)
    pulled, pulled_rep, pr = pullback_structured(phi, a, rho)
    t = rep.table("pullback", ("kind", "rank", "vars", "jet_order",
                               "transverse"))
    t.add(pr.kind, pr.rank, ", ".join(pulled.var_names) or "-",
          pulled.jet_order,
          pr.transversality.transverse if pr.transversality else None)
    if pr.transversality:
        for s in pr.transversality.details:
            rep.witness(s)
    for note in pr.frame_note:
        rep.notes.append(note)
    if pulled_rep is not None:
        rep.notes.append(f"representation carried along, rank {pulled_rep.rank}")
    rep.verdict = "pass"


def _cmd_transversal(model: ModelFile, flags, rep: Report):
    _, a = model.pick("algebroid", flags.get("name"))
    rho = _pick_rep(model, flags, a)
    keep = _parse_ints(flags.get("slice_", ""))
    window = _parse_window(flags.get("window", "3:5:3"))
    result = transversal_iso_check(a, rho, keep, window=window)
    t = rep.table("restriction", ("degree", "betti_total", "betti_slice",
                                  "equal", "surjective"))
    for row in result.rows:
        t.add(row.degree, row.betti_total, row.betti_slice, row.equal,
              row.restriction_surjective)
    rep.notes.append(f"slice rank {result.slice_rank}, windows "
                     f"{result.window[0]}:{result.window[1]}:{result.window[2]}")
    rep.verdict = "pass" if result.ok else "fail"


def _cmd_ss(model: ModelFile, flags, rep: Report):
    _, fam = model.pick("family", flags.get("name"))
    dc = build_double_complex(fam, fam.cover)
    result = ss_pages(dc, r_max=flags.get("rmax", 4))
    t = rep.table("pages", ("page", "p", "q", "dim", "d_rank"))
    for page in result.pages:
        for (p, q) in sorted(page.dims):
            if page.dims[(p, q)] or page.d_ranks.get((p, q)):
                t.add(page.r, p, q, page.dims[(p, q)],
                      page.d_ranks.get((p, q), 0))
    te = rep.table("e_infinity", ("p", "q", "dim"))
    for (p, q) in sorted(result.e_infinity):
        if result.e_infinity[(p, q)]:
            te.add(p, q, result.e_infinity[(p, q)])
    tt = rep.table("total", ("degree", "betti"))
    for n, b in enumerate(result.total_betti):
        tt.add(n, b)
    rep.notes.append(f"stable from page {result.stable_from}")
    ok = result.convergence_ok and result.e2_ok
    if not result.convergence_ok:
        rep.witness({"check": "terminal page vs total cohomology"})
    if not result.e2_ok:
        rep.witness({"check": "second page vs simplicial oracle",
                     "oracle": {f"{p},{q}": d for (p, q), d
                                in sorted(result.e2_oracle.items())}})
    rep.verdict = "pass" if ok else "fail"


def _cmd_localize(model: ModelFile, flags, rep: Report):
    _, fam = model.pick("family", flags.get("name"))
    result = localization_check(fam, fam.cover, flags["at"], flags["deg"])
    t = rep.table("localization", ("degree", "chart", "total_dim",
                                   "fibre_dim", "kernel_dim", "branch"))
    t.add(result.degree, result.chart, result.total_dim,
          result.fibre_dim, result.kernel_dim, result.branch)
    th = rep.table("hypotheses", ("hypothesis", "holds"))
    for key in sorted(result.hypotheses):
        th.add(key, result.hypotheses[key])
    rep.verdict = result.verdict


def _cmd_transport(model: ModelFile, flags, rep: Report):
    _, pf = model.pick("path_family", flags.get("name"))
    result = parallel_transport(pf, tol=flags.get("tol", 1e-8),
                                max_steps=flags.get("steps", 1 << 16))
    t = rep.table("transport", ("steps", "defect", "exact", "invertible",
                                "loop"))
    t.add(result.steps, float(result.defect), result.exact, result.det_nonzero,
          result.is_loop)
    tp = rep.table("frame_map", ("row", "entries"))
    for i, row in enumerate(result.phi.rows):
        tp.add(i, row)
    if result.q_rep is not None:
        tq = rep.table("rep_map", ("row", "entries"))
        for i, row in enumerate(result.q_rep.rows):
            tq.add(i, row)
    if result.mon is not None:
        tm = rep.table("monodromy", ("degree", "dim", "matrix"))
        for q in sorted(result.mon):
            m = result.mon[q]
            tm.add(q, m.nrows, m if m.nrows else "-")
    rep.verdict = "pass" if result.det_nonzero else "fail"


def _cmd_monodromy(model: ModelFile, flags, rep: Report):
    _, pf = model.pick("path_family", flags.get("name"))
    _, fam = model.pick("family", flags.get("family"))
    result = monodromy_check(pf, fam, tol=flags.get("tol", 1e-8))
    t = rep.table("comparison", ("degree", "cover_holonomy",
                                 "transport_induced", "equal"))
    for q in sorted(result.by_degree):
        cech, trans = result.by_degree[q]
        t.add(q, cech if cech.nrows else "-", trans if trans.nrows else "-",
              cech.rows == trans.rows)
    rep.notes.append("loop " + " -> ".join(str(i) for i in result.loop))
    rep.notes.append(
        f"series terms {result.steps}, endpoint map "
        + ("exact" if result.exact_transport
           else f"within certified radius {cell(float(result.radius))}")
        + f", largest entry gap {cell(float(result.max_diff))}")
    if result.matched_exactly:
        rep.notes.append("matched entry for entry")
    rep.verdict = "match" if result.match else "mismatch"


def _cmd_subexhaust(model: ModelFile, flags, rep: Report):
    _, ep = model.pick("exhaustion", flags.get("name"))
    result = subexhaust(ep, steps=flags.get("steps", 10))
    t = rep.table("stages", ("chart", "selection"))
    for i in sorted(result.alphas):
        t.add(ep.charts[i], result.alphas[i])
    if result.pair_order:
        rep.notes.append("pairs swept: " + "; ".join(
            f"({i},{j})" for i, j in result.pair_order))
    rep.verdict = "pass" if result.verified else "fail"


_COMMANDS = {
    "check": _cmd_check,
    "cohomology": _cmd_cohomology,
    "pullback": _cmd_pullback,
    "transversal": _cmd_transversal,
    "ss": _cmd_ss,
    "localize": _cmd_localize,
    "transport": _cmd_transport,
    "monodromy": _cmd_monodromy,
    "subexhaust": _cmd_subexhaust,
}


def run_command(cmd: str, model: ModelFile, flags: Dict[str, object]) -> Report:
    """Dispatch one command against a parsed model.

    Negative mathematical outcomes come back as reports with failing
    verdicts; malformed requests raise.
    """
    if cmd not in _COMMANDS:
        raise StructuralError(f"unknown command {cmd!r}")
    rep = Report(_echo(cmd, model.path, flags))
    start = time.perf_counter()
    _COMMANDS[cmd](model, flags, rep)
    rep.elapsed = time.perf_counter() - start
    return rep


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"algebroidlab: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    flags = {k: v for k, v in vars(args).items()
             if k not in ("cmd", "model", "format")}
    fmt = args.format
    echo = _echo(args.cmd, args.model, flags)
    try:
        model = parse_model(args.model)
        rep = run_command(args.cmd, model, flags)
    except ValidationFailure as exc:
        rep = Report(echo, verdict="fail", notes=[str(exc)])
        rep.witness(exc.witness)
    except StructuralError as exc:
        rep = Report(echo, verdict="fail", notes=[str(exc)])
    except LabError as exc:
        rep = Report(echo, verdict="error", notes=[str(exc)])
    except Exception as exc:                      # noqa: BLE001 - exit taxonomy
        rep = Report(echo, verdict="error",
                     notes=[f"internal error: {type(exc).__name__}: {exc}"])
    out = emit_report(rep, fmt)
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    if rep.elapsed is not None and fmt == "text" and sys.stderr.isatty():
        print(f"[{rep.elapsed:.3f}s]", file=sys.stderr)
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
