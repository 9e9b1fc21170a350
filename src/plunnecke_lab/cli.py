"""Batch front end: validation, computation, generation, and check batteries.

Exit codes: 0 = everything holds / everything valid, 1 = some check came back
false (the counterexample is in the report), 2 = input error (malformed
document, unknown file, or a check refused because its hypothesis fails).

Reports are canonical JSON (sorted keys, fixed layout); timing is off by
default so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import __version__, generators, jsonio
from .commutativity import is_commutative
from .density import (PeriodicSet, banach_density, contains, periodic_sumset,
                      verify_correspondence, verify_density_plunnecke,
                      verify_density_summands, window_scan)
from .dynamics import (FinAbGroup, GroupSet, orbit_graph, translation_action,
                       validate_action, verify_different_summands,
                       verify_dyn_plunnecke, verify_heavy_subset,
                       verify_multiplicativity, verify_restricted_plunnecke)
from .errors import HypothesisError, InputError
from .graphcore import dual, flow, require_valid, validate
from .magnification import (cut_weight, cutset_push, magnification_bruteforce,
                            magnification_mincut, min_weight_cutset,
                            verify_bottom_layer_minimal, verify_graph_plunnecke)
from .rational import format_rational, parse_rational
from .reports import CSV_COLUMNS, VerificationReport, csv_row

JOBS_ENV = "PLUNNECKE_LAB_JOBS"


@dataclass
class RunManifest:
    command: str
    inputs: list[str] = field(default_factory=list)
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Check registry: bundle runners and matching instance generators.
# ---------------------------------------------------------------------------


def _load_action_bundle(doc):
    act = jsonio.action_from_doc(doc["action"])
    A = jsonio.group_set_from_doc(act.group, doc["A"])
    B = jsonio.space_set_from_doc(doc["B"])
    return act, A, B


def _run_flow_duality(doc) -> VerificationReport:
    g = jsonio.graph_from_doc(doc["graph"])
    require_valid(g)
    lhs, rhs = flow(g), flow(dual(g))
    return VerificationReport(doc["instance"], "prop-2.10", lhs, rhs, lhs == rhs)


def _run_orbit_commutes(doc) -> VerificationReport:
    g = jsonio.graph_from_doc(doc["graph"])
    verdict = is_commutative(g)
    details = {}
    if not verdict.holds:
        details["failing_edge"] = list(verdict.failing_edge)
    return VerificationReport(
        doc["instance"], "ex-2.6",
        Fraction(int(verdict.holds)), Fraction(1), verdict.holds,
        details=details)


def _run_graph_plunnecke(doc) -> VerificationReport:
    g = jsonio.graph_from_doc(doc["graph"])
    return verify_graph_plunnecke(g, instance=doc["instance"])


def _run_bottom_layer(doc) -> VerificationReport:
    g = jsonio.graph_from_doc(doc["graph"])
    return verify_bottom_layer_minimal(g, parse_rational(doc["C"]),
                                       instance=doc["instance"])


def _run_dyn_plunnecke(doc) -> VerificationReport:
    act, A, B = _load_action_bundle(doc)
    return verify_dyn_plunnecke(act, A, B, int(doc["j"]), int(doc["k"]),
                                instance=doc["instance"])


def _run_restricted(doc) -> VerificationReport:
    act, A, B = _load_action_bundle(doc)
    E = jsonio.space_set_from_doc(doc.get("E", []))
    return verify_restricted_plunnecke(act, A, B, E, int(doc["j"]), int(doc["k"]),
                                       instance=doc["instance"])


def _run_heavy(doc) -> VerificationReport:
    act, A, B = _load_action_bundle(doc)
    return verify_heavy_subset(act, A, B, parse_rational(doc["delta"]),
                               int(doc["j"]), int(doc["k"]),
                               instance=doc["instance"])


def _run_multiplicativity(doc) -> VerificationReport:
    act = jsonio.action_from_doc(doc["action"])
    act2 = jsonio.action_from_doc(doc["action2"])
    return verify_multiplicativity(
        act, act2,
        jsonio.group_set_from_doc(act.group, doc["A"]),
        jsonio.group_set_from_doc(act2.group, doc["A2"]),
        jsonio.space_set_from_doc(doc["B"]),
        jsonio.space_set_from_doc(doc["B2"]),
        instance=doc["instance"])


def _run_different_summands(doc) -> VerificationReport:
    act = jsonio.action_from_doc(doc["action"])
    A_list = [jsonio.group_set_from_doc(act.group, entry) for entry in doc["A_list"]]
    return verify_different_summands(act, A_list,
                                     jsonio.space_set_from_doc(doc["B"]),
                                     instance=doc["instance"])


def _run_density_plunnecke(doc) -> VerificationReport:
    return verify_density_plunnecke(
        jsonio.periodic_from_doc(doc["A"]), jsonio.periodic_from_doc(doc["B"]),
        int(doc["j"]), int(doc["k"]), instance=doc["instance"])


def _run_density_summands(doc) -> VerificationReport:
    return verify_density_summands(
        [jsonio.periodic_from_doc(entry) for entry in doc["A_list"]],
        jsonio.periodic_from_doc(doc["B"]), instance=doc["instance"])


def _run_correspondence(doc) -> VerificationReport:
    return verify_correspondence(
        jsonio.periodic_from_doc(doc["B"]), jsonio.periodic_from_doc(doc["A0"]),
        instance=doc["instance"])


CHECKS = {
    "prop-2.10": (_run_flow_duality, generators.bundle_flow_duality, "graph"),
    "ex-2.6": (_run_orbit_commutes, generators.bundle_orbit_commutes, "orbit"),
    "thm-3.5": (_run_graph_plunnecke, generators.bundle_graph_plunnecke, "orbit"),
    "cor-3.4": (_run_bottom_layer, generators.bundle_bottom_layer, "orbit"),
    "thm-4.2": (_run_dyn_plunnecke, generators.bundle_dyn_plunnecke, "action"),
    "thm-4.3": (_run_restricted, generators.bundle_restricted, "action"),
    "lemma-5.4": (_run_heavy, generators.bundle_heavy, "action"),
    "lemma-6.1": (_run_multiplicativity, generators.bundle_multiplicativity, "action"),
    "prop-6.2": (_run_different_summands, generators.bundle_different_summands, "action"),
    "thm-1.3": (_run_density_plunnecke, generators.bundle_density_plunnecke, "periodic"),
    "thm-1.4": (_run_density_summands, generators.bundle_density_summands, "periodic"),
    "lemma-7.1": (_run_correspondence, generators.bundle_correspondence, "periodic"),
}


def run_check_bundle(theorem: str, doc: dict, with_timing: bool = False) -> dict:
    runner = CHECKS[theorem][0]
    start = time.perf_counter()
    try:
        report = runner(doc)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        name = doc.get("instance", "?") if isinstance(doc, dict) else "?"
        raise InputError(
            f"malformed {theorem} bundle ({name}): {exc!r}") from exc
    report.millis = (time.perf_counter() - start) * 1000.0
    return report.to_doc(with_timing=with_timing)


def _run_bundle_star(args) -> dict:
    return run_check_bundle(*args)


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _emit(doc: dict, out_path: str | None) -> None:
    text = jsonio.dumps_canonical(doc)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(csv_row(row))


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_validate(manifest: RunManifest) -> int:
    rows = []
    bad = False
    for path in manifest.inputs:
        doc = _load_json(path)
        kind = jsonio.detect_doc_kind(doc)
        if kind == "graph":
            violations = validate(jsonio.graph_from_doc(doc))
        elif kind == "action":
            violations = validate_action(jsonio.action_from_doc(doc))
        else:
            jsonio.periodic_from_doc(doc)
            violations = []
        bad = bad or bool(violations)
        rows.append({"file": path, "kind": kind, "violations": violations})
    _emit({"command": "validate", "results": rows}, manifest.options.get("out"))
    return 2 if bad else 0


def _cmd_commute(manifest: RunManifest) -> int:
    rows = []
    all_hold = True
    for path in manifest.inputs:
        g = jsonio.graph_from_doc(_load_json(path))
        verdict = is_commutative(g)
        all_hold = all_hold and verdict.holds
        rows.append({
            "file": path,
            "holds": verdict.holds,
            "failing_edge": list(verdict.failing_edge) if verdict.failing_edge else None,
            "edges_checked": len(g.edges),
        })
    _emit({"command": "commute", "results": rows}, manifest.options.get("out"))
    return 0 if all_hold else 1


def _cmd_magnify(manifest: RunManifest) -> int:
    opts = manifest.options
    j = int(opts["j"])
    method = opts.get("method", "mincut")
    rows = []
    agree = True
    for path in manifest.inputs:
        g = jsonio.graph_from_doc(_load_json(path))
        row = {"file": path, "j": j, "method": method}
        if method in ("brute", "both"):
            res = magnification_bruteforce(g, j)
            row["value_brute"] = format_rational(res.value)
            row["witness_brute"] = sorted(res.witness)
        if method in ("mincut", "both"):
            res = magnification_mincut(g, j)
            row["value_mincut"] = format_rational(res.value)
            row["witness_mincut"] = sorted(res.witness)
        if method == "both":
            row["agree"] = (row["value_brute"] == row["value_mincut"])
            agree = agree and row["agree"]
            row["value"] = row["value_mincut"]
        else:
            row["value"] = row.get("value_mincut", row.get("value_brute"))
        rows.append(row)
    _emit({"command": "magnify", "results": rows}, manifest.options.get("out"))
    return 0 if agree else 1


def _cmd_cutset(manifest: RunManifest) -> int:
    opts = manifest.options
    rate = parse_rational(opts["C"])
    rows = []
    for path in manifest.inputs:
        g = jsonio.graph_from_doc(_load_json(path))
        report = min_weight_cutset(g, rate)
        row = {
            "file": path,
            "C": format_rational(rate),
            "cutset": sorted(report.cutset),
            "weight": format_rational(report.weight),
            "is_minimal": report.is_minimal,
        }
        push_layer = opts.get("push")
        if push_layer is not None:
            start = (jsonio.space_set_from_doc(opts["set"])
                     if opts.get("set") is not None else report.cutset)
            pushed = cutset_push(g, start, rate, int(push_layer))
            row["pushed_from"] = sorted(start)
            row["pushed"] = sorted(pushed)
            row["pushed_weight"] = format_rational(cut_weight(g, pushed, rate))
        rows.append(row)
    _emit({"command": "cutset", "results": rows}, manifest.options.get("out"))
    return 0


def _cmd_verify(manifest: RunManifest) -> int:
    opts = manifest.options
    theorem = opts["theorem"]
    if theorem not in CHECKS:
        raise InputError(
            f"unknown check id {theorem!r}; available: {', '.join(sorted(CHECKS))}")
    seed = opts.get("seed")
    count = int(opts.get("count", 10))
    with_timing = bool(opts.get("timing"))
    kind = CHECKS[theorem][2]
    asked_kind = opts.get("generate")
    if asked_kind is not None and asked_kind != kind:
        raise InputError(
            f"check {theorem} draws its instances from kind {kind!r}, not {asked_kind!r}")
    bundles: list[dict] = []
    if manifest.inputs:
        for path in manifest.inputs:
            doc = _load_json(path)
            doc.setdefault("instance", Path(path).stem)
            declared = doc.get("theorem")
            if declared is not None and declared != theorem:
                raise InputError(
                    f"{path} declares check {declared!r}, not {theorem!r}")
            bundles.append(doc)
    else:
        rng = random.Random(0 if seed is None else int(seed))
        for i in range(count):
            bundles.append(CHECKS[theorem][1](rng, f"{kind}-{seed or 0}-{i:04d}"))
    jobs = int(opts.get("jobs") or _default_jobs())
    tasks = [(theorem, bundle, with_timing) for bundle in bundles]
    if jobs > 1 and len(tasks) > 1:
        # Imported here: it pulls in multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_run_bundle_star, tasks))
    else:
        rows = [_run_bundle_star(task) for task in tasks]
    all_hold = all(row["holds"] for row in rows)
    out_doc = {
        "command": "verify",
        "theorem": theorem,
        "seed": None if manifest.inputs else int(seed or 0),
        "count": len(rows),
        "inputs": list(manifest.inputs),
        "holds": all_hold,
        "results": rows,
    }
    _emit(out_doc, opts.get("out"))
    if opts.get("csv"):
        _write_csv(rows, opts["csv"])
    return 0 if all_hold else 1


def _parse_int(text, what: str) -> int:
    try:
        return int(text)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be an integer (got {text!r})") from exc


def _parse_vectors(text: str) -> list[tuple[int, ...]]:
    """Semicolon-separated vectors with comma-separated coordinates."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            out.append(tuple(_parse_int(x, "vector coordinate")
                             for x in chunk.split(",")))
    if not out:
        raise InputError(f"no vectors parsed from {text!r}")
    return out


def _cmd_orbit_graph(manifest: RunManifest) -> int:
    opts = manifest.options
    if opts.get("action"):
        act = jsonio.action_from_doc(_load_json(opts["action"]))
    elif opts.get("moduli"):
        act = translation_action(
            FinAbGroup(tuple(_parse_int(n, "modulus")
                             for n in str(opts["moduli"]).split(","))))
    else:
        raise InputError("orbit-graph needs --action FILE or --moduli LIST")
    A = GroupSet.of(act.group, _parse_vectors(opts["A"]))
    Y = frozenset(s.strip() for s in str(opts["Y"]).split(";") if s.strip())
    g = orbit_graph(act, A, Y, int(opts["h"]))
    _emit(jsonio.graph_to_doc(g), opts.get("out"))
    return 0


def _cmd_density(manifest: RunManifest) -> int:
    opts = manifest.options
    op = opts["op"]
    sets = [jsonio.periodic_from_doc(_load_json(path)) for path in manifest.inputs]
    if op == "sumset":
        if len(sets) < 2:
            raise InputError("sumset needs at least two periodic-set files")
        total = sets[0]
        for other in sets[1:]:
            total = periodic_sumset(total, other)
        _emit(jsonio.periodic_to_doc(total), opts.get("out"))
        return 0
    if op == "banach":
        rows = [{"file": path, "density": format_rational(banach_density(A))}
                for path, A in zip(manifest.inputs, sets)]
        _emit({"command": "density", "op": "banach", "results": rows}, opts.get("out"))
        return 0
    if op == "scan":
        side, radius = int(opts["side"]), int(opts["radius"])
        rows = []
        for path, A in zip(manifest.inputs, sets):
            upper, lower = window_scan(lambda pt, A=A: contains(A, pt),
                                       side, radius, dim=A.dim)
            rows.append({"file": path, "side": side, "radius": radius,
                         "upper": format_rational(upper),
                         "lower": format_rational(lower)})
        _emit({"command": "density", "op": "scan", "results": rows}, opts.get("out"))
        return 0
    raise InputError(f"unknown density op {op!r} (expected sumset, banach, or scan)")


def _cmd_correspond(manifest: RunManifest) -> int:
    opts = manifest.options
    if len(manifest.inputs) != 1:
        raise InputError("correspond takes exactly one periodic-set file")
    B = jsonio.periodic_from_doc(_load_json(manifest.inputs[0]))
    A0 = (jsonio.periodic_from_doc(_load_json(opts["A0"]))
          if opts.get("A0") else PeriodicSet.finite(1, [(0,)]))
    report = verify_correspondence(B, A0, instance=Path(manifest.inputs[0]).stem)
    _emit({"command": "correspond", "results": [report.to_doc()]}, opts.get("out"))
    return 0 if report.holds else 1


def _generate_doc(kind: str, rng: random.Random, opts: dict) -> dict:
    if kind == "orbit":
        g = generators.random_orbit_graph(
            rng, max_n=int(opts.get("max_n", 12)),
            max_a=int(opts.get("max_a", 4)), max_h=int(opts.get("max_h", 4)))
        return jsonio.graph_to_doc(g)
    if kind == "graph":
        g = generators.random_layered_graph(
            rng, max_layer0=int(opts.get("max_layer0", 10)),
            max_height=int(opts.get("max_h", 3)))
        return jsonio.graph_to_doc(g)
    if kind == "periodic":
        a = generators.random_periodic_set(
            rng, dim=int(opts["dim"]) if opts.get("dim") else None,
            max_period=int(opts.get("max_period", 12)))
        return jsonio.periodic_to_doc(a)
    if kind == "action":
        return jsonio.action_to_doc(
            generators.random_action(rng, max_n=int(opts.get("max_n", 12))))
    raise InputError(f"unknown kind {kind!r}; available: action, graph, orbit, periodic")


def _cmd_generate(manifest: RunManifest) -> int:
    opts = manifest.options
    kind = opts["kind"]
    seed = int(opts.get("seed", 0))
    count = int(opts.get("count", 1))
    out_dir = Path(opts.get("dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = []
    for i in range(count):
        doc = _generate_doc(kind, rng, opts)
        path = out_dir / f"{kind}_{seed:04d}_{i:04d}.json"
        path.write_text(jsonio.dumps_canonical(doc))
        files.append(str(path))
    _emit({"command": "generate", "kind": kind, "seed": seed, "files": files},
          opts.get("out"))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "commute": _cmd_commute,
    "magnify": _cmd_magnify,
    "cutset": _cmd_cutset,
    "verify": _cmd_verify,
    "orbit-graph": _cmd_orbit_graph,
    "density": _cmd_density,
    "correspond": _cmd_correspond,
    "generate": _cmd_generate,
}


# The smallest value each numeric option admits, per command: a cyclic
# modulus is at least 2, counts, worker numbers, sizes and heights are at
# least 1, and a dimension is positive.
_OPTION_MINIMA = {
    "verify": {"count": 1, "jobs": 1},
    "generate": {"count": 1, "max_n": 2, "max_a": 1, "max_h": 1, "max_layer0": 1,
                 "max_period": 1, "dim": 1},
}

# The most instances one run draws: `verify` builds every bundle before it
# checks the first.
MAX_COUNT = 10_000

# The largest value a numeric option admits, per command.
_OPTION_MAXIMA = {
    "verify": {"count": MAX_COUNT},
    "generate": {"count": MAX_COUNT},
}


def _check_bounds(manifest: RunManifest) -> None:
    opts = manifest.options
    for key, low in _OPTION_MINIMA.get(manifest.command, {}).items():
        if key in opts and int(opts[key]) < low:
            raise InputError(f"--{key.replace('_', '-')} must be at least {low} "
                             f"(got {opts[key]})")
    for key, high in _OPTION_MAXIMA.get(manifest.command, {}).items():
        if key in opts and int(opts[key]) > high:
            raise InputError(f"--{key.replace('_', '-')} must be at most {high} "
                             f"(got {opts[key]})")


def run(manifest: RunManifest) -> int:
    """Execute a manifest; exceptions are mapped to the exit-code contract."""
    handler = _COMMANDS.get(manifest.command)
    if handler is None:
        sys.stderr.write(json.dumps({"error": f"unknown command {manifest.command!r}"}) + "\n")
        return 2
    try:
        _check_bounds(manifest)
        return handler(manifest)
    except HypothesisError as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "kind": "hypothesis", "payload": _payload_doc(exc)},
            sort_keys=True) + "\n")
        return 2
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "input"}) + "\n")
        return 2


def _payload_doc(exc: HypothesisError):
    payload = getattr(exc, "payload", None)
    if payload is None or isinstance(payload, (dict, list, str, int, bool)):
        return payload
    failing = getattr(payload, "failing_edge", None)
    if failing is not None:
        return {"failing_edge": list(failing)}
    return str(payload)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plunnecke-lab",
        description="Exact checks for sumset-growth inequalities on measure "
                    "graphs, group actions, and periodic sets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate graph/action/periodic-set files")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")

    p = sub.add_parser("commute", help="decide commutativity of graph files")
    p.add_argument("files", nargs="+")
    p.add_argument("--out")

    p = sub.add_parser("magnify", help="magnification ratio of order j")
    p.add_argument("files", nargs="+")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method", choices=["brute", "mincut", "both"], default="mincut")
    p.add_argument("--out")

    p = sub.add_parser("cutset", help="minimum-weight cutset, optionally pushed")
    p.add_argument("files", nargs="+")
    p.add_argument("--C", required=True, help="weight rate, e.g. 2/1")
    p.add_argument("--push", type=int, help="push the cutset at this layer")
    p.add_argument("--set", help="semicolon-separated cutset to push (default: the minimum)")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run one check over files or generated instances")
    p.add_argument("theorem", help=f"one of: {', '.join(sorted(CHECKS))}")
    p.add_argument("files", nargs="*")
    p.add_argument("--generate", help="instance kind (defaults to the check's kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--jobs", type=int)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out")
    p.add_argument("--csv")

    p = sub.add_parser("orbit-graph", help="emit the orbit graph of an action")
    p.add_argument("--action", help="action JSON file")
    p.add_argument("--moduli", help="comma-separated moduli for a translation action")
    p.add_argument("--A", required=True, help="translates, e.g. '0;1' or '0,1;1,0'")
    p.add_argument("--Y", required=True, help="semicolon-separated base atom ids")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("density", help="periodic-set density operations")
    p.add_argument("op", choices=["sumset", "banach", "scan"])
    p.add_argument("files", nargs="+")
    p.add_argument("--side", type=int, default=10)
    p.add_argument("--radius", type=int, default=30)
    p.add_argument("--out")

    p = sub.add_parser("correspond", help="orbit-system density bridges for a periodic set")
    p.add_argument("files", nargs=1)
    p.add_argument("--A0", help="periodic-set JSON file of translates")
    p.add_argument("--out")

    p = sub.add_parser("generate", help="write deterministic instance files")
    p.add_argument("kind", choices=["action", "graph", "orbit", "periodic"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dir", default=".")
    p.add_argument("--max-n", dest="max_n", type=int, help="largest cyclic modulus")
    p.add_argument("--max-a", dest="max_a", type=int, help="largest translate-set size")
    p.add_argument("--max-h", dest="max_h", type=int, help="largest height")
    p.add_argument("--max-layer0", dest="max_layer0", type=int)
    p.add_argument("--max-period", dest="max_period", type=int,
                   help="largest period, capped at 6 per axis above 1-D")
    p.add_argument("--dim", type=int)
    p.add_argument("--out")

    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "files") and v is not None}
    inputs = list(getattr(args, "files", []) or [])
    if args.command == "cutset" and options.get("set"):
        options["set"] = [s.strip() for s in options["set"].split(";") if s.strip()]
    return RunManifest(command=args.command, inputs=inputs, options=options)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return run(manifest_from_args(args))


def console_main() -> None:
    sys.exit(main())
