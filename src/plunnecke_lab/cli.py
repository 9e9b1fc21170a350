"""Batch front end: validation, computation, generation, and check batteries.

`main` parses the command line with argparse, refuses numeric options
outside `_BOUNDS`, and hands the typed namespace to the subcommand's
`_cmd_*` function; every default lives in the parser or in the function
that uses it.

Exit codes: 0 = everything holds / everything valid, 1 = some check came back
false (the counterexample is in the report), 2 = input error (malformed
document, unknown or unwritable file, an option, bundle order or graph
height past its bound, or a check refused because its hypothesis fails),
3 = internal error (any other exception: a bug in the package).  An exit 2,
a command line argparse rejects included, or an exit 3 writes one JSON line
to stderr.

Reports are canonical JSON (sorted keys, fixed layout); timing is off by
default so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import random
import sys
import time
from itertools import repeat
from pathlib import Path

from . import __version__, generators, jsonio
from .commutativity import is_commutative, verify_orbit_commutes
from .density import (banach_density, contains, periodic_sumset,
                      verify_correspondence, verify_density_plunnecke,
                      verify_density_summands, window_scan)
from .dynamics import (MAX_GROUP_ORDER, FinAbGroup, GroupSet, orbit_graph,
                       translation_action, validate_action,
                       verify_different_summands, verify_dyn_plunnecke,
                       verify_heavy_subset, verify_multiplicativity,
                       verify_restricted_plunnecke)
from .errors import HypothesisError, InputError
from .graphcore import validate, verify_flow_duality
from .jsonio import ACTION, GRAPH, INT, MAX_ORDER, PERIODIC, RATIONAL, STR, VECTOR
from .magnification import (cut_weight, cutset_push, magnification_bruteforce,
                            magnification_mincut, min_weight_cutset,
                            verify_bottom_layer_minimal, verify_graph_plunnecke)
from .rational import format_rational, parse_rational
from .reports import CSV_COLUMNS, csv_row


# ---------------------------------------------------------------------------
# Check registry: one row per check id.
# ---------------------------------------------------------------------------


# A row is (library verifier, bundle fields with their schemas, generator,
# generator kind); a key ending in "?" is optional.  The fields are checked
# and read in the row's order, which picks the refusal of a bundle with
# several bad fields and reads each translate set after its action.  The
# verifier takes them in that order, but each X2 right after X, j and k last.
_ACTION_FIELDS = {"action": ACTION, "A": [VECTOR], "B": [STR]}
_ORDERS = {"j": INT, "k": INT}
REGISTRY = {
    "prop-2.10": (verify_flow_duality, {"graph": GRAPH},
                  generators.bundle_flow_duality, "graph"),
    "ex-2.6": (verify_orbit_commutes, {"graph": GRAPH},
               generators.bundle_graph_plunnecke, "orbit"),
    "thm-3.5": (verify_graph_plunnecke, {"graph": GRAPH},
                generators.bundle_graph_plunnecke, "orbit"),
    "cor-3.4": (verify_bottom_layer_minimal, {"graph": GRAPH, "C": RATIONAL},
                generators.bundle_bottom_layer, "orbit"),
    "thm-4.2": (verify_dyn_plunnecke, {**_ACTION_FIELDS, **_ORDERS},
                generators.bundle_dyn_plunnecke, "action"),
    "thm-4.3": (verify_restricted_plunnecke, {**_ACTION_FIELDS, **_ORDERS, "E?": [STR]},
                generators.bundle_restricted, "action"),
    "lemma-5.4": (verify_heavy_subset, {**_ACTION_FIELDS, **_ORDERS, "delta": RATIONAL},
                  generators.bundle_heavy, "action"),
    "lemma-6.1": (verify_multiplicativity,
                  {**_ACTION_FIELDS, "action2": ACTION, "A2": [VECTOR], "B2": [STR]},
                  generators.bundle_multiplicativity, "action"),
    "prop-6.2": (verify_different_summands, {"action": ACTION, "A_list": [[VECTOR]], "B": [STR]},
                 generators.bundle_different_summands, "action"),
    "thm-1.3": (verify_density_plunnecke, {"A": PERIODIC, "B": PERIODIC, **_ORDERS},
                generators.bundle_density_plunnecke, "periodic"),
    "thm-1.4": (verify_density_summands, {"A_list": [PERIODIC], "B": PERIODIC},
                generators.bundle_density_summands, "periodic"),
    "lemma-7.1": (verify_correspondence, {"B": PERIODIC, "A0": PERIODIC},
                  generators.bundle_correspondence, "periodic"),
}


def _argument_order(fields: dict) -> list[str]:
    names = [key.removesuffix("?") for key in fields]
    return sorted(names, key=lambda n: (n in ("j", "k"), names.index(n.removesuffix("2"))))


# Derived from the registry.  `verify` draws instances from CHECKS's
# (verifier, generator, kind) rows, and the benchmark reads them by position.
_ARGUMENTS = {theorem: _argument_order(row[1]) for theorem, row in REGISTRY.items()}
CHECKS = {theorem: (verify, draw, kind)
          for theorem, (verify, _fields, draw, kind) in REGISTRY.items()}


def run_check_bundle(theorem: str, doc: dict, with_timing: bool = False) -> dict:
    """Check and read ``doc`` as a ``theorem`` bundle, then run the check."""
    start = time.perf_counter()
    verify, fields = REGISTRY[theorem][:2]
    bundle = jsonio.read_bundle(theorem, fields, doc)
    report = verify(*[bundle[name] for name in _ARGUMENTS[theorem]], instance=doc["instance"])
    millis = (time.perf_counter() - start) * 1000.0
    row = report.to_doc()
    if with_timing:
        row["millis"] = round(millis, 3)
    return row


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while writing ``path`` as an input error."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _emit(doc: dict, out_path: str | None) -> None:
    text = jsonio.dumps_canonical(doc)
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows: list[dict], path: str) -> None:
    with _writing(path), open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(csv_row(row))


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or a number past the digit limit
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands: each takes the parsed namespace and returns the exit code.
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    rows = []
    bad = False
    for path in args.files:
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
    _emit({"command": "validate", "results": rows}, args.out)
    return 2 if bad else 0


def _cmd_commute(args) -> int:
    rows = []
    all_hold = True
    for path in args.files:
        g = jsonio.graph_from_doc(_load_json(path))
        verdict = is_commutative(g)
        all_hold = all_hold and verdict.holds
        rows.append({
            "file": path,
            "holds": verdict.holds,
            "failing_edge": list(verdict.failing_edge) if verdict.failing_edge else None,
            "edges_checked": len(g.edges),
        })
    _emit({"command": "commute", "results": rows}, args.out)
    return 0 if all_hold else 1


def _cmd_magnify(args) -> int:
    j, method = args.j, args.method
    rows = []
    agree = True
    for path in args.files:
        g = jsonio.graph_from_doc(_load_json(path))
        row = {"file": path, "j": j, "method": method}
        for name, solve in (("brute", magnification_bruteforce), ("mincut", magnification_mincut)):
            if method in (name, "both"):
                res = solve(g, j)
                row["value"] = row[f"value_{name}"] = format_rational(res.value)
                row[f"witness_{name}"] = sorted(res.witness)
        if method == "both":
            row["agree"] = row["value_brute"] == row["value_mincut"]
            agree = agree and row["agree"]
        rows.append(row)
    _emit({"command": "magnify", "results": rows}, args.out)
    return 0 if agree else 1


def _cmd_cutset(args) -> int:
    rate = parse_rational(args.C)
    rows = []
    for path in args.files:
        g = jsonio.graph_from_doc(_load_json(path))
        report = min_weight_cutset(g, rate)
        row = {
            "file": path,
            "C": format_rational(rate),
            "cutset": sorted(report.cutset),
            "weight": format_rational(report.weight),
            "is_minimal": report.is_minimal,
        }
        if args.push is not None:
            start = _parse_ids(args.set) if args.set is not None else report.cutset
            pushed = cutset_push(g, start, rate, args.push)
            row["pushed_from"] = sorted(start)
            row["pushed"] = sorted(pushed)
            row["pushed_weight"] = format_rational(cut_weight(g, pushed, rate))
        rows.append(row)
    _emit({"command": "cutset", "results": rows}, args.out)
    return 0


def _load_bundle(path: str):
    """A bundle file's document; a bundle without an `instance` is named after its file."""
    doc = _load_json(path)
    if type(doc) is dict:
        doc.setdefault("instance", Path(path).stem)
    return doc


def _cmd_verify(args) -> int:
    theorem = args.theorem
    if theorem not in CHECKS:
        raise InputError(
            f"unknown check id {theorem!r}; available: {', '.join(sorted(CHECKS))}")
    _verify, draw, kind = CHECKS[theorem]
    if args.generate is not None and args.generate != kind:
        raise InputError(
            f"check {theorem} draws its instances from kind {kind!r}, not {args.generate!r}")
    if args.files:
        bundles = [_load_bundle(path) for path in args.files]
    else:
        rng = random.Random(args.seed)
        bundles = [draw(rng, f"{kind}-{args.seed}-{i:04d}") for i in range(args.count)]
    workers = min(args.jobs, len(bundles), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: it pulls in multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_check_bundle, repeat(theorem), bundles,
                                 repeat(args.timing)))
    else:
        rows = [run_check_bundle(theorem, bundle, args.timing) for bundle in bundles]
    all_hold = all(row["holds"] for row in rows)
    out_doc = {
        "command": "verify",
        "theorem": theorem,
        "seed": None if args.files else args.seed,
        "count": len(rows),
        "inputs": args.files,
        "holds": all_hold,
        "results": rows,
    }
    _emit(out_doc, args.out)
    if args.csv:
        _write_csv(rows, args.csv)
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


def _parse_ids(text: str) -> frozenset[str]:
    """Semicolon-separated vertex or atom ids."""
    return frozenset(s.strip() for s in text.split(";") if s.strip())


def _cmd_orbit_graph(args) -> int:
    if args.action:
        act = jsonio.action_from_doc(_load_json(args.action))
    elif args.moduli:
        act = translation_action(
            FinAbGroup(tuple(_parse_int(n, "modulus") for n in args.moduli.split(","))))
    else:
        raise InputError("orbit-graph needs --action FILE or --moduli LIST")
    A = GroupSet.of(act.group, _parse_vectors(args.A))
    g = orbit_graph(act, A, _parse_ids(args.Y), args.h)
    _emit(jsonio.graph_to_doc(g), args.out)
    return 0


def _cmd_density(args) -> int:
    sets = [jsonio.periodic_from_doc(_load_json(path)) for path in args.files]
    if args.op == "sumset":
        if len(sets) < 2:
            raise InputError("sumset needs at least two periodic-set files")
        total = sets[0]
        for other in sets[1:]:
            total = periodic_sumset(total, other)
        _emit(jsonio.periodic_to_doc(total), args.out)
        return 0
    rows = []
    for path, A in zip(args.files, sets):
        if args.op == "banach":
            rows.append({"file": path, "density": format_rational(banach_density(A))})
        else:
            upper, lower = window_scan(lambda pt, A=A: contains(A, pt),
                                       args.side, args.radius, dim=A.dim)
            rows.append({"file": path, "side": args.side, "radius": args.radius,
                         "upper": format_rational(upper),
                         "lower": format_rational(lower)})
    _emit({"command": "density", "op": args.op, "results": rows}, args.out)
    return 0


def _cmd_correspond(args) -> int:
    path, = args.files
    B = jsonio.periodic_from_doc(_load_json(path))
    A0 = jsonio.periodic_from_doc(_load_json(args.A0)) if args.A0 else None
    report = verify_correspondence(B, A0, instance=Path(path).stem)
    _emit({"command": "correspond", "results": [report.to_doc()]}, args.out)
    return 0 if report.holds else 1


# Per kind: the generator, the size flags it takes (flag -> keyword) and the
# document writer.  Only the flags a user sets are passed, so every size
# default is the generator's own.
_GENERATORS = {
    "action": (generators.random_action, {"max_n": "max_n"}, jsonio.action_to_doc),
    "graph": (generators.random_layered_graph,
              {"max_layer0": "max_layer0", "max_h": "max_height"}, jsonio.graph_to_doc),
    "orbit": (generators.random_orbit_graph,
              {"max_n": "max_n", "max_a": "max_a", "max_h": "max_h"}, jsonio.graph_to_doc),
    "periodic": (generators.random_periodic_set,
                 {"dim": "dim", "max_period": "max_period"}, jsonio.periodic_to_doc),
}


def _cmd_generate(args) -> int:
    make, flags, to_doc = _GENERATORS[args.kind]
    sizes = {keyword: getattr(args, flag) for flag, keyword in flags.items()
             if getattr(args, flag) is not None}
    out_dir = Path(args.dir)
    made_dirs = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    rng = random.Random(args.seed)
    # A draw can be refused (MAX_ORBIT_EDGES depends on the drawn sizes), and
    # a write can fail, so each document is written under a hidden name and
    # renamed only after the last draw: a refused run leaves no file or
    # directory it created.
    paths = [out_dir / f"{args.kind}_{args.seed:04d}_{i:04d}.json"
             for i in range(args.count)]
    staged = []
    with _writing(out_dir):
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for path in paths:
                staged.append(path.with_name(f".{path.name}.tmp"))
                staged[-1].write_text(jsonio.dumps_canonical(to_doc(make(rng, **sizes))))
        except BaseException:
            for tmp in staged:
                tmp.unlink(missing_ok=True)
            for d in made_dirs:  # deepest first
                with contextlib.suppress(OSError):
                    d.rmdir()
            raise
        for tmp, path in zip(staged, paths):
            tmp.replace(path)
    _emit({"command": "generate", "kind": args.kind, "seed": args.seed,
           "files": [str(path) for path in paths]}, args.out)
    return 0


# The most instances one run draws: `verify` builds every bundle before it
# checks the first.
MAX_COUNT = 10_000
# The largest `generate --dim`: 21 axes of period 2 or more exceed
# MAX_PERIOD_BOX anyway, so this only refuses runs of 1-periods.
MAX_DIM = 20

# The range each numeric option admits, per command (None: no upper bound):
# a cyclic modulus is at least 2, counts, worker numbers, sizes and heights
# are at least 1, a dimension is in 1..MAX_DIM, and no run draws more than
# MAX_COUNT instances.  A height is at most MAX_ORDER, since an orbit
# graph's height is the order of A^h; a modulus, a translate-set size and a
# layer-0 size are at most MAX_GROUP_ORDER.
_BOUNDS = {
    "verify": {"count": (1, MAX_COUNT), "jobs": (1, None)},
    "orbit-graph": {"h": (1, MAX_ORDER)},
    "generate": {"count": (1, MAX_COUNT), "max_n": (2, MAX_GROUP_ORDER),
                 "max_a": (1, MAX_GROUP_ORDER), "max_h": (1, MAX_ORDER),
                 "max_layer0": (1, MAX_GROUP_ORDER),
                 "max_period": (1, None), "dim": (1, MAX_DIM)},
}


def _check_bounds(args) -> None:
    for key, (low, high) in _BOUNDS.get(args.command, {}).items():
        value = getattr(args, key)
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if value < low:
            raise InputError(f"{flag} must be at least {low} (got {value})")
        if high is not None and value > high:
            raise InputError(f"{flag} must be at most {high} (got {value})")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an InputError; subparsers inherit this."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plunnecke-lab",
        description="Exact checks for sumset-growth inequalities on measure "
                    "graphs, group actions, and periodic sets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate graph/action/periodic-set files")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("files", nargs="+")
    p.add_argument("--out")

    p = sub.add_parser("commute", help="decide commutativity of graph files")
    p.set_defaults(handler=_cmd_commute)
    p.add_argument("files", nargs="+")
    p.add_argument("--out")

    p = sub.add_parser("magnify", help="magnification ratio of order j")
    p.set_defaults(handler=_cmd_magnify)
    p.add_argument("files", nargs="+")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--method", choices=["brute", "mincut", "both"], default="mincut")
    p.add_argument("--out")

    p = sub.add_parser("cutset", help="minimum-weight cutset, optionally pushed")
    p.set_defaults(handler=_cmd_cutset)
    p.add_argument("files", nargs="+")
    p.add_argument("--C", required=True, help="weight rate, e.g. 2/1")
    p.add_argument("--push", type=int, help="push the cutset at this layer")
    p.add_argument("--set", help="semicolon-separated cutset to push (default: the minimum)")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run one check over files or generated instances")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("theorem", help=f"one of: {', '.join(sorted(CHECKS))}")
    p.add_argument("files", nargs="*")
    p.add_argument("--generate", help="instance kind (defaults to the check's kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--timing", action="store_true")
    p.add_argument("--out")
    p.add_argument("--csv")

    p = sub.add_parser("orbit-graph", help="emit the orbit graph of an action")
    p.set_defaults(handler=_cmd_orbit_graph)
    p.add_argument("--action", help="action JSON file")
    p.add_argument("--moduli", help="comma-separated moduli for a translation action")
    p.add_argument("--A", required=True, help="translates, e.g. '0;1' or '0,1;1,0'")
    p.add_argument("--Y", required=True, help="semicolon-separated base atom ids")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("density", help="periodic-set density operations")
    p.set_defaults(handler=_cmd_density)
    p.add_argument("op", choices=["sumset", "banach", "scan"])
    p.add_argument("files", nargs="+")
    p.add_argument("--side", type=int, default=10)
    p.add_argument("--radius", type=int, default=30)
    p.add_argument("--out")

    p = sub.add_parser("correspond", help="orbit-system density bridges for a periodic set")
    p.set_defaults(handler=_cmd_correspond)
    p.add_argument("files", nargs=1)
    p.add_argument("--A0", help="periodic-set JSON file of translates")
    p.add_argument("--out")

    p = sub.add_parser("generate", help="write deterministic instance files")
    p.set_defaults(handler=_cmd_generate)
    p.add_argument("kind", choices=sorted(_GENERATORS))
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


def main(argv=None) -> int:
    """Run one command; exceptions are mapped to the exit-code contract."""
    try:
        args = build_parser().parse_args(argv)
        _check_bounds(args)
        return args.handler(args)
    except HypothesisError as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "kind": "hypothesis", "payload": exc.payload},
            sort_keys=True) + "\n")
        return 2
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "kind": "input"}) + "\n")
        return 2
    except Exception as exc:  # any other exception is a bug, not bad input
        sys.stderr.write(json.dumps(
            {"error": f"{type(exc).__name__}: {exc}", "kind": "internal"}) + "\n")
        return 3


def console_main() -> None:
    sys.exit(main())
