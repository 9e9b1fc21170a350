import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from plunnecke_lab import cli, density, dynamics, generators, jsonio
from plunnecke_lab.cli import MAX_COUNT, MAX_ORDER, main
from plunnecke_lab.reports import CSV_COLUMNS


@pytest.fixture
def o1_file(tmp_path, o1):
    path = tmp_path / "O1.json"
    path.write_text(jsonio.dumps_canonical(jsonio.graph_to_doc(o1)))
    return str(path)


@pytest.fixture
def chain_file(tmp_path, chain_counterexample):
    path = tmp_path / "chain.json"
    path.write_text(jsonio.dumps_canonical(jsonio.graph_to_doc(chain_counterexample)))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    doc = {
        "height": 1,
        "labels": ["a"],
        "vertices": [
            {"id": "v0", "layer": 0, "weight": "1/1"},
            {"id": "v1", "layer": 1, "weight": "2/1"},
        ],
        "edges": [{"tail": "v0", "head": "v1", "label": "a"}],
    }
    path = tmp_path / "broken.json"
    path.write_text(jsonio.dumps_canonical(doc))
    return str(path)


# The checks whose bundles carry orders j and k.
_ORDER_CHECKS = ("thm-4.2", "thm-4.3", "lemma-5.4", "thm-1.3")


def _order_bundle(check_id):
    return cli.CHECKS[check_id][1](random.Random(5), check_id)


def _z4_bundle(j, k, **extra):
    """A bundle over Z/4 acting on itself, translates {0, 1}, B = {0, 1}."""
    z4 = dynamics.translation_action(dynamics.FinAbGroup((4,)))
    return {"instance": "z4", "action": jsonio.action_to_doc(z4),
            "A": [[0], [1]], "B": ["0", "1"], "j": j, "k": k, **extra}


def _stdout_doc(capsys):
    return json.loads(capsys.readouterr().out)


class TestValidate:
    def test_valid_graph(self, o1_file, capsys):
        assert main(["validate", o1_file]) == 0
        doc = _stdout_doc(capsys)
        assert doc["results"][0]["violations"] == []

    def test_huge_modulus_action_validates_fast(self, tmp_path, capsys):
        path = tmp_path / "fixed.json"
        path.write_text('{"moduli": [1000000000000], "atoms": [{"id": "x", "weight": "1"}], '
                        '"generators": [{"perm": {"x": "x"}}]}')
        start = time.perf_counter()
        assert main(["validate", str(path)]) == 0
        assert time.perf_counter() - start < 1
        assert _stdout_doc(capsys)["results"][0]["violations"] == []

    def test_weight_mismatch_exits_two(self, broken_file, capsys):
        assert main(["validate", broken_file]) == 2
        doc = _stdout_doc(capsys)
        assert "edge weight mismatch (v0,v1,a)" in doc["results"][0]["violations"]

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2


class TestCommute:
    def test_commutative_graph(self, o1_file, capsys):
        assert main(["commute", o1_file]) == 0
        assert _stdout_doc(capsys)["results"][0]["holds"]

    def test_counterexample_exits_one(self, chain_file, capsys):
        assert main(["commute", chain_file]) == 1
        row = _stdout_doc(capsys)["results"][0]
        assert row["failing_edge"] == ["v0", "v1", "a"]


class TestMagnify:
    def test_both_methods_agree_on_o1(self, o1_file, capsys):
        assert main(["magnify", o1_file, "--j", "2", "--method", "both"]) == 0
        row = _stdout_doc(capsys)["results"][0]
        assert row["value"] == "3/1"
        assert row["agree"] is True


class TestCutset:
    def test_minimum_and_push(self, o1_file, capsys):
        assert main(["cutset", o1_file, "--C", "1/1"]) == 0
        row = _stdout_doc(capsys)["results"][0]
        assert row["weight"] == "1/4"
        assert main(["cutset", o1_file, "--C", "1/1", "--push", "1",
                     "--set", "0@1;1@1"]) == 0
        row = _stdout_doc(capsys)["results"][0]
        assert row["pushed"] == ["0@0"]
        assert row["pushed_weight"] == "1/4"


class TestVerify:
    def test_generated_battery_matches_requested_count(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify", "thm-3.5", "--generate", "orbit", "--seed", "7",
                     "--count", "100", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["count"] == 100
        assert doc["holds"] is True
        assert doc["seed"] == 7
        assert len(doc["results"]) == 100

    def test_instance_files_are_accepted(self, tmp_path, o1_file):
        bundle = {"instance": "O1", "theorem": "thm-3.5",
                  "graph": json.loads(open(o1_file).read())}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "thm-3.5", str(path)]) == 0

    def test_theorem_mismatch_exits_two(self, tmp_path, o1_file):
        bundle = {"instance": "O1", "theorem": "thm-4.2",
                  "graph": json.loads(open(o1_file).read())}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "thm-3.5", str(path)]) == 2

    def test_unknown_check_exits_two(self):
        assert main(["verify", "thm-9.9"]) == 2

    def test_hypothesis_refusal_exits_two(self, tmp_path, o1_file):
        bundle = {"instance": "O1", "graph": json.loads(open(o1_file).read()),
                  "C": "5/1"}  # 25 > D_2 = 3
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "cor-3.4", str(path)]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("check_id, bundle, line", [
        ("thm-3.5", {"graph": "chain"},
         '{"error": "graph is not commutative (edge (\'v0\', \'v1\', \'a\'))", '
         '"kind": "hypothesis", "payload": {"failing_edge": ["v0", "v1", "a"]}}'),
        ("cor-3.4", {"graph": "chain", "C": "1/1"},
         '{"error": "graph is not commutative (edge (\'v0\', \'v1\', \'a\'))", '
         '"kind": "hypothesis", "payload": {"failing_edge": ["v0", "v1", "a"]}}'),
        ("cor-3.4", {"graph": "O1", "C": "5/1"},
         '{"error": "C^h = 25/1 exceeds the top magnification ratio 3/1", '
         '"kind": "hypothesis", "payload": {"C": "5/1", "d_h": "3/1"}}'),
        ("thm-1.4", {"A_list": [{"dim": 1, "period": [2], "residues": [[0]]}],
                     "B": {"dim": 1, "finite": [[0]]}},
         '{"error": "B has zero density; the bound is vacuous there", '
         '"kind": "hypothesis", "payload": {"d_base": "0/1"}}'),
    ], ids=["thm-3.5-commutativity", "cor-3.4-commutativity", "cor-3.4-rate",
            "thm-1.4-zero-density"])
    def test_hypothesis_refusals_write_one_json_line(self, tmp_path, capsys, chain_file,
                                                     o1_file, check_id, bundle, line, jobs):
        graphs = {"chain": chain_file, "O1": o1_file}
        if "graph" in bundle:
            bundle = {**bundle, "graph": json.loads(Path(graphs[bundle["graph"]]).read_text())}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"instance": "refused", **bundle}))
        assert main(["verify", check_id, str(path), str(path), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", line + "\n")

    def test_wrong_generator_kind_exits_two(self):
        assert main(["verify", "thm-3.5", "--generate", "periodic"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--count", "0"), ("--count", "-3"), ("--jobs", "0"), ("--jobs", "-1"),
    ])
    def test_non_positive_count_or_jobs_exits_two(self, tmp_path, capsys, flag, value):
        out = tmp_path / "r.json"
        assert main(["verify", "thm-3.5", "--seed", "3", flag, value,
                     "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "input"
        assert not out.exists()

    def test_count_past_the_maximum_exits_two_before_drawing(self, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(*_args):
            raise AssertionError("a bundle was drawn")

        runner, _generate, kind = cli.CHECKS["thm-3.5"]
        monkeypatch.setitem(cli.CHECKS, "thm-3.5", (runner, refuse, kind))
        out = tmp_path / "r.json"
        assert main(["verify", "thm-3.5", "--count", str(MAX_COUNT + 1),
                     "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and f"at most {MAX_COUNT}" in err["error"]
        assert not out.exists()

    def test_malformed_bundle_field_exits_two(self, tmp_path):
        bundle = {
            "instance": "bad",
            "action": {"moduli": [2],
                       "atoms": [{"id": "0", "weight": "1/2"},
                                 {"id": "1", "weight": "1/2"}],
                       "generators": [{"perm": {"0": "1", "1": "0"}}]},
            "A": [[0]], "B": ["0"], "j": "x", "k": 2,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "thm-4.2", str(path)]) == 2

    def test_missing_bundle_field_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": "bad", "j": 1, "k": 2}))
        assert main(["verify", "thm-4.2", str(path)]) == 2

    def test_csv_has_the_documented_columns(self, tmp_path):
        csv_path = tmp_path / "r.csv"
        out = tmp_path / "r.json"
        assert main(["verify", "thm-1.3", "--seed", "3", "--count", "5",
                     "--out", str(out), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 6

    def test_parallel_run_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["verify", "thm-4.2", "--seed", "5", "--count", "6"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("cores, workers", [(4, [4]), (1, []), (None, [])])
    def test_workers_are_capped_at_the_core_count(self, tmp_path, monkeypatch,
                                                  cores, workers):
        import concurrent.futures

        started = []

        class SerialPool:
            """Records its size and maps in this process: no worker starts."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        base = ["verify", "prop-2.10", "--seed", "4", "--count", "6"]
        ref = tmp_path / "ref.json"
        assert main(base + ["--jobs", "1", "--out", str(ref)]) == 0
        # without --jobs the run is serial: only the first run starts workers
        for flags in (["--jobs", "10000"], []):
            out = tmp_path / "out.json"
            assert main(base + flags + ["--out", str(out)]) == 0
            assert out.read_bytes() == ref.read_bytes()
        assert started == workers

    def test_jobs_default_to_one_whatever_the_environment(self, tmp_path, monkeypatch):
        import concurrent.futures

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a serial run started a worker pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "env.json"
        ref = tmp_path / "ref.json"
        base = ["verify", "prop-2.10", "--seed", "4", "--count", "6"]
        assert main(base + ["--jobs", "1", "--out", str(ref)]) == 0
        monkeypatch.setenv("PLUNNECKE_LAB_JOBS", "2")
        assert main(base + ["--out", str(out)]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_timing_flag_adds_millis(self, tmp_path):
        with_t = tmp_path / "t.json"
        without_t = tmp_path / "n.json"
        base = ["verify", "thm-1.4", "--seed", "9", "--count", "3"]
        assert main(base + ["--out", str(without_t)]) == 0
        assert main(base + ["--timing", "--out", str(with_t)]) == 0
        rows = json.loads(without_t.read_text())["results"]
        assert all("millis" not in row for row in rows)
        rows = json.loads(with_t.read_text())["results"]
        assert all("millis" in row for row in rows)


class TestMalformedBundlesExitTwo:
    @pytest.mark.parametrize("text", ["[1, 2]", '"x"', "7", "null"])
    def test_bundle_that_is_not_a_json_object_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        assert main(["verify", "thm-3.5", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "expected a JSON object" in err["error"]

    def test_rate_past_the_digit_limit_exits_two(self, o1_file, capsys):
        assert main(["cutset", o1_file, "--C", "3" * 5000]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "digit limit" in err["error"]

    def test_comparand_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        # (1 - delta) ** -64 with a 100-digit delta denominator: 6400 digits
        bundle = _z4_bundle(j=1, k=MAX_ORDER, delta="1/" + "3" * 100)
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", "lemma-5.4", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "digit limit" in err["error"]

    def test_json_number_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 1, "finite": [[' + "3" * 5000 + "]]}")
        assert main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "input"

    @pytest.mark.parametrize("check_id", _ORDER_CHECKS)
    @pytest.mark.parametrize("key, value", [("j", 1.9), ("j", True), ("j", "1"),
                                            ("k", 3.0), ("k", None)])
    def test_non_integer_order_exits_two(self, tmp_path, capsys, check_id, key, value):
        bundle = _order_bundle(check_id)
        bundle[key] = value
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", check_id, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and f"order {key} must be an integer" in err["error"]

    @pytest.mark.parametrize("check_id", _ORDER_CHECKS)
    def test_order_past_the_bound_exits_two_before_any_sumset(self, tmp_path, capsys,
                                                               monkeypatch, check_id):
        def refuse(*_args):
            raise AssertionError("a sumset was formed")

        monkeypatch.setattr(dynamics, "iterate", refuse)
        monkeypatch.setattr(density, "iterate_sumset", refuse)
        bundle = _order_bundle(check_id)
        bundle["k"] = MAX_ORDER + 1
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        assert main(["verify", check_id, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "MAX_ORDER" in err["error"]

    def test_huge_order_is_refused_at_once(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(_z4_bundle(j=1, k=20000)))
        start = time.perf_counter()
        assert main(["verify", "thm-4.2", str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert "MAX_ORDER" in json.loads(capsys.readouterr().err)["error"]

    def test_translate_sumset_past_the_pair_budget_is_refused_at_once(
            self, tmp_path, capsys):
        # |A + A| = 45150 sums of 300 translates, then 45150 * 300 pairs
        one_atom = {"moduli": [10 ** 9], "atoms": [{"id": "x", "weight": "1"}],
                    "generators": [{"perm": {"x": "x"}}]}
        translates = random.Random(12).sample(range(10 ** 9), 300)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"instance": "wide", "action": one_atom,
                                    "A": [[t] for t in translates], "B": ["x"],
                                    "j": 1, "k": 3}))
        start = time.perf_counter()
        assert main(["verify", "thm-4.2", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "MAX_SUMSET_PAIRS" in err["error"]

    def test_order_at_the_bound_runs(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(_z4_bundle(j=1, k=MAX_ORDER)))
        assert main(["verify", "thm-4.2", str(path)]) == 0


    @pytest.mark.parametrize("check_id", ["thm-3.5", "cor-3.4"])
    def test_graph_height_past_the_bound_is_refused_at_once(self, tmp_path, capsys,
                                                             check_id):
        bundle = cli.CHECKS[check_id][1](random.Random(3), check_id)
        bundle["graph"]["height"] = 10 ** 9
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(bundle))
        start = time.perf_counter()
        assert main(["verify", check_id, str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"graph.height must be at most MAX_ORDER ({MAX_ORDER}) "
                                f"(got {10 ** 9})", "kind": "input"}

    @pytest.mark.parametrize("argv", [["magnify", "--j", "2"], ["cutset", "--C", "1"],
                                      ["commute"], ["validate"]])
    def test_graph_file_past_the_height_bound_exits_two(self, tmp_path, capsys, o1, argv):
        doc = jsonio.graph_to_doc(o1)
        doc["height"] = 10 ** 9
        path = tmp_path / "tall.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main([*argv, str(path)]) == 2
        assert time.perf_counter() - start < 1
        assert "graph.height" in json.loads(capsys.readouterr().err)["error"]


class TestUnwritableOutput:
    """A path that cannot be written is an input error (exit 2), not a bug."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "blocker"
        path.write_text("a regular file\n")
        return path

    def _refused(self, capsys, path):
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input"
        assert err["error"].startswith(f"cannot write {path}: ")

    def test_out_under_a_regular_file_exits_two(self, capsys, blocker):
        out = blocker / "r.json"
        assert main(["verify", "thm-3.5", "--count", "1", "--out", str(out)]) == 2
        self._refused(capsys, out)

    def test_csv_under_a_regular_file_exits_two(self, tmp_path, capsys, blocker):
        csv_path = blocker / "r.csv"
        assert main(["verify", "thm-1.3", "--count", "2", "--out", str(tmp_path / "r.json"),
                     "--csv", str(csv_path)]) == 2
        self._refused(capsys, csv_path)

    # the last one creates "new", then fails on a name past the length limit
    @pytest.mark.parametrize("parts", [("blocker",), ("blocker", "new", "dir"),
                                       ("new", "x" * 300)])
    def test_unwritable_generate_dir_exits_two_and_leaves_nothing(self, tmp_path, capsys,
                                                                   blocker, parts):
        out_dir = tmp_path.joinpath(*parts)
        assert main(["generate", "periodic", "--count", "3", "--dir", str(out_dir)]) == 2
        self._refused(capsys, out_dir)
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "a regular file\n"


class TestDeterminism:
    def test_verify_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["verify", "lemma-6.1", "--seed", "11", "--count", "8",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_files_are_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "g1", tmp_path / "g2"
        for d in (d1, d2):
            assert main(["generate", "periodic", "--seed", "2", "--count", "4",
                         "--dir", str(d), "--out", str(d / "manifest.json")]) == 0
        for i in range(4):
            name = f"periodic_0002_{i:04d}.json"
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestGenerateCommand:
    @pytest.mark.parametrize("kind, flag, value", [
        ("action", "--max-n", "1"), ("orbit", "--max-n", "0"),
        ("orbit", "--max-h", "0"), ("orbit", "--max-a", "0"),
        ("graph", "--max-layer0", "0"), ("periodic", "--max-period", "0"),
        ("periodic", "--dim", "0"),
    ])
    def test_bounds_below_their_minimum_exit_two(self, tmp_path, kind, flag, value):
        proc = subprocess.run(
            [sys.executable, "-m", "plunnecke_lab", "generate", kind, flag, value,
             "--dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["kind"] == "input"
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize("kind, flag, value", [
        ("orbit", "--max-h", MAX_ORDER + 1), ("graph", "--max-h", MAX_ORDER + 1),
        ("graph", "--max-layer0", dynamics.MAX_GROUP_ORDER + 1),
        ("action", "--max-n", dynamics.MAX_GROUP_ORDER + 1),
        ("orbit", "--max-a", dynamics.MAX_GROUP_ORDER + 1),
    ])
    def test_sizes_past_their_maximum_exit_two(self, tmp_path, capsys, kind, flag, value):
        out_dir = tmp_path / "gen"
        assert main(["generate", kind, flag, str(value), "--dir", str(out_dir)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"{flag} must be at most {value - 1} (got {value})",
                       "kind": "input"}
        assert not out_dir.exists()

    def test_cyclic_action_past_the_budget_is_refused_at_once(self, tmp_path, capsys):
        # --max-n is in range, but three cycles of length 500000 are not
        start = time.perf_counter()
        assert main(["generate", "action", "--seed", "3", "--max-n", "500000",
                     "--dir", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1
        assert "MAX_GROUP_ORDER" in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_non_positive_count_exits_two(self, tmp_path, capsys, value):
        assert main(["generate", "orbit", "--count", value, "--dir", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["kind"] == "input"
        assert not list(tmp_path.iterdir())


    def test_count_past_the_maximum_exits_two(self, tmp_path, capsys):
        assert main(["generate", "orbit", "--count", str(MAX_COUNT + 1),
                     "--dir", str(tmp_path)]) == 2
        assert f"at most {MAX_COUNT}" in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [["--max-period", str(2 ** 20 + 1)],
                                       ["--dim", "8"]])
    def test_period_box_past_the_budget_exits_two(self, tmp_path, capsys, flags):
        assert main(["generate", "periodic", *flags, "--dir", str(tmp_path)]) == 2
        assert "MAX_PERIOD_BOX" in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.iterdir())


    def test_refused_draw_leaves_no_file_it_created(self, tmp_path, capsys):
        # the first orbit graph fits MAX_ORBIT_EDGES, the second does not
        argv = ["generate", "orbit", "--max-n", "4096", "--max-a", "4096", "--max-h", "8",
                "--count", "5", "--seed", "1"]
        assert main([*argv, "--dir", str(tmp_path / "new" / "dir")]) == 2
        assert "MAX_ORBIT_EDGES" in json.loads(capsys.readouterr().err)["error"]
        assert not list(tmp_path.iterdir())
        kept = tmp_path / "orbit_0001_0000.json"
        kept.write_text("earlier\n")
        assert main([*argv, "--dir", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == [kept]
        assert kept.read_text() == "earlier\n"

    def test_max_period_caps_every_axis_in_two_dimensions(self, tmp_path):
        assert main(["generate", "periodic", "--dim", "2", "--max-period", "2",
                     "--count", "40", "--dir", str(tmp_path)]) == 0
        periods = [json.loads(f.read_text())["period"] for f in tmp_path.iterdir()]
        assert len(periods) == 40
        assert max(p for period in periods for p in period) == 2


class TestOrbitGraphCommand:
    def test_emits_a_loadable_commutative_graph(self, tmp_path, o1):
        out = tmp_path / "g.json"
        assert main(["orbit-graph", "--moduli", "4", "--A", "0;1", "--Y", "0",
                     "--h", "2", "--out", str(out)]) == 0
        got = jsonio.graph_from_doc(json.loads(out.read_text()))
        assert got == o1

    def test_needs_an_action_source(self):
        assert main(["orbit-graph", "--A", "0", "--Y", "0", "--h", "1"]) == 2

    def test_group_past_the_budget_exits_two(self, capsys, monkeypatch):
        def refuse(_group):
            raise AssertionError("group elements listed past the budget")

        monkeypatch.setattr(dynamics.FinAbGroup, "elements", refuse)
        assert main(["orbit-graph", "--moduli", "1000000000", "--A", "0", "--Y", "0",
                     "--h", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "MAX_GROUP_ORDER" in err["error"]

    @pytest.mark.parametrize("h", [MAX_ORDER + 1, 8000])
    def test_height_past_the_maximum_exits_two_before_building(
            self, capsys, monkeypatch, h):
        def refuse(*_args):
            raise AssertionError("orbit graph built past the bound")

        monkeypatch.setattr(cli, "translation_action", refuse)
        monkeypatch.setattr(cli, "orbit_graph", refuse)
        assert main(["orbit-graph", "--moduli", "64", "--A", "0;1;2", "--Y", "0",
                     "--h", str(h)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"--h must be at most {MAX_ORDER} (got {h})",
                       "kind": "input"}

    def test_height_at_the_maximum_runs(self, capsys):
        assert main(["orbit-graph", "--moduli", "4", "--A", "0;1", "--Y", "0",
                     "--h", str(MAX_ORDER)]) == 0
        assert _stdout_doc(capsys)["height"] == MAX_ORDER

    def test_bad_numeric_flags_exit_two(self):
        assert main(["orbit-graph", "--moduli", "x", "--A", "0", "--Y", "0",
                     "--h", "1"]) == 2
        assert main(["orbit-graph", "--moduli", "4", "--A", "0;q", "--Y", "0",
                     "--h", "1"]) == 2

    def test_graph_past_the_edge_budget_exits_two_and_writes_nothing(
            self, tmp_path, capsys):
        # layers 0..127k of Z/65536: 342272 edges by layer 7
        out = tmp_path / "g.json"
        start = time.perf_counter()
        assert main(["orbit-graph", "--moduli", "65536",
                     "--A", ";".join(str(a) for a in range(128)), "--Y", "0",
                     "--h", "8", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "input" and "MAX_ORBIT_EDGES" in err["error"]
        assert not list(tmp_path.iterdir())


class TestArgparseErrors:
    """A command line argparse rejects keeps the exit-2 contract: one JSON
    line on stderr, no usage text."""

    @pytest.mark.parametrize("argv", [
        ["verify", "thm-3.5", "--count", "x"],               # bad int
        ["magnify", "--j", "1", "--method", "bogus", "f.json"],  # bad choice
        ["magnify", "f.json"],                                # missing --j
        ["validate", "f.json", "--bogus"],                    # unknown flag
        [],                                                   # no subcommand
    ])
    def test_rejected_command_line_exits_two_with_one_json_line(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "usage:" not in captured.err
        err = json.loads(lines[0])
        assert sorted(err) == ["error", "kind"] and err["kind"] == "input"

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["--version"]])
    def test_help_and_version_still_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


class TestDensityCommand:
    def test_sumset(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"dim": 1, "period": [2], "residues": [[0]]}))
        b.write_text(json.dumps({"dim": 1, "period": [3], "residues": [[0]]}))
        assert main(["density", "sumset", str(a), str(b)]) == 0
        doc = _stdout_doc(capsys)
        assert doc["period"] == [1]

    @pytest.mark.parametrize("kind", ["periodic", "finite"])
    def test_sumset_past_the_pair_budget_exits_two(self, tmp_path, capsys, kind):
        # two sets of 3163 residues each: 10,004,569 pairs, just past 10**7
        rng = random.Random(2014)
        files = []
        for name in "ab":
            cells = sorted(rng.sample(range(4096), 3163))
            doc = ({"dim": 1, "period": [4096], "residues": [[x] for x in cells]}
                   if kind == "periodic" else {"dim": 1, "finite": [[x] for x in cells]})
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            files.append(str(path))
        assert main(["density", "sumset", *files]) == 2
        assert "MAX_SUMSET_PAIRS" in json.loads(capsys.readouterr().err)["error"]

    def test_banach_and_scan(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"dim": 1, "period": [2], "residues": [[0]]}))
        assert main(["density", "banach", str(a)]) == 0
        assert _stdout_doc(capsys)["results"][0]["density"] == "1/2"
        assert main(["density", "scan", str(a), "--side", "3", "--radius", "10"]) == 0
        row = _stdout_doc(capsys)["results"][0]
        assert (row["upper"], row["lower"]) == ("2/3", "1/3")


    def test_period_box_past_the_budget_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"dim": 2, "period": [2 ** 10, 2 ** 11],
                                 "residues": [[0, 0]]}))
        assert main(["density", "banach", str(a)]) == 2
        assert "MAX_PERIOD_BOX" in json.loads(capsys.readouterr().err)["error"]

    def test_scan_past_the_call_budget_exits_two(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"dim": 1, "period": [2], "residues": [[0]]}))
        assert main(["density", "scan", str(a), "--side", "1",
                     "--radius", str(5 * 10 ** 6)]) == 2
        assert "MAX_SCAN_CALLS" in json.loads(capsys.readouterr().err)["error"]


class TestCorrespondCommand:
    def test_default_translates(self, tmp_path, capsys):
        b = tmp_path / "b.json"
        b.write_text(json.dumps({"dim": 1, "period": [2], "residues": [[0]]}))
        assert main(["correspond", str(b)]) == 0
        row = _stdout_doc(capsys)["results"][0]
        assert row["holds"] is True
        assert row["lhs"] == "1/2"

    def test_two_dimensional_set_defaults_to_its_origin(self, tmp_path, capsys):
        b = tmp_path / "b2.json"
        b.write_text(json.dumps({"dim": 2, "period": [2, 3], "residues": [[0, 0], [1, 2]]}))
        assert main(["correspond", str(b)]) == 0
        row = _stdout_doc(capsys)["results"][0]
        assert row["holds"] is True
        assert row["lhs"] == row["rhs"] == "1/3"

    def test_translates_of_another_dimension_exit_two(self, tmp_path, capsys):
        b = tmp_path / "b2.json"
        b.write_text(json.dumps({"dim": 2, "period": [2, 3], "residues": [[0, 0]]}))
        a0 = tmp_path / "a0.json"
        a0.write_text(json.dumps({"dim": 1, "finite": [[0], [1]]}))
        assert main(["correspond", str(b), "--A0", str(a0)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "dimension mismatch (1 vs 2)", "kind": "input"}


class TestTwoDimensionalCorrespondenceBundles:
    def _bundle(self, tmp_path, a0):
        b = generators.random_periodic_set(random.Random(11), dim=2, allow_empty=False)
        path = tmp_path / "lemma-2d.json"
        path.write_text(json.dumps({"instance": "lemma-2d", "theorem": "lemma-7.1",
                                    "B": jsonio.periodic_to_doc(b), "A0": a0}))
        return str(path)

    def test_two_dimensional_bundle_holds(self, tmp_path, capsys):
        a0 = {"dim": 2, "period": [3, 2], "residues": [[0, 1], [2, 0]]}
        assert main(["verify", "lemma-7.1", self._bundle(tmp_path, a0)]) == 0
        doc = _stdout_doc(capsys)
        assert doc["holds"] is True
        assert all(doc["results"][0]["details"][key] is True
                   for key in ("base_equality", "sum_equality", "translate_bound"))

    def test_one_dimensional_translates_exit_two(self, tmp_path, capsys):
        a0 = {"dim": 1, "finite": [[0]]}
        assert main(["verify", "lemma-7.1", self._bundle(tmp_path, a0)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "dimension mismatch (1 vs 2)", "kind": "input"}


def test_every_check_accepts_its_bundles_from_files(tmp_path):
    import random

    from plunnecke_lab.cli import CHECKS

    for check_id, (_runner, bundle_maker, _kind) in sorted(CHECKS.items()):
        rng = random.Random(77)
        paths = []
        for i in range(2):
            bundle = bundle_maker(rng, f"{check_id}-{i}")
            path = tmp_path / f"{check_id}-{i}.json"
            path.write_text(json.dumps(bundle))
            paths.append(str(path))
        assert main(["verify", check_id, *paths]) == 0, check_id


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "plunnecke_lab", "verify", "prop-2.10",
         "--seed", "1", "--count", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True


def test_importing_the_cli_loads_no_process_pool():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, plunnecke_lab.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Golden digests: the exact bytes each command writes.
#
# Each case runs `main` in a fresh directory holding the files that
# `_write_golden_inputs` makes, and pins its exit code plus one digest over
# stdout, stderr and every file the command creates (`--out`, `--csv`,
# `generate --dir`).  A refactor of the front end must leave every entry
# unchanged.
# ---------------------------------------------------------------------------


def _write_golden_inputs(directory):
    z4 = dynamics.translation_action(dynamics.FinAbGroup((4,)))
    o1 = dynamics.orbit_graph(z4, dynamics.GroupSet.of(z4.group, [(0,), (1,)]), {"0"}, 2)
    chain = {"height": 2, "labels": ["a", "b"],
             "vertices": [{"id": f"v{i}", "layer": i, "weight": "1/1"} for i in range(3)],
             "edges": [{"tail": "v0", "head": "v1", "label": "a"},
                       {"tail": "v1", "head": "v2", "label": "b"}]}
    broken = {"height": 1, "labels": ["a"],
              "vertices": [{"id": "v0", "layer": 0, "weight": "1/1"},
                           {"id": "v1", "layer": 1, "weight": "2/1"}],
              "edges": [{"tail": "v0", "head": "v1", "label": "a"}]}
    docs = {
        "O1.json": jsonio.graph_to_doc(o1),
        "chain.json": chain,
        "broken.json": broken,
        "act.json": jsonio.action_to_doc(z4),
        "a.json": {"dim": 1, "period": [2], "residues": [[0]]},
        "b.json": {"dim": 1, "period": [6], "residues": [[0], [1], [3]]},
        "c2.json": {"dim": 2, "period": [2, 3], "residues": [[0, 0], [1, 2]]},
        "a0.json": {"dim": 1, "finite": [[0], [1]]},
        "o1-bundle.json": {"instance": "O1", "graph": jsonio.graph_to_doc(o1)},
        "o1-declared.json": {"theorem": "thm-3.5", "graph": jsonio.graph_to_doc(o1)},
        "o1-rate.json": {"instance": "O1", "graph": jsonio.graph_to_doc(o1), "C": "5/1"},
        "chain-bundle.json": {"instance": "chain", "graph": chain},
        "dyn-bundle.json": generators.bundle_dyn_plunnecke(random.Random(1), "dyn"),
    }
    for name, doc in docs.items():
        (directory / name).write_text(jsonio.dumps_canonical(doc))


def _pinned_run(argv: list[str]) -> tuple[int, str]:
    """Exit code and digest of stdout, stderr and the files created in cwd."""
    before = set(Path().rglob("*"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue()):
        digest.update(part.encode() + b"\0")
    for path in sorted(set(Path().rglob("*")) - before):
        if path.is_file():
            digest.update(str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return code, digest.hexdigest()[:16]


_GOLDEN_ARGV = {
    "validate": "validate O1.json act.json a.json c2.json a0.json",
    "validate-broken": "validate O1.json broken.json",
    "validate-missing": "validate nowhere.json",
    "commute": "commute O1.json",
    "commute-chain": "commute O1.json chain.json",
    "magnify-brute": "magnify O1.json --j 2 --method brute",
    "magnify-mincut": "magnify O1.json --j 1",
    "magnify-both": "magnify O1.json chain.json --j 2 --method both --out m.json",
    "cutset": "cutset O1.json --C 1/1",
    "cutset-push": "cutset O1.json --C 2/1 --push 1",
    "cutset-push-set": "cutset O1.json --C 1/1 --push 1 --set 0@1;1@1",
    "cutset-bad-rate": "cutset O1.json --C 1.5",
    **{f"verify-{check_id}": f"verify {check_id} --seed 0 --count 3"
       for check_id in ("prop-2.10", "ex-2.6", "thm-3.5", "cor-3.4", "thm-4.2",
                        "thm-4.3", "lemma-5.4", "lemma-6.1", "prop-6.2", "thm-1.3",
                        "thm-1.4", "lemma-7.1")},
    "verify-jobs": "verify thm-4.2 --seed 5 --count 4 --jobs 2",
    "verify-files": "verify thm-3.5 o1-bundle.json --out r.json --csv r.csv",
    "verify-file-dyn": "verify thm-4.2 dyn-bundle.json",
    "verify-unknown": "verify thm-9.9",
    "verify-wrong-kind": "verify thm-3.5 --generate periodic",
    "verify-declared": "verify cor-3.4 o1-declared.json",
    "verify-malformed": "verify cor-3.4 dyn-bundle.json",
    "verify-refused-rate": "verify cor-3.4 o1-rate.json",
    "verify-refused-commute": "verify thm-3.5 chain-bundle.json",
    "orbit-graph": "orbit-graph --moduli 4 --A 0;1 --Y 0 --h 2",
    "orbit-graph-2d": "orbit-graph --moduli 2,3 --A 0,0;1,1 --Y 0,0 --h 2 --out g.json",
    "orbit-graph-action": "orbit-graph --action act.json --A 0;2 --Y 0;1 --h 1",
    "orbit-graph-no-source": "orbit-graph --A 0 --Y 0 --h 1",
    "density-sumset": "density sumset a.json b.json a0.json",
    "density-sumset-one": "density sumset a.json",
    "density-banach": "density banach a.json b.json c2.json a0.json",
    "density-scan": "density scan a.json b.json --side 3 --radius 10",
    "density-scan-2d": "density scan c2.json --side 2 --radius 3",
    "correspond": "correspond b.json",
    "correspond-A0": "correspond b.json --A0 a0.json",
    **{f"generate-{kind}": f"generate {kind} --seed 3 --count 2 --dir gen"
       for kind in ("action", "graph", "orbit", "periodic")},
    "generate-action-sized": "generate action --max-n 5 --count 3 --dir gen",
    "generate-graph-sized": "generate graph --max-layer0 3 --max-h 2 --count 3 --dir gen",
    "generate-orbit-sized": "generate orbit --max-n 5 --max-a 2 --max-h 2 --count 3 "
                            "--dir gen --out list.json",
    "generate-periodic-sized": "generate periodic --dim 2 --max-period 3 --count 3 --dir gen",
    "generate-periodic-period": "generate periodic --max-period 30 --count 3 --dir gen",
    "generate-periodic-dim": "generate periodic --dim 3 --count 2 --dir gen",
    **{f"bound-verify{flag}-{value}": f"verify thm-3.5 {flag} {value} --out r.json"
       for flag, value in (("--count", 0), ("--count", MAX_COUNT + 1), ("--jobs", 0))},
    **{f"bound-generate{flag}-{value}": f"generate {kind} {flag} {value} --dir gen"
       for kind, flag, value in (
           ("orbit", "--count", 0), ("orbit", "--count", MAX_COUNT + 1),
           ("action", "--max-n", 1), ("orbit", "--max-a", 0), ("orbit", "--max-h", 0),
           ("graph", "--max-layer0", 0), ("periodic", "--max-period", 0),
           ("periodic", "--dim", 0))},
}

_GOLDEN = {
    "bound-generate--count-0": (2, "17b7c37b83cf0dba"),
    "bound-generate--count-10001": (2, "6a14b29f15adad61"),
    "bound-generate--dim-0": (2, "0f1d8b2225094e9c"),
    "bound-generate--max-a-0": (2, "cd278120396a117d"),
    "bound-generate--max-h-0": (2, "0ca825119a70f23e"),
    "bound-generate--max-layer0-0": (2, "56131f5340e234d5"),
    "bound-generate--max-n-1": (2, "c874712da9262fce"),
    "bound-generate--max-period-0": (2, "193fcfa1f51bf16d"),
    "bound-verify--count-0": (2, "17b7c37b83cf0dba"),
    "bound-verify--count-10001": (2, "6a14b29f15adad61"),
    "bound-verify--jobs-0": (2, "0e7893e00995dcc5"),
    "commute": (0, "452eb93f2266dba4"),
    "commute-chain": (1, "9e50d3b3f222cf90"),
    "correspond": (0, "93886ef9e75b3177"),
    "correspond-A0": (0, "7fbbc5879dbd0f85"),
    "cutset": (0, "2ccd75c6cef28a52"),
    "cutset-bad-rate": (2, "c3ff8249f975c27d"),
    "cutset-push": (0, "fd73f174ef8af277"),
    "cutset-push-set": (0, "f76f212206bd6396"),
    "density-banach": (0, "661a05ac006d8eaf"),
    "density-scan": (0, "2f5953350734aaae"),
    "density-scan-2d": (0, "14ee758832a6f597"),
    "density-sumset": (0, "18cf40821abaeffb"),
    "density-sumset-one": (2, "b6665263ea4c6bf5"),
    "generate-action": (0, "e6e075ae2a841eb5"),
    "generate-action-sized": (0, "a13b0d0c679c8d11"),
    "generate-graph": (0, "2f1695f5942cca2e"),
    "generate-graph-sized": (0, "1983f7eaa8fb3980"),
    "generate-orbit": (0, "1a479af50ed86e61"),
    "generate-orbit-sized": (0, "f1235e1bb7a120f6"),
    "generate-periodic": (0, "7d00155cfee09ebe"),
    "generate-periodic-dim": (0, "b7955a6eefda02e0"),
    "generate-periodic-period": (0, "59d8fcccb106577e"),
    "generate-periodic-sized": (0, "d0510e03773f0c64"),
    "magnify-both": (0, "d77575c8b8c86c02"),
    "magnify-brute": (0, "5cd504b962581633"),
    "magnify-mincut": (0, "25924f43ab6a7213"),
    "orbit-graph": (0, "f653038adac8056a"),
    "orbit-graph-2d": (0, "6d706b6b3debec51"),
    "orbit-graph-action": (0, "974440d6e3e05734"),
    "orbit-graph-no-source": (2, "c96213d56f2ca111"),
    "validate": (0, "f83ebfa16e0acbfc"),
    "validate-broken": (2, "f750fb0aa44651e4"),
    "validate-missing": (2, "895b231ed7381720"),
    "verify-cor-3.4": (0, "57e506fb1605dcf8"),
    "verify-declared": (2, "65f5339f1acc1dd2"),
    "verify-ex-2.6": (0, "c12c1578c870d8a7"),
    "verify-file-dyn": (0, "12c187f6bfe131a5"),
    "verify-files": (0, "4a3101627e1afb87"),
    "verify-jobs": (0, "e5aba92ea72c4d95"),
    "verify-lemma-5.4": (0, "074be9bbabe4abe1"),
    "verify-lemma-6.1": (0, "e27070265593ef23"),
    "verify-lemma-7.1": (0, "bd985d9cc15e8f72"),
    "verify-malformed": (2, "a9033c6ffc488227"),
    "verify-prop-2.10": (0, "353bf5fab54fb177"),
    "verify-prop-6.2": (0, "919a0278137a058b"),
    "verify-refused-commute": (2, "f3735766db811ed3"),
    "verify-refused-rate": (2, "1555edd87ce29887"),
    "verify-thm-1.3": (0, "de4e636eeb59c14b"),
    "verify-thm-1.4": (0, "299a25accd17f559"),
    "verify-thm-3.5": (0, "4af45bb5ad5fafb5"),
    "verify-thm-4.2": (0, "2f49ce38a562ae8a"),
    "verify-thm-4.3": (0, "41cd8fb6f7a1190f"),
    "verify-unknown": (2, "119153864b40e616"),
    "verify-wrong-kind": (2, "fcdebce4d1023f81"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_ARGV))
def test_command_output_matches_its_golden_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_golden_inputs(tmp_path)
    assert _pinned_run(_GOLDEN_ARGV[name].split()) == _GOLDEN[name]
