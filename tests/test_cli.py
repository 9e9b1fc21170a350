import json
import random
import subprocess
import sys
import time

import pytest

from plunnecke_lab import cli, dynamics, jsonio
from plunnecke_lab.cli import MAX_COUNT, main
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

    def test_jobs_env_var_is_the_default(self, tmp_path, monkeypatch):
        out = tmp_path / "env.json"
        ref = tmp_path / "ref.json"
        base = ["verify", "prop-2.10", "--seed", "4", "--count", "6"]
        assert main(base + ["--out", str(ref)]) == 0
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

    def test_bad_numeric_flags_exit_two(self):
        assert main(["orbit-graph", "--moduli", "x", "--A", "0", "--Y", "0",
                     "--h", "1"]) == 2
        assert main(["orbit-graph", "--moduli", "4", "--A", "0;q", "--Y", "0",
                     "--h", "1"]) == 2


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
