import importlib.util
from pathlib import Path

from plunnecke_lab.cli import CHECKS, REGISTRY

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_suite.py"


def _run_suite():
    spec = importlib.util.spec_from_file_location("run_suite", SCRIPT)
    run_suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_suite)
    return run_suite


def test_run_suite_writes_a_json_and_a_csv_report_per_check(tmp_path, capsys):
    assert _run_suite().run(0, 2, tmp_path) == 0
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(CHECKS)
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(CHECKS)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    # --count caps every batch, the fixed smaller ones included
    assert all(line.split()[1] == "2" for line in lines)


def test_every_capped_batch_names_a_registered_check():
    assert set(_run_suite().COUNTS) <= set(REGISTRY)
