import importlib.util
from pathlib import Path

from plunnecke_lab.cli import CHECKS

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_suite.py"


def test_run_suite_writes_a_json_and_a_csv_report_per_check(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("run_suite", SCRIPT)
    run_suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_suite)
    assert run_suite.run(0, 2, tmp_path) == 0
    assert len(CHECKS) == 12
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(CHECKS)
    assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(CHECKS)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    # --count caps every batch, the fixed smaller ones included
    assert all(line.split()[1] == "2" for line in lines)
