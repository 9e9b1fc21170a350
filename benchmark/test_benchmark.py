"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest -q benchmark
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _python(*args, cwd=ROOT, timeout=170):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_battery_reports_equal_cli_verify_output():
    check_id, seed, count = "thm-3.5", 3, 25
    cli = _python("-m", "plunnecke_lab", "verify", check_id,
                  "--seed", str(seed), "--count", str(count))
    assert cli.returncode == 0, cli.stderr
    mods = workloads.import_package()
    pool = workloads.build("battery", seed, mods)
    texts = []
    for index in range(count):
        holds, text = pool.instances[pool.labels.index(f"{check_id}/{index}")]()
        assert holds
        texts.append(text)
    cli_doc = json.loads(cli.stdout)
    assert [mods["jsonio"].dumps_canonical(r) for r in cli_doc["results"]] == texts
    ours = {"command": "verify", "theorem": check_id, "seed": seed, "count": count,
            "inputs": [], "holds": True, "results": [json.loads(t) for t in texts]}
    assert mods["jsonio"].dumps_canonical(ours) == cli.stdout


def test_anchor_max_flow_counts_and_restore():
    mods = workloads.import_package()
    graph = run._anchor_graph(mods)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mods["magnification"].magnification_mincut(graph, run.ANCHOR_H)
        mods["magnification"].min_weight_cutset(graph, 1)
    finally:
        tracer.restore()
    rows = tracer.summary()
    for span_name, want in run.ANCHOR_MAXFLOWS.items():
        assert rows[span_name]["maxflows"] == want
    assert rows["maxflow.max_flow"]["calls"] == sum(run.ANCHOR_MAXFLOWS.values())
    assert tracing.leftover_wrappers() == []


def test_wrappers_reach_every_binding():
    mods = workloads.import_package()
    import plunnecke_lab
    from plunnecke_lab import dynamics, generators, magnification, maxflow

    originals = (maxflow.min_ratio_mincut, maxflow.FlowNetwork.max_flow,
                 mods["cli"].CHECKS["thm-3.5"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = [magnification.min_ratio_mincut, dynamics.min_ratio_mincut,
                 magnification.min_ratio_bruteforce, dynamics.min_ratio_bruteforce,
                 generators.magnification_mincut, mods["cli"].magnification_mincut,
                 plunnecke_lab.magnification_mincut, maxflow.FlowNetwork.max_flow,
                 dynamics.FiniteAction.apply, mods["cli"].CHECKS["thm-3.5"][1],
                 mods["cli"].CHECKS["lemma-7.1"][1]]
        assert all(hasattr(f, "span_name") for f in bound)
    finally:
        tracer.restore()
    assert (maxflow.min_ratio_mincut, maxflow.FlowNetwork.max_flow,
            mods["cli"].CHECKS["thm-3.5"]) == originals
    assert tracing.leftover_wrappers() == []


def test_host_speed_scales_by_the_median_of_recent_readings():
    speed = run.HostSpeed()
    speed.readings = [run.REFERENCE_NS * k for k in (9, 1, 2, 2, 4, 8)]
    assert speed.scale() == 0.5


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def test_end_to_end_run_prints_every_metric():
    result = _result(_python("benchmark/run.py", "--workload", "density-large",
                             "--seed", "4", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert sorted(result["metrics"]) == sorted(
        ["instances_per_s", "instance_p50_ms", "instance_p90_ms", "peak_rss_mb", "setup_s"])


def test_traced_run_prints_every_layer_metric():
    result = _result(_python("benchmark/run.py", "--workload", "density-large",
                             "--seed", "4", "--seconds", "1", "--trace", "1"))
    assert result["correct"]
    names = [m for m, _s, _t in tracing.LAYER_METRICS]
    names += ["trace.overhead_ratio", "anchor.magnification_mincut.maxflows",
              "anchor.min_weight_cutset.maxflows"]
    assert sorted(result["metrics"]) == sorted(names)
    assert result["metrics"]["density.periodic_sumset.calls"]["value"] > 0
    assert result["metrics"]["maxflow.max_flow.calls"]["value"] == 0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "battery",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
