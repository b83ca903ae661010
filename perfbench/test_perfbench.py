"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Not part of the repo's tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *arguments],
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(out.read_text()), done.stdout


def test_every_repro_file_maps_to_exactly_one_layer():
    repro_root = ROOT / "src" / "repro"
    files = sorted(repro_root.rglob("*.py"))
    assert len(files) > 100
    for path in files:
        assert layers.layer_of(str(path), repro_root) in layers.LAYERS
    assert set(layers.SUBPACKAGE_LAYER.values()) <= set(layers.LAYERS)
    assert layers.layer_of("/usr/lib/python3/heapq.py",
                           repro_root) == "other"
    with pytest.raises(layers.LayerMapError):
        layers.layer_of(str(repro_root / "newpkg" / "mod.py"), repro_root)


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert entry["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"])
    setup = [entry for entry in SPEC["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(entry["bound"]
                                   for entry in SPEC["end_to_end"])}]
    # The driver's budget: 4 + 22 x workloads runs within 3420 s.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 6) <= 3420


def test_smoke_reports_exactly_the_declared_names(smoke):
    report, stdout = smoke
    assert list(report["workloads"]) == [entry["name"]
                                         for entry in SPEC["workloads"]]
    end_to_end = [entry["name"] for entry in SPEC["end_to_end"]]
    per_layer = [entry["name"] for entry in SPEC["per_layer"]]
    for name, entry in report["workloads"].items():
        assert list(entry["end_to_end"]) == end_to_end, name
        assert list(entry["per_layer"]) == per_layer, name
        assert entry["failed"] == 0
    assert set(report["probes"]) == {name for name in per_layer
                                     if name.startswith("probe.")}
    printed = set(re.findall(r"^  (\S+) ", stdout, flags=re.MULTILINE))
    assert printed == set(end_to_end + per_layer)


def test_smoke_ledger_sums_to_the_traced_span(smoke):
    report, _ = smoke
    for name, entry in report["workloads"].items():
        layer = entry["per_layer"]
        total = sum(layer[f"{key}.self_s"] for key in layers.LAYERS)
        assert total == pytest.approx(layer["trace.total_s"], rel=0.01), name
        assert sum(layer[f"{key}.share"] for key in layers.LAYERS) \
            == pytest.approx(1.0, abs=1e-6)
        assert layer["resilience.share"] < 0.005, name
        assert layer["sim.pending_max"] > 0, name


def test_smoke_traced_and_steady_simulate_the_same(smoke):
    report, _ = smoke
    steady = report["workloads"]["oltp-steady"]
    traced = report["workloads"]["oltp-traced"]
    assert traced["per_layer"]["sim.events"] \
        == steady["per_layer"]["sim.events"]
    assert traced["per_layer"]["sim.trace_records"] > 0
    assert steady["per_layer"]["sim.trace_records"] == 0


@pytest.mark.parametrize("trace,group", [("0", "end_to_end"),
                                         ("1", "per_layer")])
def test_driver_contract_last_line(trace, group):
    done = _run("--smoke", "--workload", "sync-paging", "--seed", "11",
                "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"]
                                       for entry in SPEC[group]]
    units = {entry["name"]: entry["unit"] for entry in SPEC[group]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
    if group == "end_to_end":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_driver_contract_rejects_an_unknown_workload():
    done = _run("--workload", "no-such", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0 and not done.stdout.strip()


def _summary(values):
    values = sorted(values)
    return {"median": values[len(values) // 2], "q1": values[1],
            "q3": values[-2], "n": len(values), "values": values}


def test_compare_verdicts():
    base = _summary([1.00, 1.01, 1.02, 1.03, 1.04])
    assert compare.verdict(base, base, "lower", 0.07) == "ok"
    slow = _summary([1.20, 1.21, 1.22, 1.23, 1.24])
    assert compare.verdict(base, slow, "lower", 0.07) == "worse"
    assert compare.verdict(slow, base, "lower", 0.07) == "better"
    assert compare.verdict(base, slow, "higher", 0.07) == "better"
    noisy = _summary([0.90, 0.95, 1.08, 1.20, 1.30])
    assert compare.verdict(base, noisy, "lower", 0.07) == "unresolved"
    # Wide spread, but every candidate run is slower than every base run.
    slow_noisy = _summary([1.5, 1.6, 1.8, 2.0, 2.2])
    assert compare.verdict(base, slow_noisy, "lower", 0.07) == "worse"
