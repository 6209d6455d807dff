"""Fast self-test of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

Runs every workload on its tiny batch, untraced and traced, and checks that
each metric named in BENCHMARK.json is printed with its unit; then injects
a wrong answer (a flipped Rohlin invariant) and checks that it shows up as
a failed op; and checks that a copy of the benchmark without the package
sources exits non-zero without a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", trace, "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_same_seed_same_inputs():
    reference = wl.load_reference()
    for workload in wl.WORKLOADS.values():
        items = reference[workload.name]
        assert wl.select(workload, items, 3) == wl.select(workload, items, 3)


def test_injected_wrong_mu_counts_as_failed(monkeypatch):
    sys.path.insert(0, str(wl.SRC))
    import plumbcalc

    right = plumbcalc.rohlin_from_signature
    monkeypatch.setattr(plumbcalc, "rohlin_from_signature", lambda t: 1 - right(t))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "invariants", "--seed", "7", "--seconds", "0.1",
                         "--tiny"]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "FAILED fat:" in out.getvalue()


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = wl.WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "invariants", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
