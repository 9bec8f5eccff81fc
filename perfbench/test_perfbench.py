"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

The tiny runs start a JVM each, so this file takes a few minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _local_result(eps=0.05):
    from repro.core.functions import F1
    from repro.core.miner import adc_miner_local

    pdf = WORKLOADS["vios-f3"].frame(seed=3, tiny=True)
    return pdf, adc_miner_local(pdf, F1(), eps)


def test_gate_accepts_the_oracle_answer_and_counts_a_dropped_dc():
    from repro.core.functions import F1

    pdf, result = _local_result()
    expected = gate.oracle(pdf, pdf, F1(), 0.05)
    assert expected.n_dcs == len(result.dcs) > 1
    good = gate.observe(result)
    assert gate.failures(good, expected) == []

    result.dcs = result.dcs[1:]
    bad = gate.observe(result)
    assert gate.failures(bad, expected)
    assert run.judge([good, bad, None], expected) == 2


def test_oracle_does_not_share_the_enumerator_it_checks(monkeypatch):
    """A bug in ADCEnum must not reach the oracle's answer."""
    from repro.core.enumerate import ADCEnum
    from repro.core.functions import F1
    from repro.core.miner import adc_miner_local

    pdf = WORKLOADS["vios-f3"].frame(seed=3, tiny=True)
    expected = gate.oracle(pdf, pdf, F1(), 0.05)
    run_ = ADCEnum.run
    monkeypatch.setattr(ADCEnum, "run", lambda self: run_(self)[1:])
    broken = adc_miner_local(pdf, F1(), 0.05)
    assert gate.oracle(pdf, pdf, F1(), 0.05) == expected
    assert gate.failures(gate.observe(broken), expected)


def test_stored_answer_is_used_only_for_the_same_relation():
    wl = WORKLOADS["vios-f3"]
    pdf = wl.frame(seed=3, tiny=True)
    stored = {"input": gate.frame_digest(pdf), "n_tuples": 1, "digest": "x", "dcs": 0}
    assert run.expected_answer(None, pdf, None, wl, stored)[1] == "stored"
    shuffled = wl.frame(seed=4, tiny=True)
    assert gate.frame_digest(shuffled) != stored["input"]


def test_gate_rejects_truncated_enumeration():
    from repro.core.functions import F1

    pdf, result = _local_result()
    expected = gate.oracle(pdf, pdf, F1(), 0.05)
    result.enum_stats.truncated = True
    assert "enumeration truncated" in gate.failures(gate.observe(result), expected)


def test_tracer_restores_names_and_reports_a_missing_one_as_absent(monkeypatch):
    import repro.core.enumerate as enumerate_mod
    import repro.core.miner as miner

    before = (miner.build_evidence_spark, enumerate_mod.ADCEnum.__dict__["run"])
    monkeypatch.delattr(miner, "build_vios_spark")
    with spans.Tracer(sc=None) as tracer:
        assert miner.build_evidence_spark is not before[0]
    assert tracer.absent == ["vios"]
    assert (miner.build_evidence_spark, enumerate_mod.ADCEnum.__dict__["run"]) == before


@pytest.mark.parametrize("prefilter", [True, False])
def test_prefilter_rejects_counts_the_programs_own_prefilter(monkeypatch, prefilter):
    from repro.core.functions import ApproximationFunction, F3Greedy
    from repro.core.miner import adc_miner_local

    if not prefilter:
        monkeypatch.setattr(F3Greedy, "passes", ApproximationFunction.passes)
    pdf = WORKLOADS["vios-f3"].frame(seed=3, tiny=True)
    with spans.Tracer(sc=None) as tracer:
        tracer.begin_call("local")
        adc_miner_local(pdf, F3Greedy(), 0.01)
        call = tracer.end_call()
    assert call["fn_calls"] > 0
    assert (call["prefilter_rejects"] > 0) == prefilter


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "enum", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", "2", "--seconds", "1",
                           "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))
