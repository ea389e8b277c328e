"""Smoke runs: every workload, both modes, a few ops each.

Every metric the benchmark defines must appear with its unit or be
marked absent with a reason, and the last line must follow the result
format with exactly the metrics BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from workloads import WORKLOAD_NAMES

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "matrices/s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.build_eom_ms": "ms",
    "core.similarity_ms": "ms",
    "spectrum.cluster_ms": "ms",
    "spectrum.cluster_calls": "calls/op",
    "spectrum.classify_self_ms": "ms",
    "spectrum.geometric_ms": "ms",
    "spectrum.geometric_calls": "calls/op",
    "spectrum.chains_ms": "ms",
    "spectrum.jordan_chains_calls": "calls/op",
    "spectrum.errors.AmbiguousSpectrumError": "count",
    "spectrum.errors.SpectrumStructureError": "count",
    "spectrum.errors.ChainExtractionError": "count",
    "algebra.orthonormalize_ms": "ms",
    "algebra.calls": "calls/op",
    "algebra.errors.NondegeneracyError": "count",
    "algebra.errors.ContractViolationError": "count",
    "normal_form.attempts": "calls/matrix",
    "normal_form.attempt_yield": "ratio",
    "normal_form.fast_path_share": "ratio",
    "normal_form.columns_ms": "ms",
    "normal_form.assemble_ms": "ms",
    "normal_form.emit_terms_ms": "ms",
    "normal_form.self_ms": "ms",
    "normal_form.scaling_exponent": "slope",
    "reporting.report_to_dict_ms": "ms",
    "reporting.signature_ms": "ms",
    "reporting.serialize_ms": "ms",
    "reporting.scan_self_ms": "ms",
    "lapack.svd_calls": "calls/op",
    "lapack.svd_ms": "ms",
    "lapack.svd_gflop": "GFLOP",
    "lapack.eig_calls": "calls/op",
    "lapack.eig_ms": "ms",
    "lapack.other_calls": "calls/op",
    "lapack.other_ms": "ms",
    "lapack.share": "ratio",
    "cli.import_s": "s",
    "cli.scipy_linalg_import_s": "s",
    "cli.first_call_s": "s",
    **{f"planted.fail_case{case}": "count" for case in range(1, 7)},
    "trace.overhead_ratio": "ratio",
}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, full, last = proc.stdout.splitlines()
    report, result = json.loads(full), json.loads(last)

    section = "end_to_end" if trace == 0 else "per_layer"
    expected = END_TO_END if trace == 0 else PER_LAYER
    measured = report[section]
    for name, unit in expected.items():
        metric = measured[name]
        assert metric["unit"] == unit, name
        assert ("value" in metric) != ("absent" in metric), name
        if "value" in metric:
            assert isinstance(metric["value"], (int, float)), name
        else:
            assert metric["absent"], name

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [
        (entry["name"], entry["unit"]) for entry in spec[section]]
    for entry in spec[section]:
        assert entry["name"] in expected
        assert "value" in measured[entry["name"]], f"{entry['name']} absent on {workload}"


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pd-n32", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
