"""The tracer wraps module attributes, restores them, and survives refactors."""

import sys

import numpy as np
import pytest

import quadnf
import quadnf.reporting  # noqa: F401
import tracing
import workloads


def _analyze(m):
    return sys.modules["quadnf.normal_form"].normal_form(m)


def test_spans_cover_layers_and_originals_come_back():
    spectrum = sys.modules["quadnf.spectrum"]
    originals = (spectrum.classify_spectrum, np.linalg.svd, quadnf.normal_form)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _analyze(workloads.generic_matrix(np.random.default_rng(0), 3))
    finally:
        tracer.uninstall()
    assert (spectrum.classify_spectrum, np.linalg.svd, quadnf.normal_form) == originals
    tracer.fold()
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert metrics["normal_form.attempts"]["value"] == 1
    assert metrics["spectrum.cluster_calls"]["value"] >= 1   # called inside classify_spectrum
    assert metrics["lapack.svd_calls"]["value"] >= 1
    assert metrics["lapack.svd_gflop"]["value"] > 0
    assert "absent" in metrics["reporting.scan_self_ms"]     # not reached by normal_form


def test_error_leaving_a_layer_is_counted():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(quadnf.QuadnfError):
            sys.modules["quadnf.spectrum"].jordan_chains(np.diag([1.0, -1.0]), 0.5 + 0j, 2)
    finally:
        tracer.uninstall()
    tracer.fold()
    assert tracer.counts["spectrum.errors.ChainExtractionError"] == 1


def test_missing_boundary_is_reported_absent(monkeypatch):
    monkeypatch.delattr(sys.modules["quadnf.reporting"], "serialize_scan")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _analyze(workloads.pd_matrix(np.random.default_rng(1), 2))
    finally:
        tracer.uninstall()
    tracer.fold()
    assert tracer.absent == ["quadnf.reporting.serialize_scan"]
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert metrics["reporting.serialize_ms"]["absent"].startswith("the program has no")
    assert metrics["normal_form.fast_path_share"]["value"] == 1.0


def test_svd_flops_follow_the_stated_formula():
    a = np.zeros((6, 4))
    assert tracing.svd_flops((a,), {"compute_uv": False}) == 4 * 6 * 16 - 4 * 64 / 3
    assert tracing.svd_flops((a,), {}) == 4 * 36 * 4 + 8 * 6 * 16 + 9 * 64
    assert tracing.svd_flops((a.astype(complex), False), {}) == 4 * (14 * 6 * 16 + 8 * 64)
