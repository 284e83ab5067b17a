"""End-to-end tests: load generation over a real served model.

A tiny trained-shape workload (2 features, 2 clauses/polarity) keeps the
compile cheap; the tests pin the whole serving path — gateway + worker +
loadgen — including the headline guarantee that gateway classifications
are bit-identical to a direct :func:`repro.analysis.batch_functional_pass`
over the same operands, and that ``BENCH_serve.json`` lands in the
sim/DSE baseline schema the regression gate reads.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.analysis import batch_functional_pass, random_workload, resolve_library
from repro.datapath.datapath import DualRailDatapath
from repro.serve import (
    GatewayConfig,
    LoadConfig,
    MicroBatchGateway,
    ModelSpec,
    run_load,
)


@pytest.fixture(scope="module")
def workload():
    return random_workload(
        num_features=2, clauses_per_polarity=2, num_operands=32, seed=5
    )


def _serve(workload, load, gateway_config=None, **spec_kwargs):
    """Run one load-generation pass over a freshly served *workload*."""

    async def body():
        spec = ModelSpec.from_workload(workload, **spec_kwargs)
        gateway = MicroBatchGateway(
            spec, gateway_config or GatewayConfig(max_batch=16, max_delay_ms=5.0)
        )
        await gateway.start()
        try:
            return await run_load(gateway, workload.feature_vectors, load)
        finally:
            await gateway.stop()

    return asyncio.run(body())


def test_closed_loop_is_bit_identical_to_batch_pass(workload):
    """Gateway replies == the batch reference interpreter, request for request."""
    report = _serve(
        workload,
        LoadConfig(mode="closed", requests=64, concurrency=16, seed=3),
    )
    assert report.completed == 64 and report.rejected == 0

    datapath = DualRailDatapath(workload.config)
    sweep = batch_functional_pass(
        datapath,
        datapath.circuit,
        workload,
        resolve_library(None),
        with_activity=False,
        backend="batch",
    )
    n = workload.num_operands
    for verdict, decision, index in zip(
        report.verdicts, report.decisions, report.request_indices
    ):
        assert verdict == sweep.verdicts[index % n]
        assert decision == sweep.decisions[index % n]


def test_open_loop_reports_offered_rate_and_slo(workload):
    """Poisson arrivals: offered rate recorded, SLO summary is ordered."""
    report = _serve(
        workload,
        LoadConfig(mode="open", requests=40, rate_rps=4000.0, seed=9),
    )
    assert report.mode == "open"
    assert report.offered_rps == 4000.0
    assert report.completed == 40
    slo = report.slo_ms
    assert 0 < slo.p50 <= slo.p95 <= slo.p99 <= slo.maximum
    assert report.achieved_rps > 0
    assert 0 < report.batching_efficiency <= 1


def test_attribution_mode_attaches_model_latency(workload):
    """attribution=True adds per-request simulated hardware latency."""
    report = _serve(
        workload,
        LoadConfig(mode="closed", requests=8, concurrency=8, seed=2),
        attribution=True,
    )
    assert report.model_latency_ps is not None
    assert report.model_latency_ps.p50 > 0


def test_bench_json_matches_gate_schema(tmp_path, workload):
    """BENCH_serve.json carries {python, platform, metrics} for the gate."""
    report = _serve(
        workload, LoadConfig(mode="closed", requests=16, concurrency=8, seed=1)
    )
    path = tmp_path / "BENCH_serve.json"
    report.write_bench_json(path)
    record = json.loads(path.read_text())
    assert set(record) >= {"python", "platform", "metrics"}
    metrics = record["metrics"]
    assert metrics["serve_requests"] == 16.0
    assert metrics["serve_throughput_rps"] > 0
    assert 0 < metrics["serve_batching_efficiency"] <= 1
    assert all(key.startswith("serve_") for key in metrics)
    assert metrics["serve_latency_p50_ms"] <= metrics["serve_latency_max_ms"]


def test_back_to_back_runs_report_per_run_batches(workload):
    """A second run_load on one gateway reports its own deltas.

    Pre-fix the report quoted the gateway's cumulative counters, so a
    reused gateway inflated ``batches`` and skewed the efficiency metric
    the CI gate reads.
    """

    async def body():
        spec = ModelSpec.from_workload(workload)
        gateway = MicroBatchGateway(
            spec, GatewayConfig(max_batch=16, max_delay_ms=5.0)
        )
        await gateway.start()
        try:
            load = LoadConfig(mode="closed", requests=32, concurrency=8, seed=4)
            first = await run_load(gateway, workload.feature_vectors, load)
            second = await run_load(gateway, workload.feature_vectors, load)
        finally:
            await gateway.stop()
        return gateway, first, second

    gateway, first, second = asyncio.run(body())
    assert first.completed == second.completed == 32
    assert 0 < first.batches and 0 < second.batches
    # The two per-run deltas partition the gateway's cumulative counter;
    # cumulative reporting would have made second.batches equal the total.
    assert first.batches + second.batches == gateway.stats.batches
    assert 0 < second.batching_efficiency <= 1


def test_load_config_validation():
    """Bad run shapes fail before any serving starts."""
    with pytest.raises(ValueError, match="mode"):
        LoadConfig(mode="bursty")
    with pytest.raises(ValueError, match="requests"):
        LoadConfig(requests=0)
    with pytest.raises(ValueError, match="rate_rps"):
        LoadConfig(mode="open", rate_rps=0.0)
