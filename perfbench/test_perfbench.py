"""The benchmark's own tests: every workload at smoke size on a seed the
pinned figures do not cover, plus the tracing and calibration helpers.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import common  # noqa: E402
import fleet_workload  # noqa: E402
import hostcal  # noqa: E402
import ingest_workload  # noqa: E402
import pipeline_workload  # noqa: E402
import run as run_module  # noqa: E402
import tracing  # noqa: E402
from hostcal import HostCalibration  # noqa: E402
from tracing import (  # noqa: E402
    NullTracer,
    Tracer,
    patch_targets,
    patched,
    unpatched_snapshot,
)

import repro.service.ingest  # noqa: E402
import repro.service.server  # noqa: E402
from repro.obs.audit import audit_fleet  # noqa: E402

SEED = 7  # held out: pinned.json covers seed 0 only


@pytest.fixture(autouse=True)
def scratch(tmp_path, monkeypatch):
    """Keep recordings and checkpoints out of the checkout."""
    monkeypatch.setattr(common, "WORK_ROOT", str(tmp_path / "work"))
    monkeypatch.setattr(ingest_workload, "CACHE_DIR", str(tmp_path / "cache"))


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == common.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(run_module.WORKLOADS)


def test_fleet_smoke_audits_and_repeats():
    # A run's first plan is drawn from seed * PLANS.
    plan = fleet_workload.generate_fleet(fleet_workload.fleet_config(
        fleet_workload.SMOKE, SEED * fleet_workload.PLANS))
    total, stats, normalised, raw = fleet_workload.run_iteration(
        plan, fleet_workload.SMOKE, HostCalibration(), NullTracer())
    assert audit_fleet(total).ok
    assert total.beacons_sent > 0 and stats.transmissions > 0
    assert normalised > 0 and raw > 0
    outcome = fleet_workload.run(SEED, 0, sizes=fleet_workload.SMOKE)
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.pins["beacons_sent"][0] == total.beacons_sent


def test_pipeline_smoke_conserves_across_layers():
    outcome = pipeline_workload.run(SEED, 0, sizes=pipeline_workload.SMOKE)
    assert outcome.problems == []
    assert outcome.attempted == outcome.pins["wires"] > 0
    assert outcome.failed == 0


def test_pipeline_conservation_catches_a_lost_frame():
    plan = pipeline_workload.generate_fleet(pipeline_workload.fleet_config(
        pipeline_workload.SMOKE, SEED))
    deployment = pipeline_workload.Deployment(plan)
    deployment.simulate(pipeline_workload.SMOKE.duration_s, NullTracer())
    deployment.wires.pop(len(deployment.wires) // 2)
    with common.scratch_directory() as directory:
        service = asyncio.run(pipeline_workload.ingest(
            deployment.wires, directory, NullTracer()))
    problems = pipeline_workload.conservation_problems(deployment, service,
                                                       plan)
    assert any("cohort kernel" in problem for problem in problems)
    assert any("revealed losses" in problem for problem in problems)


def test_ingest_smoke_accounts_and_restores():
    sizes = ingest_workload.SMOKE
    outcome = ingest_workload.run(SEED, 0, sizes=sizes)
    # run() checks ingested + decode_errors == offered and that the
    # final checkpoint restores to the live digest, every round.
    assert outcome.problems == []
    assert outcome.failed == 0
    assert outcome.attempted == sizes.stream_frames + sizes.live_frames
    assert outcome.pins["ingested"] + outcome.pins["decode_errors"] \
        == outcome.attempted


def test_ingest_refuses_a_changed_recording():
    path, sha256 = ingest_workload.ensure_recording(SEED,
                                                    ingest_workload.SMOKE)
    assert len(ingest_workload.load_verified(path, sha256)) \
        == ingest_workload.SMOKE.stream_frames
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 1]))
    with pytest.raises(ValueError, match="sha256"):
        ingest_workload.load_verified(path, sha256)


def test_traced_run_reports_layers_and_restores_originals():
    before = unpatched_snapshot()
    tracer = Tracer()
    outcome = pipeline_workload.run(SEED, 0, tracer,
                                    sizes=pipeline_workload.SMOKE)
    assert outcome.problems == []
    layers = outcome.per_layer
    assert set(layers) <= set(common.PER_LAYER)
    assert layers["dot11.frames.encodes_per_beacon"] == pytest.approx(3.0)
    assert layers["sim.engine.events"] > 0
    assert 0 < layers["sim.engine.self_s"] < layers["sim.engine.run_s"]
    assert layers["service.ingest.us_per_frame"] > 0
    assert layers["trace.overhead_ratio"] > 0
    after = unpatched_snapshot()
    assert all(after[name] is before[name] for name in before)
    # What an untraced run calls is the program's own function object.
    assert repro.service.server.decode_wires \
        is repro.service.ingest.decode_wires


def test_patched_restores_when_the_block_raises():
    before = unpatched_snapshot()
    with pytest.raises(RuntimeError):
        with patched(patch_targets(Tracer())):
            assert repro.service.server.decode_wires \
                is not repro.service.ingest.decode_wires
            raise RuntimeError("boom")
    after = unpatched_snapshot()
    assert all(after[name] is before[name] for name in before)


def test_self_time_is_span_minus_children(monkeypatch):
    tracer = Tracer()
    clock = iter([0.0, 1.0, 3.0, 10.0])
    fake_time = types.SimpleNamespace(perf_counter=lambda: next(clock))
    monkeypatch.setattr(tracing, "time", fake_time)
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    assert tracer.total_s["parent"] == 10.0
    assert tracer.total_s["child"] == 2.0
    assert tracer.self_s["parent"] == 8.0
    child, parent = tracer.spans
    assert child[4] == parent[0] and parent[4] == -1


def test_normalisation_rescales_by_neighbouring_bursts():
    calibration = HostCalibration()
    # Bursts twice as slow as the reference around a 1 s stretch.
    reference = hostcal.REFERENCE_MS / 1e3
    calibration.bursts = [(0.0, 2 * reference), (1 + 2 * reference,
                                                 1 + 4 * reference)]
    assert calibration.raw_seconds(0, 1) == pytest.approx(1.0)
    assert calibration.normalised_seconds(0, 1) == pytest.approx(0.5)


def test_pinned_mismatch_is_reported():
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as f:
        pins = json.load(f)["0"]["fleet"]
    assert run_module.pinned_problems("fleet", 0, pins) == []
    wrong = dict(pins, demotions=[count + 1 for count in pins["demotions"]])
    assert run_module.pinned_problems("fleet", 0, wrong)
    assert run_module.pinned_problems("fleet", SEED, wrong) == []


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_*", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout

