"""Tests of the benchmark itself: inputs, gates, tracing and exit codes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from cbs2.spectrum import SpectrumEngine, integrate_spectrum, oracle_spectrum_result
from tracing import NullTracer, Tracer, self_times

BENCH = Path(run.__file__).resolve().parent


def _same_inputs(a, b):
    return json.dumps(a, default=lambda x: np.asarray(x).tolist()) == json.dumps(
        b, default=lambda x: np.asarray(x).tolist()
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    workload = workloads.WORKLOADS[name]
    assert _same_inputs(workload.inputs(7), workload.inputs(7))
    assert not _same_inputs(workload.inputs(7), workload.inputs(8))


def test_anchors_lead_every_input_list():
    for seed in (0, 1, 12345):
        sweep = workloads.SpectrumSweep().inputs(seed)
        assert sweep[:2] == [1.0, 100.0]
        assert all(0.1 <= om <= 100.0 for om in sweep[2:])
        probe = workloads.EngineProbe().inputs(seed)
        assert [om for om, _ in probe[:2]] == [1.0, 100.0]
        assert all(len(phases) == workloads.GAUGE_PHASES for _, phases in probe)
        scan = workloads.EnhancementScan().inputs(seed)
        assert [s for s, _, _ in scan[:2]] == [0.5, 5000.0]
        assert all(1e-3 <= s <= 1e3 for s, _, _ in scan[2:])


def test_drawn_orientations_keep_the_geometry_weight():
    from cbs2.geometry import Configuration

    for _, phi, n_hat in workloads.EnhancementScan().inputs(3):
        weight = Configuration(n_hat=n_hat, phi_L=phi).geometry_weight
        assert weight >= workloads.MIN_GEOMETRY_WEIGHT > 1e-12


def test_perturbed_density_trips_the_gauge_gate_and_counts_as_failed(monkeypatch):
    original = SpectrumEngine.densities
    calls = []

    def perturbed(self, nu_grid):
        ladder, crossed = original(self, nu_grid)
        calls.append(1)
        if len(calls) == 2:
            ladder = ladder * (1.0 + 1e-6)
        return ladder, crossed

    monkeypatch.setattr(SpectrumEngine, "densities", perturbed)
    workload = workloads.EngineProbe()
    items = run.measure(workload, workload.inputs(1)[:1], 1e-9, NullTracer())
    summary = run.summarize(items)
    assert summary["attempted"] == workloads.GAUGE_PHASES
    assert summary["failed"] == 1
    assert "gauge spread" in summary["failures"][0]


def test_perturbed_density_trips_the_closure_and_symmetry_gates():
    spec = oracle_spectrum_result(100.0)
    ladder, crossed = integrate_spectrum(spec)
    terms = dataclasses.make_dataclass("Terms", ["ladder_total", "crossed_total"])(
        ladder, crossed
    )
    assert workloads.spectrum_gates("clean", spec, (ladder, crossed), terms) == []

    shifted = dataclasses.replace(spec, ladder_inel=spec.ladder_inel * (1.0 + 1e-5))
    failures = workloads.spectrum_gates(
        "shifted", shifted, integrate_spectrum(shifted), terms
    )
    assert len(failures) == 1 and "closure" in failures[0]

    lopsided = dataclasses.replace(spec, symmetry_defect=1e-8)
    failures = workloads.spectrum_gates("lopsided", lopsided, (ladder, crossed), terms)
    assert len(failures) == 1 and "symmetry" in failures[0]


def test_raised_errors_are_named_failures(monkeypatch):
    from cbs2.perturbation import DegeneracyError

    def degenerate(params, cfg):
        raise DegeneracyError("forced")

    monkeypatch.setattr(workloads, "build_expansion", degenerate)
    workload = workloads.EnhancementScan()
    items = workload.run_unit(workload.inputs(1)[2], NullTracer())
    assert "raised DegeneracyError: forced" in items[0].failures[0]
    assert run.summarize(items)["failed"] == 1


@pytest.mark.parametrize("name", ["enhancement-scan", "engine-probe"])
def test_tracing_on_and_off_give_identical_numbers(name):
    workload = workloads.WORKLOADS[name]
    units = workload.inputs(5)[2:4]
    plain = [workload.run_unit(unit, NullTracer()) for unit in units]
    tracer = Tracer()
    traced = [workload.run_unit(unit, tracer) for unit in units]
    assert [i.output for items in plain for i in items] == [
        i.output for items in traced for i in items
    ]
    names = {span["name"] for span in tracer.spans}
    assert {"item", "generators.free_generator", "perturbation.zeroth_steady_state"} <= names
    metrics = run.layer_metrics(tracer, [i for items in traced for i in items])
    assert set(metrics) == {name for name, _ in run.LAYER_METRICS}
    assert tracer.overhead_s > 0


def test_self_time_subtracts_children():
    spans = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0, "counts": {}},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0, "counts": {}},
        {"name": "c", "parent": 1, "start": 2.0, "end": 3.0, "counts": {}},
        {"name": "b", "parent": 0, "start": 5.0, "end": 6.0, "counts": {}},
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
