"""The benchmark's output checks pass on real runs and fail on corrupted ones."""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest
from pbench import checks, spans
from pbench.workloads import THROUGHPUT, TimingWorkload, rebuild_strategy, round_seeds
from repro.api import Engine, RunResult, RunSpec, StragglerSpec
from repro.experiments.workloads import get_workload
from repro.simulation.trace import RunTrace

DELAYED = StragglerSpec("artificial_delay", {"num_stragglers": 1, "delay_seconds": 2.0})


@pytest.fixture(scope="module")
def timing_result() -> RunResult:
    spec = RunSpec(
        scheme="heter_aware", cluster="Cluster-A", cluster_options=THROUGHPUT,
        total_samples=2048, num_iterations=12, straggler=DELAYED, seed=7,
    )
    return Engine().run(spec)


@pytest.fixture(scope="module")
def oracle(timing_result: RunResult) -> checks.SpanOracle:
    return checks.SpanOracle(rebuild_strategy(timing_result.spec).matrix)


def probe_workload(spec: RunSpec) -> TimingWorkload:
    return TimingWorkload("probe", spec, ("Cluster-A",), 1, 12, (), ())


def columns(result: RunResult):
    cols = result.trace.columns()
    return (
        np.array(cols.durations),
        np.array(cols.completion_times),
        [tuple(used) for used in cols.workers_used],
    )


def test_clean_trace_passes(oracle, timing_result):
    assert probe_workload(timing_result.spec)._check_result(timing_result) == []
    durations, completions, used = columns(timing_result)
    assert checks.check_timing_trace(oracle, durations, completions, used, range(len(used))) == []


def test_undecodable_worker_set_fails(oracle, timing_result):
    durations, completions, used = columns(timing_result)
    used[3] = used[3][: len(used[3]) - 2]  # drop two workers: beyond s = 1
    failures = checks.check_timing_trace(oracle, durations, completions, used)
    assert any("do not decode" in failure for failure in failures)


def test_wrong_duration_fails(oracle, timing_result):
    durations, completions, used = columns(timing_result)
    durations[5] += 0.25
    failures = checks.check_timing_trace(oracle, durations, completions, used)
    assert any("iteration 5: duration" in failure for failure in failures)


def test_late_decode_fails_earliest_prefix(oracle, timing_result):
    durations, completions, used = columns(timing_result)
    # Waiting for every worker decodes too, but a shorter prefix already did.
    used[4] = tuple(range(completions.shape[1]))
    durations[4] = completions[4].max()
    assert checks.check_timing_trace(oracle, durations, completions, used) == []
    failures = checks.check_timing_trace(oracle, durations, completions, used, [4])
    assert any("already decode" in failure for failure in failures)


def test_mismatched_loads_fail(timing_result):
    data = timing_result.trace.to_dict()
    data["metadata"]["loads"] = list(reversed(data["metadata"]["loads"]))
    corrupted = RunResult(timing_result.spec, RunTrace.from_dict(data), timing_result.metrics)
    failures = probe_workload(timing_result.spec)._check_result(corrupted)
    assert any("loads differ" in failure for failure in failures)


def training_spec(scheme: str) -> RunSpec:
    return RunSpec(
        scheme=scheme, mode="training", cluster="Cluster-A", cluster_options=THROUGHPUT,
        workload="nonseparable_blobs", total_samples=256, num_iterations=6,
        learning_rate=0.1, rng_version=2, seed=11,
    )


@pytest.fixture(scope="module")
def reference() -> np.ndarray:
    spec = training_spec("heter_aware")
    preset = get_workload(spec.workload)
    dataset = preset.make_dataset(spec.total_samples, seed=spec.seed)
    return checks.full_batch_losses(
        preset.make_model(dataset, seed=spec.seed), dataset.features, dataset.labels,
        spec.learning_rate, spec.num_iterations,
    )


@pytest.mark.parametrize("scheme", ["naive", "cyclic", "heter_aware", "group_based"])
def test_coded_training_matches_full_batch(scheme, reference):
    losses = Engine().run(training_spec(scheme)).trace.losses
    assert checks.check_losses_match(scheme, losses, reference) == []
    corrupted = np.array(losses)
    corrupted[3] *= 1 + 1e-6
    assert checks.check_losses_match(scheme, corrupted, reference)


def test_non_finite_losses_fail():
    assert checks.check_finite_losses("ssp", np.array([1.0, 2.0])) == []
    assert checks.check_finite_losses("ssp", np.array([1.0, np.inf, np.nan]))


def test_ordering_check():
    means = {("C", "heter_aware"): [1.0, 1.2], ("C", "cyclic"): [2.0, 1.9]}
    assert checks.check_faster(means, ["C"], ["heter_aware"], ["cyclic"]) == []
    assert checks.check_faster(means, ["C"], ["cyclic"], ["heter_aware"])


def test_round_seeds_depend_on_seed_and_round():
    assert round_seeds(3, 0, 4) == round_seeds(3, 0, 4)
    assert round_seeds(3, 0, 4) != round_seeds(3, 1, 4)
    assert round_seeds(3, 0, 4) != round_seeds(4, 0, 4)


def test_self_time_subtracts_children():
    records = [
        (1, 0, "decoding.decode", 1.0, 1.5),
        (2, 0, "decoding.decode", 2.0, 2.25),
        (0, None, "api.engine", 0.0, 3.0),
    ]
    totals = spans.layer_totals(records)
    assert totals["api.engine"]["self"] == pytest.approx(2.25)
    assert totals["decoding.decode"]["calls"] == 2
    assert spans.missing_layers([records], ["api.engine", "store.get"]) == ["store.get"]


def test_patch_function_rebinds_every_module(monkeypatch):
    def entry(value):
        return value + 1

    first, second = types.ModuleType("repro._pb_probe_a"), types.ModuleType("repro._pb_probe_b")
    first.entry = entry
    second.alias = entry
    monkeypatch.setitem(sys.modules, first.__name__, first)
    monkeypatch.setitem(sys.modules, second.__name__, second)
    recorder = spans.Recorder()
    assert spans.patch_function(recorder, entry, "clusters.build") == 2
    recorder.enabled = True
    assert first.entry(1) == 2 and second.alias(2) == 3
    assert [span[2] for span in recorder.spans] == ["clusters.build", "clusters.build"]
