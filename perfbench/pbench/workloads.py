"""The in-process workloads: specs per round, execution, output checks.

A run of a workload is a sequence of whole *rounds*.  Round ``i`` of a run
with seed ``s`` sweeps a fixed grid over run seeds drawn from
``SeedSequence([s, i])``, so the same ``--seed`` always gives the same
inputs, every round does the same amount of work, and no round repeats an
earlier round's inputs (which would hit the program's process-wide kernel
and dataset caches and measure a regime a fresh sweep never sees).
"""

from __future__ import annotations

import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from repro.api import Engine, RunResult, RunSpec, StragglerSpec
from repro.coding.registry import build_strategy, natural_partitions
from repro.coding.types import CodingStrategy
from repro.experiments.clusters import build_cluster
from repro.experiments.common import SampleCountDriftWarning
from repro.experiments.workloads import get_workload

from . import checks

#: Cluster scale shared by every figure of the paper (``run_fig2``..``run_fig5``).
THROUGHPUT = {"samples_per_second_per_vcpu": 50.0}
#: Light background interference of ``run_fig3`` and ``run_fig4``.
TRANSIENT = StragglerSpec("transient", {"probability": 0.05, "mean_delay_seconds": 0.5})
CODED = ("naive", "cyclic", "heter_aware", "group_based")
#: Rounds after which a pass reads its peak RSS.  Every pass runs at least
#: this many, so the figure does not grow with the number of rounds a
#: faster program fits into the measured seconds.
RSS_ROUNDS = 2
#: Stop starting rounds after this much wall time, so a run that turned
#: very slow still ends well inside its time limit.
WALL_LIMIT_S = 60.0

# Program layers (span names) each workload must reach in a traced run.
TIMING_LAYERS = (
    "clusters.build", "coding.build_strategy", "decoding.decode", "simulation.kernel",
    "simulation.trace", "metrics.from_trace", "api.engine",
)
TRAINING_LAYERS = (
    "clusters.build", "coding.build_strategy", "decoding.decode", "simulation.kernel",
    "simulation.trace", "metrics.from_trace", "api.engine", "learning.gradient",
    "learning.optimizer", "learning.dataset", "protocols",
)


def round_seeds(seed: int, index: int, count: int) -> list[int]:
    """The run seeds of round ``index`` of a run started with ``seed``."""
    return [int(value) for value in np.random.SeedSequence([seed, index]).generate_state(count)]


def rebuild_strategy(spec: RunSpec) -> CodingStrategy:
    """A timing run's coding strategy, rebuilt from the spec alone through
    the public builders (the cluster and construction RNG follow the seed)."""
    options = dict(spec.cluster_options)
    options.setdefault("rng", spec.seed)
    cluster = build_cluster(spec.cluster, **options)
    k = spec.num_partitions or natural_partitions(
        spec.scheme, cluster.num_workers, spec.partitions_multiplier
    )
    return build_strategy(
        spec.scheme,
        throughputs=cluster.estimated_throughputs,
        num_partitions=k,
        num_stragglers=spec.num_stragglers,
        rng=np.random.default_rng(spec.seed),
    )


@dataclass
class Outcome:
    """What a run of whole rounds returned and how its checks went."""

    runs: int = 0
    iterations: int = 0
    failed_runs: set[tuple[int, int]] = field(default_factory=set)
    failures: list[str] = field(default_factory=list)

    def fail(self, key: tuple[int, int], messages: list[str]) -> None:
        if messages:
            self.failed_runs.add(key)
            self.failures.extend(messages)


class Workload:
    """One named load: a spec grid swept through ``Engine.sweep`` per round."""

    name: str
    base: RunSpec
    axes: dict[str, tuple[Any, ...]]
    seeds_per_round: int
    required_layers: tuple[str, ...]

    def round_axes(self, seed: int, index: int) -> dict[str, list[Any]]:
        axes = {name: list(values) for name, values in self.axes.items()}
        axes["seed"] = round_seeds(seed, index, self.seeds_per_round)
        return axes

    def execute(self, engine: Engine, axes: dict[str, list[Any]]) -> list[RunResult]:
        return engine.sweep(self.base, **axes)

    def check_round(self, index: int, results: list[RunResult], outcome: Outcome) -> None:
        raise NotImplementedError

    def check_run(self, outcome: Outcome) -> None:
        """Checks over every round of the run (the paper's orderings)."""


class TimingWorkload(Workload):
    """Timing-only sweeps, checked run by run against rebuilt strategies."""

    def __init__(self, name: str, base: RunSpec, clusters: tuple[str, ...],
                 seeds_per_round: int, prefix_samples: int,
                 faster: tuple[str, ...], slower: tuple[str, ...]) -> None:
        self.name = name
        self.base = base
        self.axes = {"cluster": clusters, "scheme": CODED}
        self.seeds_per_round = seeds_per_round
        self.required_layers = TIMING_LAYERS
        self.prefix_samples = prefix_samples
        self.faster, self.slower = faster, slower
        self._means: dict[tuple[str, str], list[float]] = defaultdict(list)
        self._keys: dict[str, list[tuple[int, int]]] = defaultdict(list)

    def execute(self, engine: Engine, axes: dict[str, list[Any]]) -> list[RunResult]:
        with warnings.catch_warnings():
            # Run_fig3's 4096 samples do not divide Cluster-D's partition
            # counts; the drift is part of that figure's definition.
            warnings.simplefilter("ignore", SampleCountDriftWarning)
            return engine.sweep(self.base, **axes)

    def check_round(self, index: int, results: list[RunResult], outcome: Outcome) -> None:
        for position, result in enumerate(results):
            key = (index, position)
            spec = result.spec
            self._means[spec.cluster, spec.scheme].append(result.mean_iteration_time)
            self._keys[spec.cluster].append(key)
            outcome.fail(key, [f"{spec.cluster}/{spec.scheme}/seed {spec.seed}: {message}"
                               for message in self._check_result(result)])

    def _check_result(self, result: RunResult) -> list[str]:
        spec = result.spec
        strategy = rebuild_strategy(spec)
        if [int(load) for load in strategy.loads] != [int(load) for load in result.trace.metadata["loads"]]:
            return ["rebuilt strategy's loads differ from the trace's recorded loads"]
        columns = result.trace.columns()
        n = columns.num_iterations
        if n != spec.num_iterations:
            return [f"{n} iterations, expected {spec.num_iterations}"]
        sample = np.unique(np.linspace(0, n - 1, min(n, self.prefix_samples)).astype(int))
        return checks.check_timing_trace(
            checks.SpanOracle(strategy.matrix),
            columns.durations,
            columns.completion_times,
            list(columns.workers_used),
            prefix_sample=sample.tolist() if spec.cluster in ("Cluster-C", "Cluster-D") else (),
        )

    def check_run(self, outcome: Outcome) -> None:
        for cluster in self.axes["cluster"]:
            messages = checks.check_faster(self._means, [cluster], self.faster, self.slower)
            if messages:  # an ordering fails every run on its cluster
                outcome.failures.extend(messages)
                outcome.failed_runs.update(self._keys[cluster])


class TrainingWorkload(Workload):
    """Fig. 4 training, checked against full-batch gradient descent."""

    name = "train_fig4"
    base = RunSpec(
        mode="training",
        cluster="Cluster-C",
        cluster_options=THROUGHPUT,
        workload="cifar10_mlp",
        total_samples=2048,  # divisible by k = 32 (naive, cyclic) and 64
        num_iterations=6,
        num_stragglers=1,
        partitions_multiplier=2,
        straggler=TRANSIENT,
        learning_rate=0.1,
        ssp_staleness=3.0,
        ssp_batch_size=8,
        loss_eval_samples=512,
        rng_version=2,
    )
    axes = {"scheme": (*CODED, "ssp")}
    seeds_per_round = 1
    required_layers = TRAINING_LAYERS

    def check_round(self, index: int, results: list[RunResult], outcome: Outcome) -> None:
        spec = results[0].spec
        preset = get_workload(spec.workload)
        dataset = preset.make_dataset(spec.total_samples, seed=spec.seed)
        reference = checks.full_batch_losses(
            preset.make_model(dataset, seed=spec.seed),
            dataset.features,
            dataset.labels,
            spec.learning_rate,
            spec.num_iterations,
        )
        for position, result in enumerate(results):
            scheme = result.spec.scheme
            losses = result.trace.losses
            if scheme == "ssp":
                messages = checks.check_finite_losses(scheme, losses)
                if len(losses) != spec.num_iterations:
                    messages.append(f"ssp: {len(losses)} iterations, expected {spec.num_iterations}")
            else:
                messages = checks.check_losses_match(scheme, losses, reference)
            outcome.fail((index, position), [f"seed {spec.seed}: {m}" for m in messages])


def fig3_seeds() -> Workload:
    """The specs ``run_fig3`` builds at its paper defaults, swept over seeds."""
    return TimingWorkload(
        "fig3_seeds",
        # s=1, 20 iterations, 4096 samples, light transient slowdowns and
        # the spec's default rng_version, as run_fig3 builds them.
        RunSpec(
            mode="timing",
            cluster_options=THROUGHPUT,
            num_stragglers=1,
            total_samples=4096,
            num_iterations=20,
            partitions_multiplier=2,
            straggler=TRANSIENT,
        ),
        clusters=("Cluster-B", "Cluster-C", "Cluster-D"),
        seeds_per_round=1,
        prefix_samples=5,
        faster=("heter_aware", "group_based"),
        slower=("naive", "cyclic"),
    )


def straggler_long() -> Workload:
    """Fig. 2's single delayed straggler on Clusters C and D, long traces."""
    return TimingWorkload(
        "straggler_long",
        # 3712 is divisible by every partition count used (32, 64, 58, 116).
        RunSpec(
            mode="timing",
            cluster_options=THROUGHPUT,
            num_stragglers=1,
            total_samples=3712,
            num_iterations=200,
            partitions_multiplier=2,
            straggler=StragglerSpec(
                "artificial_delay", {"num_stragglers": 1, "delay_seconds": 2.0}
            ),
            rng_version=2,
        ),
        clusters=("Cluster-C", "Cluster-D"),
        seeds_per_round=1,
        prefix_samples=20,
        faster=("heter_aware",),
        slower=("cyclic",),
    )


#: Factories of the in-process workloads, by name.
WORKLOADS = {
    "fig3_seeds": fig3_seeds,
    "straggler_long": straggler_long,
    "train_fig4": TrainingWorkload,
}
