"""Process orchestration and metric assembly for one benchmark run.

:func:`run` is the one orchestration of every workload.  A workload kind
supplies a :class:`Runner` — how to time one set-up, how to run a measured
pass and how to run a traced pass — and :func:`run` turns what those
return into the result line.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol

from . import spans

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
#: Where traced runs write their spans (inside the checkout, git-ignored).
OUT_DIR = ROOT / ".perfbench_out"
#: Set-ups timed per run (the measured process plus probes); the median is reported.
SETUP_SAMPLES = 5
#: Fresh interpreters timed for ``cli.import_s``.
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "sim_iters_per_s": "iterations/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{name: "s" for name, _ in spans.SPAN_METRICS.values()},
    "coding.build_strategy_calls": "calls",
    "coding.groups_found": "groups",
    "decoding.decode_calls": "calls",
    "learning.gradient_calls": "calls",
    "api.stacked_runs": "runs",
    "api.single_runs": "runs",
    "store.bytes": "bytes",
    "store.hits": "runs",
    "store.misses": "runs",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """A benchmark process failed or produced no result."""


@dataclass
class PassReport:
    """One pass of whole rounds: its totals, checks and what it traced."""

    #: Launch of the working process to its first measured call.
    setup_s: float = math.nan
    rounds: int = 0
    runs: int = 0
    iterations: int = 0
    #: Sum of the rounds' durations (the checks run outside it).
    measured_s: float = 0.0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Peak RSS of the working process after ``workloads.RSS_ROUNDS`` rounds.
    peak_rss_mb: float = math.nan
    #: Traced passes: ``{process: {"spans": [...], "counts": {...}}}``.
    processes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Traced passes: time the load-generating process spent in top-level spans.
    top_level_s: float = 0.0
    #: Span names the workload must reach.
    required: tuple[str, ...] = ()
    #: Per-layer metrics the runner measures itself (the store's).
    layers: dict[str, float] = field(default_factory=dict)


class Runner(Protocol):
    """How one workload kind is launched and measured."""

    def setup(self) -> float:
        """Launch the working process once; seconds to its first measured call."""

    def measure(self, seconds: float) -> PassReport:
        """An untraced pass of whole rounds until ``seconds`` are measured."""

    def traced(self, rounds: int) -> PassReport:
        """A traced pass of exactly ``rounds`` rounds, in a fresh process."""


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    return env


def run_json(command: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[float, dict[str, Any]]:
    """Run ``command``; return its launch time and its last stdout line as JSON."""
    launched = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{command[2:4]} exceeded {timeout:.0f}s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{' '.join(command[1:4])} exited with {done.returncode}: {done.stderr[-2000:]}"
        )
    return launched, json.loads(lines[-1])


class InProcess:
    """An in-process workload, run in a ``python -m pbench.worker`` child."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed

    def _worker(self, mode: str, seconds: float = 0.0, rounds: int = 0) -> PassReport:
        launched, report = run_json([
            sys.executable, "-m", "pbench.worker", "--workload", self.workload,
            "--seed", str(self.seed), "--seconds", str(seconds), "--mode", mode,
            "--rounds", str(rounds),
        ])
        passed = PassReport(setup_s=report["ready"] - launched)
        if mode == "setup":
            return passed
        passed.rounds = report["rounds"]
        passed.runs = report["runs"]
        passed.iterations = report["iterations"]
        passed.measured_s = report["measured_s"]
        passed.failed = report["failed"]
        passed.failures = report["failures"]
        passed.peak_rss_mb = report["maxrss_kb"] / 1024.0
        passed.required = tuple(report["required_layers"])
        passed.layers = {"store.bytes": 0, "store.hits": 0, "store.misses": 0}  # no store
        if "trace" in report:
            passed.processes = {"worker": report["trace"]}
            passed.top_level_s = report["top_level_s"]
        return passed

    def setup(self) -> float:
        return self._worker("setup").setup_s

    def measure(self, seconds: float) -> PassReport:
        return self._worker("measure", seconds=seconds)

    def traced(self, rounds: int) -> PassReport:
        return self._worker("traced", rounds=rounds)


def import_seconds() -> float:
    """Median time of ``import repro.cli`` in a fresh interpreter."""
    probe = (
        "import json, time; start = time.perf_counter(); import repro.cli; "
        "print(json.dumps(time.perf_counter() - start))"
    )
    return statistics.median(
        run_json([sys.executable, "-c", probe])[1] for _ in range(IMPORT_SAMPLES)
    )


def environment(workload: str, seed: int) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def write_trace(info: dict[str, Any], processes: dict[str, Any], layers: dict[str, float]) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{info['workload']}-seed{info['seed']}.json"
    path.write_text(json.dumps({**info, "layers": layers, "processes": processes}))
    return path


def run(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (result fields, environment info).

    Untraced, the rates are totals over the whole measured pass and
    ``setup_s`` is the median of ``SETUP_SAMPLES`` launches.  Traced, the
    workload runs untraced once for its round count and overhead baseline,
    then traced for the same rounds; the run fails when a layer the workload
    must reach recorded no call.
    """
    info = environment(workload, seed)
    if not trace:
        setups = [runner.setup() for _ in range(SETUP_SAMPLES - 1)]
        passed = runner.measure(seconds)
        setups.append(passed.setup_s)
        metrics = {
            "setup_s": statistics.median(setups),
            "runs_per_s": passed.runs / passed.measured_s,
            "sim_iters_per_s": passed.iterations / passed.measured_s,
            "peak_rss_mb": passed.peak_rss_mb,
        }
        info.update(rounds=passed.rounds, measured_s=passed.measured_s, setups_s=setups)
    else:
        untraced = runner.measure(seconds)
        passed = runner.traced(untraced.rounds)
        span_sets = [process["spans"] for process in passed.processes.values()]
        missing = spans.missing_layers(span_sets, passed.required)
        if missing:
            raise BenchError(f"traced run reached no call of {missing}")
        counts = sum((Counter(process["counts"]) for process in passed.processes.values()), Counter())
        metrics = spans.layer_metrics(span_sets, counts)
        metrics.update(passed.layers)
        metrics["cli.import_s"] = import_seconds()
        metrics["trace.unattributed_s"] = passed.measured_s - passed.top_level_s
        metrics["trace.overhead_s"] = passed.measured_s - untraced.measured_s
        info.update(rounds=passed.rounds, measured_s=passed.measured_s,
                    untraced_measured_s=untraced.measured_s)
        info["trace_file"] = str(write_trace(info, passed.processes, metrics).relative_to(ROOT))
    info["failures"] = passed.failures[:20]
    fields = {
        "correct": not passed.failures and passed.failed == 0,
        "attempted": passed.runs,
        "failed": passed.failed,
        "metrics": metrics,
    }
    return fields, info
