"""The sweep-server workload: ``repro serve`` driven by one closed-loop client.

This process is the load generator.  It starts the server in a subprocess on
a file store in a fresh directory under ``.perfbench_tmp/``, submits Fig. 2
grids on Cluster-A as ``/sweep`` requests through ``ServiceClient`` (one at
a time, each sent when the previous reply arrived) and checks every reply.

A round of ``serve_resume`` is one request over seeds no earlier round used
(every run a store miss that the server computes and writes), then
``WARM_REPEATS`` resubmissions of it (every run a store hit).  The cold and
warm paths share each round in a fixed ratio, so both are measured, and the
latency of the store's fsyncs, which follows the shared disk, is a small
part of the whole.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.api import Engine, RunResult, RunSpec
from repro.api.client import ClientError, ServiceClient, SweepResponse
from repro.api.result import json_default

from . import harness, spans
from .workloads import CODED, RSS_ROUNDS, THROUGHPUT, WALL_LIMIT_S, round_seeds

TMP_DIR = harness.ROOT / ".perfbench_tmp"
#: Fig. 2's scale on Cluster-A; 2048 divides k = 8 and k = 16.  At 20
#: iterations a cold run spent a third of its time in the store's two
#: fsyncs, whose latency follows the shared disk, not the program; at 100
#: they are about a tenth, and compute and result JSON carry the run.
BASE = RunSpec(
    mode="timing",
    cluster="Cluster-A",
    cluster_options=THROUGHPUT,
    num_stragglers=1,
    total_samples=2048,
    num_iterations=100,
    partitions_multiplier=2,
)
DELAYS = (0.5, 1.0, 2.0, 4.0)
SEEDS_PER_REQUEST = 2
#: Resubmissions of each request after its cold pass.
WARM_REPEATS = 3
#: Served runs per cold request compared with an in-process ``Engine.run``.
ENGINE_CHECKS = 4
STARTUP_TIMEOUT_S = 60.0
#: Layers (span names) the workload must reach, in the server and the client.
REQUIRED = ("serve.handle_sweep", "api.fingerprint", "store.get", "store.put", "api.engine",
            "clusters.build", "coding.build_strategy", "decoding.decode", "simulation.trace",
            "result.encode", "client.round_trip", "result.decode")


def request_axes(seed: int, index: int) -> dict[str, list[Any]]:
    """Request ``index``: the four schemes x Fig. 2 delays x fresh seeds."""
    return {
        "scheme": list(CODED),
        "straggler": [
            {"kind": "artificial_delay", "params": {"num_stragglers": 1, "delay_seconds": delay}}
            for delay in DELAYS
        ],
        "seed": round_seeds(seed, index, SEEDS_PER_REQUEST),
    }


def request_specs(axes: dict[str, list[Any]]) -> list[RunSpec]:
    """The specs of a request, in ``Engine.sweep``'s row-major order."""
    return [BASE.replace(**dict(zip(axes, values))) for values in itertools.product(*axes.values())]


def canonical(result: RunResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, default=json_default)


def directory_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class Server:
    """A server subprocess; ``with`` stops it (and waits) whatever happens."""

    def __init__(self, command: list[str], log: Path) -> None:
        self.command = command
        self.log = log
        self.process: subprocess.Popen | None = None
        self.setup_s = float("nan")
        self.url = ""

    def __enter__(self) -> "Server":
        with open(self.log, "w") as log:
            launched = time.monotonic()
            self.process = subprocess.Popen(
                self.command, cwd=harness.ROOT, env=harness.child_env(),
                stdout=subprocess.PIPE, stderr=log, text=True,
            )
        try:
            match = re.search(r"http://[0-9.]+:[0-9]+", self._first_line())
            if match is None:
                raise harness.BenchError(f"server printed no address; see {self.log}")
            self.url = match.group(0)
            client = ServiceClient(self.url, timeout=5.0)
            while True:
                try:
                    client.health()
                    break
                except ClientError:
                    if self.process.poll() is not None or time.monotonic() - launched > STARTUP_TIMEOUT_S:
                        raise harness.BenchError(f"server never became healthy; see {self.log}") from None
                    time.sleep(0.002)
            self.setup_s = time.monotonic() - launched
        except BaseException:
            self.stop()
            raise
        return self

    def _first_line(self) -> str:
        assert self.process is not None and self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(STARTUP_TIMEOUT_S):
                raise harness.BenchError(f"server printed nothing in {STARTUP_TIMEOUT_S:.0f}s")
        return self.process.stdout.readline()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``)."""
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match is None:
            raise harness.BenchError("no VmHWM in the server's /proc status")
        return int(match.group(1)) / 1024.0

    def signal(self, signum: int) -> None:
        assert self.process is not None
        self.process.send_signal(signum)

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()

    def __exit__(self, *exc: object) -> None:
        self.stop()


def cli_server(store: Path) -> list[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store)]


def traced_server(store: Path, report: Path) -> list[str]:
    return [sys.executable, "-m", "pbench.server", "--store", str(store), "--report", str(report)]


class ServeWorkload:
    """The server workload; :meth:`run_pass` is a whole measured pass."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.engine = Engine()

    def _check_against_engine(self, index: int, response: SweepResponse, specs: list[RunSpec]) -> list[str]:
        failures = []
        step = len(specs) // ENGINE_CHECKS
        for j in range(ENGINE_CHECKS):
            position = (index + j * step) % len(specs)
            if canonical(response.results[position]) != canonical(self.engine.run(specs[position])):
                failures.append(f"round {index}: served run {position} differs from Engine.run")
        return failures

    def _check_response(self, label: str, response: SweepResponse, specs: list[RunSpec],
                        expected: tuple[int, int]) -> list[str]:
        n = len(specs)
        if len(response.results) != n:
            return [f"{label}: {len(response.results)} results for {n} specs"]
        failures = [
            f"{label}: run {position} is {result.spec.fingerprint()[:12]}, "
            f"expected {spec.fingerprint()[:12]}"
            for position, (result, spec) in enumerate(zip(response.results, specs))
            if result.spec != spec
        ]
        if (response.hits, response.misses) != expected:
            failures.append(
                f"{label}: {response.hits} hits / {response.misses} misses, expected {expected}"
            )
        return failures

    def check_round(self, index: int, responses: list[SweepResponse], specs: list[RunSpec]) -> list[str]:
        """The cold request reports only misses and matches ``Engine.run``; every
        resubmission reports only hits and is JSON-identical to it."""
        n = len(specs)
        cold, *warm = responses
        failures = self._check_response(f"round {index} cold", cold, specs, (0, n))
        if failures:
            return failures
        failures += self._check_against_engine(index, cold, specs)
        expected = [canonical(result) for result in cold.results]
        for repeat, response in enumerate(warm, 1):
            label = f"round {index} resubmission {repeat}"
            messages = self._check_response(label, response, specs, (n, 0))
            if not messages and [canonical(result) for result in response.results] != expected:
                messages.append(f"{label}: results differ from the cold ones")
            failures += messages
        return failures

    def run_pass(self, server: Server, seconds: float, rounds: int = 0,
                 recorder: spans.Recorder | None = None) -> harness.PassReport:
        """Whole rounds until ``seconds`` measured, or exactly ``rounds``.

        Round ``i`` sends request ``i`` (fresh seeds, every run a miss), then
        resubmits it ``WARM_REPEATS`` times (every run a hit).  A traced
        server starts recording (``SIGUSR1``) before the first round.
        """
        client = ServiceClient(server.url, timeout=60.0)
        outcome = harness.PassReport(setup_s=server.setup_s, required=REQUIRED)
        if recorder is not None:
            server.signal(signal.SIGUSR1)
            client.health()  # the signal is handled before this reply is sent
        hits = misses = 0
        started = time.monotonic()
        while True:
            index = outcome.rounds
            axes = request_axes(self.seed, index)
            specs = request_specs(axes)
            responses = []
            took = 0.0
            if recorder is not None:
                recorder.enabled = True
            for _ in range(1 + WARM_REPEATS):
                start = time.perf_counter()
                responses.append(client.sweep(BASE, **axes))
                took += time.perf_counter() - start
            if recorder is not None:
                recorder.enabled = False
            results = [result for response in responses for result in response.results]
            outcome.measured_s += took
            outcome.rounds += 1
            outcome.runs += len(results)
            outcome.iterations += sum(result.trace.num_iterations for result in results)
            if outcome.rounds == RSS_ROUNDS:
                outcome.peak_rss_mb = server.peak_rss_mb()
            hits += sum(response.hits for response in responses)
            misses += sum(response.misses for response in responses)
            messages = self.check_round(index, responses, specs)
            if messages:
                outcome.failed += (1 + WARM_REPEATS) * len(specs)
                outcome.failures += messages
            if rounds:
                if outcome.rounds >= rounds:
                    break
            elif outcome.rounds >= RSS_ROUNDS and (
                outcome.measured_s >= seconds or time.monotonic() - started > WALL_LIMIT_S
            ):
                break
        outcome.layers = {"store.hits": hits, "store.misses": misses}
        return outcome


class Served:
    """The :class:`harness.Runner` of ``serve_resume``; every server it
    starts gets a fresh store under ``scratch``."""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self._launches = itertools.count()

    def _paths(self, kind: str) -> tuple[Path, Path]:
        name = f"{kind}{next(self._launches)}"
        return self.scratch / name, self.scratch / f"{name}.log"

    def setup(self) -> float:
        store, log = self._paths("probe")
        with Server(cli_server(store), log) as server:
            return server.setup_s

    def measure(self, seconds: float) -> harness.PassReport:
        store, log = self._paths("store")
        with Server(cli_server(store), log) as server:
            return ServeWorkload(self.seed).run_pass(server, seconds)

    def traced(self, rounds: int) -> harness.PassReport:
        store, log = self._paths("traced")
        report = self.scratch / "server-trace.json"
        recorder = spans.Recorder()
        spans.install_client_layers(recorder)
        with Server(traced_server(store, report), log) as server:
            outcome = ServeWorkload(self.seed).run_pass(
                server, 0.0, rounds=rounds, recorder=recorder
            )
        outcome.processes = {"client": recorder.to_json(), "server": json.loads(report.read_text())}
        outcome.top_level_s = recorder.top_level_seconds()
        outcome.layers["store.bytes"] = directory_bytes(store)
        return outcome


@contextmanager
def served(seed: int) -> Iterator[Served]:
    """The server workload's runner; its stores are removed whatever happens."""
    TMP_DIR.mkdir(exist_ok=True)
    scratch = TMP_DIR / f"serve_resume-{seed}-{os.getpid()}"
    scratch.mkdir()
    try:
        yield Served(seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
