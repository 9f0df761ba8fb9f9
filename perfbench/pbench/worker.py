"""The process that runs an in-process workload (``python -m pbench.worker``).

It imports the program, builds the first round's inputs and then prints, as
its last stdout line, one JSON object: the moment it became ready (its first
measured call; ``time.monotonic`` is system-wide, so the parent turns it
into a set-up time), the pass's totals, the checks' verdicts and its peak
RSS after ``RSS_ROUNDS`` rounds.

``--mode setup`` stops once ready; ``--mode measure`` runs whole rounds until
``--seconds`` of measured time have passed (and at least ``RSS_ROUNDS``);
``--mode traced`` wraps the program's layers first and runs exactly
``--rounds`` rounds.  The checks run after the last round, so neither their
time nor their memory counts in the figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any

#: Failure messages carried back to the parent (the count is exact).
MAX_MESSAGES = 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "traced"), required=True)
    parser.add_argument("--rounds", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.api import Engine

    from .workloads import RSS_ROUNDS, WALL_LIMIT_S, WORKLOADS, Outcome

    workload = WORKLOADS[args.workload]()
    engine = Engine()
    axes = workload.round_axes(args.seed, 0)
    recorder = None
    if args.mode == "traced":
        from .spans import Recorder, install_program_layers

        recorder = Recorder()
        install_program_layers(recorder)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    measured = 0.0
    done: list[list[Any]] = []  # each round's results, checked after the pass
    maxrss_kb = 0
    while True:
        if recorder is not None:
            recorder.enabled = True
        start = time.perf_counter()
        results = workload.execute(engine, axes)
        measured += time.perf_counter() - start
        if recorder is not None:
            recorder.enabled = False
        done.append(results)
        if len(done) == RSS_ROUNDS:
            maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.mode == "traced":
            if len(done) >= args.rounds:
                break
        elif len(done) >= RSS_ROUNDS and (
            measured >= args.seconds or time.monotonic() - ready > WALL_LIMIT_S
        ):
            break
        axes = workload.round_axes(args.seed, len(done))

    outcome = Outcome()
    for index, results in enumerate(done):
        outcome.runs += len(results)
        outcome.iterations += sum(result.trace.num_iterations for result in results)
        workload.check_round(index, results, outcome)
    workload.check_run(outcome)

    report = {
        "ready": ready,
        "rounds": len(done),
        "runs": outcome.runs,
        "iterations": outcome.iterations,
        "measured_s": measured,
        "failed": len(outcome.failed_runs),
        "failures": outcome.failures[:MAX_MESSAGES],
        "maxrss_kb": maxrss_kb,
        "required_layers": list(workload.required_layers),
    }
    if recorder is not None:
        report["trace"] = recorder.to_json()
        report["top_level_s"] = recorder.top_level_seconds()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
