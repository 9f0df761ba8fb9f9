"""Re-derive the reference figures quoted in ``perfbench/README.md``.

Two tables, both from fresh runs (nothing is read from a saved copy)::

    python3 perfbench/reference.py figures
    python3 perfbench/reference.py spread --first-seed 1001

``figures`` runs the ``fig3_seeds`` and ``straggler_long`` specs in-process
over ``FIGURE_SEEDS`` seeds and prints each cluster's mean iteration time
per scheme, with its spread over seeds (median and quartiles of the
per-seed means).

``spread`` runs ``perfbench/run.py`` ``SPREAD_RUNS`` times on every workload
of ``BENCHMARK.json``, for its ``run_seconds``, each time with the next
seed from ``--first-seed``, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the quartile distance as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
bound ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
FIGURE_SEEDS = 20
SPREAD_RUNS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def figures() -> None:
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    from collections import defaultdict

    from pbench.workloads import fig3_seeds, round_seeds, straggler_long
    from repro.api import Engine

    engine = Engine()
    for workload in (fig3_seeds(), straggler_long()):
        seed_list = round_seeds(0, 0, FIGURE_SEEDS)
        axes = {name: list(values) for name, values in workload.axes.items()}
        results = workload.execute(engine, {**axes, "seed": seed_list})
        means: dict[tuple[str, str], list[float]] = defaultdict(list)
        for result in results:
            means[result.spec.cluster, result.spec.scheme].append(result.mean_iteration_time)
        print(f"\n{workload.name}: mean iteration time [s] over {FIGURE_SEEDS} seeds, "
              "median (quartiles) of the per-seed means\n")
        print("| cluster | " + " | ".join(axes["scheme"]) + " |")
        print("|---|" + "---|" * len(axes["scheme"]))
        for cluster in axes["cluster"]:
            cells = []
            for scheme in axes["scheme"]:
                q1, median, q3 = quartiles(means[cluster, scheme])
                cells.append(f"{median:.3f} ({q1:.3f}–{q3:.3f})")
            print(f"| {cluster} | " + " | ".join(cells) + " |")


def spread(first_seed: int) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = range(first_seed, first_seed + SPREAD_RUNS)
    print(f"\n{SPREAD_RUNS} runs per workload of {seconds} s, seeds {seeds[0]}..{seeds[-1]}\n")
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median | bound | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in (entry["name"] for entry in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed: "
                      f"{done.stdout.strip().splitlines()[-2]}", file=sys.stderr)
            shares.add(f"{result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            q1, median, q3 = quartiles(series)
            print(f"| {workload} | {name} | {median:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / median:.3f} | {bounds[name]} | {', '.join(sorted(shares))} |")
        sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("figures", help="mean iteration time per cluster and scheme")
    spr = commands.add_parser("spread", help="spread of the end-to-end metrics")
    spr.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.command == "figures":
        figures()
    else:
        spread(args.first_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
