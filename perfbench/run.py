"""Paper-workload benchmark of ``repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig3_seeds --seed 1 --seconds 10 --trace 0

Workloads: fig3_seeds, straggler_long, train_fig4, serve_resume.
With ``--trace 0`` the last stdout line is the end-to-end metrics; with
``--trace 1`` it is the per-layer metrics of a traced pass, and the spans
go to ``.perfbench_out/``.  The line before it records the machine (nproc,
Python and numpy versions), the seed and any check failures.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads, here and in every child process:
# on a small machine a multi-threaded gemm makes the figures depend on what
# else is running.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
IN_PROCESS = ("fig3_seeds", "straggler_long", "train_fig4")
SERVED = ("serve_resume",)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=IN_PROCESS + SERVED, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from pbench import harness

    if args.workload in SERVED:
        from pbench.serving import served

        runners = served(args.seed)
    else:
        runners = contextlib.nullcontext(harness.InProcess(args.workload, args.seed))
    try:
        with runners as runner:
            fields, info = harness.run(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = harness.PER_LAYER_UNITS if args.trace else harness.END_TO_END_UNITS
    fields["metrics"] = {
        name: {"value": fields["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    print(json.dumps(info))
    print(json.dumps(fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
