"""Output checks computed apart from the program.

Each check recomputes a property of a run from first principles with plain
numpy and compares it with what the program returned:

* decodability — the all-ones vector lies in the span of the coding-matrix
  rows of the workers the master used (a least-squares solve, not the
  program's decoder);
* duration — an iteration lasts until the last used worker completes;
* earliest prefix — no shorter prefix of the completion order decodes;
* full-batch reference — coded training follows plain gradient descent on
  the whole dataset, run here outside any protocol;
* the paper's orderings of mean iteration time.

Every function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

#: Residual below which the all-ones vector counts as reconstructed.
DECODE_TOLERANCE = 1e-6
#: Largest relative gap between a coded loss and the full-batch reference.
LOSS_RTOL = 1e-9


class SpanOracle:
    """Memoised "does this worker set decode?" for one coding matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self._known: dict[frozenset[int], bool] = {}

    def decodes(self, workers: Iterable[int]) -> bool:
        key = frozenset(int(worker) for worker in workers)
        known = self._known.get(key)
        if known is None:
            known = self._solve(sorted(key))
            self._known[key] = known
        return known

    def _solve(self, rows: list[int]) -> bool:
        if not rows:
            return False
        block = self.matrix[rows].T  # (k, |rows|)
        ones = np.ones(block.shape[0])
        coefficients = np.linalg.lstsq(block, ones, rcond=None)[0]
        return float(np.abs(block @ coefficients - ones).max()) <= DECODE_TOLERANCE


def check_timing_trace(
    oracle: SpanOracle,
    durations: np.ndarray,
    completion_times: np.ndarray,
    workers_used: Sequence[Sequence[int]],
    prefix_sample: Iterable[int] = (),
) -> list[str]:
    """Decodability and duration on every iteration, earliest prefix on a sample."""
    failures: list[str] = []
    for step, used in enumerate(workers_used):
        used = [int(worker) for worker in used]
        if not used or not math.isfinite(durations[step]):
            failures.append(f"iteration {step}: no decodable worker set")
            continue
        if not oracle.decodes(used):
            failures.append(f"iteration {step}: workers {used} do not decode")
        latest = float(np.max(completion_times[step][used]))
        if float(durations[step]) != latest:
            failures.append(
                f"iteration {step}: duration {durations[step]!r} is not the last "
                f"used completion {latest!r}"
            )
    for step in prefix_sample:
        used = [int(worker) for worker in workers_used[step]]
        if not used:
            continue
        order = np.argsort(completion_times[step], kind="stable")
        position = {int(worker): index for index, worker in enumerate(order)}
        prefix = 1 + max(position[worker] for worker in used)
        if prefix > 1 and oracle.decodes(order[: prefix - 1]):
            failures.append(
                f"iteration {step}: the first {prefix - 1} completions already "
                f"decode, but the master waited for {prefix}"
            )
    return failures


def check_losses_match(
    scheme: str, losses: np.ndarray, reference: np.ndarray, rtol: float = LOSS_RTOL
) -> list[str]:
    """A coded scheme's recorded losses equal the full-batch reference."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.shape != reference.shape:
        return [f"{scheme}: {losses.shape[0]} losses, reference has {reference.shape[0]}"]
    failures = []
    for step, (got, want) in enumerate(zip(losses, reference)):
        if not abs(got - want) <= rtol * abs(want):
            failures.append(f"{scheme}: loss {got!r} at iteration {step}, reference {want!r}")
    return failures


def check_finite_losses(scheme: str, losses: np.ndarray) -> list[str]:
    """Every recorded loss is a finite number."""
    bad = [step for step, value in enumerate(np.asarray(losses)) if not math.isfinite(value)]
    return [f"{scheme}: non-finite loss at iterations {bad}"] if bad else []


def full_batch_losses(model, features: np.ndarray, labels: np.ndarray, learning_rate: float, iterations: int) -> np.ndarray:
    """Mean loss before each step of plain full-batch gradient descent.

    ``model`` exposes the program's model contract (``parameters``,
    ``set_parameters`` and ``loss_and_gradient`` returning the summed loss
    and gradient); the loop itself is the textbook update
    ``w <- w - lr * grad / n``.
    """
    count = features.shape[0]
    parameters = model.parameters()
    losses = np.empty(iterations)
    for step in range(iterations):
        loss, gradient = model.loss_and_gradient(features, labels)
        losses[step] = loss / count
        parameters = parameters - learning_rate * (gradient / count)
        model.set_parameters(parameters)
    return losses


def check_faster(
    mean_times: Mapping[tuple[str, str], Sequence[float]],
    clusters: Iterable[str],
    faster: Iterable[str],
    slower: Iterable[str],
) -> list[str]:
    """On every cluster, each ``faster`` scheme's seed-averaged mean
    iteration time is below each ``slower`` scheme's."""
    failures = []
    faster, slower = list(faster), list(slower)
    for cluster in clusters:
        for fast in faster:
            for slow in slower:
                fast_mean = float(np.mean(mean_times[cluster, fast]))
                slow_mean = float(np.mean(mean_times[cluster, slow]))
                if not fast_mean < slow_mean:
                    failures.append(
                        f"{cluster}: {fast} mean {fast_mean:.4f}s is not below "
                        f"{slow} mean {slow_mean:.4f}s"
                    )
    return failures
