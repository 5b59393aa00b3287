"""Empirical differential-privacy estimation for the noisy trainers.

The delta estimator resamples an adjacent dataset pair per outer round, then
trains the pair repeatedly with shared seeds (identical initialization,
batch selection, and noise draws) and counts training points whose predicted
class-probability log-ratio between the two models exceeds epsilon. The
membership experiment instead tracks the loss on one target record with and
without that record in the training set, and raises `AnisoError` rather than
report a target loss or gap that is not finite. Both train the runs of both
arms in a single `train_stacked` call, so each seed's batches and noise are
drawn once for the pair, and then score every model in one stacked pass
(label probabilities on the dataset, or the target record's loss). Nearly all
their time is the stacked training step of `models` (one matmul per layer
each way).
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AnisoError, TrainingDivergedWarning
from .models import (
    Dataset,
    _forward,
    _loss_and_grad,
    _ones_column,
    _run_blocks,
    forward,  # noqa: F401  (audit.forward is a traced site of perfbench)
    init_model,
    make_adjacent,
    train,  # noqa: F401  (audit.train is a traced site of perfbench)
    train_stacked,
)
from .rng import derive_seed, tagged_stream

PROB_FLOOR = 1e-12
_ADJ_TAG = 5

ADJACENCY_MODES = ("replace", "remove", "null")


def clamped_log_ratios(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log(p/q) with both probabilities clamped to [1e-12, 1]; always finite."""
    p = np.clip(np.asarray(p, dtype=float), PROB_FLOOR, 1.0)
    q = np.clip(np.asarray(q, dtype=float), PROB_FLOOR, 1.0)
    return np.log(p) - np.log(q)


@dataclass(frozen=True, eq=False)
class AuditConfig:
    epsilon: float
    outer_rounds: int
    inner_rounds: int
    scheme: object
    lr: float
    iters: int
    batch: int
    hidden: int
    dataset: Dataset
    adjacency: str = "replace"
    activation: str = "relu"
    noise_on: str = "step"
    seed: int = 0

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.outer_rounds < 1 or self.inner_rounds < 1:
            raise ValueError("outer_rounds and inner_rounds must be >= 1")
        if self.adjacency not in ADJACENCY_MODES:
            raise ValueError(f"adjacency must be one of {ADJACENCY_MODES}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")


@dataclass(frozen=True, eq=False)
class AuditReport:
    delta: float
    delta_per_outer: tuple[float, ...]
    counts_per_outer: tuple[int, ...]
    total_comparisons: int
    worst_loss: float
    excluded_rounds: int


def _adjacent_pair(dataset: Dataset, mode: str, rng) -> Dataset:
    """Sample the neighbour for one outer round."""
    n = dataset.size
    j = int(rng.integers(0, n))
    if mode == "remove":
        return make_adjacent(dataset, j, "remove")
    if mode == "null":
        # replace the record with itself: D' = D, the control adjacency
        return make_adjacent(
            dataset, j, "replace",
            new_features=dataset.features[j], new_label=dataset.labels[j],
        )
    # replace with a copy of a uniformly drawn other record
    k = int(rng.integers(0, n - 1))
    if k >= j:
        k += 1
    return make_adjacent(
        dataset, j, "replace",
        new_features=dataset.features[k], new_label=dataset.labels[k],
    )


def _worst_finite_loss(logs) -> float:
    finite = [lg.losses[np.isfinite(lg.losses)] for lg in logs]
    return max((float(fl.max()) for fl in finite if fl.size), default=-np.inf)


def estimate_delta(cfg: AuditConfig) -> AuditReport:
    """Empirical delta at cfg.epsilon, maximized over outer-round pairs."""
    ds = cfg.dataset
    template = init_model(ds.n_features, cfg.hidden, ds.n_classes, 0, cfg.activation)
    adj_rng = tagged_stream(cfg.seed, _ADJ_TAG)
    others = [_adjacent_pair(ds, cfg.adjacency, adj_rng) for _ in range(cfg.outer_rounds)]
    rounds = [(t1, t2) for t1 in range(cfg.outer_rounds) for t2 in range(cfg.inner_rounds)]
    seeds = [derive_seed(cfg.seed, t1, t2) for t1, t2 in rounds]
    # both arms in one stack: run i trains on D, run runs + i on D'
    runs = len(rounds)
    models, logs = train_stacked(template, [ds] * runs + [others[t1] for t1, _ in rounds],
                                 seeds + seeds, cfg.scheme, lr=cfg.lr, iters=cfg.iters,
                                 batch=cfg.batch, noise_on=cfg.noise_on)
    kept = []
    for i, (t1, t2) in enumerate(rounds):
        if logs[i].diverged or logs[runs + i].diverged:
            warnings.warn(f"outer {t1} inner {t2}: training diverged, round excluded",
                          TrainingDivergedWarning)
        else:
            kept.append(i)
    excluded = runs - len(kept)
    if not kept:
        raise AnisoError(f"all {excluded} training pairs diverged; no comparison was made",
                         operation="estimate_delta")
    # label probabilities on D of the kept pairs' models, arm D's first
    keep = np.array(kept)
    params = np.stack([m.params for m in models])[np.concatenate([keep, runs + keep])]
    x1, probs = _ones_column(ds.features), np.empty((len(params), ds.size))
    for b in _run_blocks(len(params), ds.size):
        shift = _forward(template.layer_sizes, cfg.activation, params[b],
                         np.broadcast_to(x1, (b.stop - b.start, *x1.shape)))[-1]
        e = np.exp(shift)
        probs[b] = (e / e.sum(axis=-1, keepdims=True))[:, np.arange(ds.size), ds.labels]
    over = clamped_log_ratios(probs[: len(kept)], probs[len(kept):]) > cfg.epsilon
    counts = [0] * cfg.outer_rounds
    for i, row in zip(kept, over):
        counts[rounds[i][0]] += int(row.sum())
    deltas = [count / (cfg.inner_rounds * ds.size) for count in counts]
    return AuditReport(
        delta=float(max(deltas)),
        delta_per_outer=tuple(deltas),
        counts_per_outer=tuple(counts),
        total_comparisons=cfg.outer_rounds * cfg.inner_rounds * ds.size,
        worst_loss=_worst_finite_loss(logs),
        excluded_rounds=excluded,
    )


def audit_report_to_dict(report: AuditReport) -> dict:
    """JSON fields of the report; the run manifest's timestamp block has the
    run time, so reruns write identical bytes."""
    return {
        "delta": report.delta,
        "delta_per_outer": list(report.delta_per_outer),
        "counts_per_outer": list(report.counts_per_outer),
        "total_comparisons": report.total_comparisons,
        "worst_loss": report.worst_loss,
        "excluded_rounds": report.excluded_rounds,
    }


def write_audit_json(report: AuditReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(audit_report_to_dict(report), fh, indent=2)


# ---------------------------------------------------------------------------
# membership experiment


@dataclass(frozen=True, eq=False)
class MembershipReport:
    """Per-run loss on the target record with (arm D) and without (arm
    Dprime) the record in the training set."""

    losses_with: np.ndarray
    losses_without: np.ndarray
    mean_gap: float
    worst_loss: float


def membership_experiment(dataset: Dataset, target_index: int, runs: int, scheme,
                          *, lr: float, iters: int, batch: int, hidden: int,
                          seed: int, activation: str = "relu",
                          noise_on: str = "step",
                          null_control: bool = False) -> MembershipReport:
    """Paired trainings with and without the target record.

    null_control trains both arms on the full dataset (the D = D' check:
    identical losses, zero gap).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    ds = dataset
    ds_without = ds if null_control else make_adjacent(ds, target_index, "remove")
    target_x = ds.features[target_index]
    target_y = int(ds.labels[target_index])
    template = init_model(ds.n_features, hidden, ds.n_classes, 0, activation)
    seeds = [derive_seed(seed, r) for r in range(runs)]
    # both arms in one stack: run r trains on D, run runs + r on D'
    models, logs = train_stacked(template, [ds] * runs + [ds_without] * runs, seeds + seeds,
                                 scheme, lr=lr, iters=iters, batch=batch, noise_on=noise_on)
    params = np.stack([m.params for m in models])
    x1 = _ones_column(target_x)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite losses raise below
        losses = _loss_and_grad(template.layer_sizes, activation, params,
                                np.broadcast_to(x1, (2 * runs, *x1.shape)),
                                np.full((2 * runs, 1), target_y))[0]
    losses_with, losses_without = losses[:runs], losses[runs:]
    report = MembershipReport(
        losses_with=losses_with,
        losses_without=losses_without,
        mean_gap=float(abs(losses_with.mean() - losses_without.mean())),
        worst_loss=_worst_finite_loss(logs),
    )
    values = [*losses_with, *losses_without, report.mean_gap, report.worst_loss]
    if not np.all(np.isfinite(values)):
        raise AnisoError("a target loss, the mean gap or the worst loss is not finite",
                         operation="membership_experiment")
    return report


def write_membership_csv(report: MembershipReport, path) -> None:
    """Loss histogram rows (run, arm, loss_on_target), arm in {D, Dprime}."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "arm", "loss_on_target"])
        for r, v in enumerate(report.losses_with):
            w.writerow([r, "D", f"{v:.17g}"])
        for r, v in enumerate(report.losses_without):
            w.writerow([r, "Dprime", f"{v:.17g}"])


def membership_report_to_dict(report: MembershipReport) -> dict:
    """JSON fields of the report."""
    return {
        "mean_gap": report.mean_gap,
        "worst_loss": report.worst_loss,
        "mean_loss_with": float(report.losses_with.mean()),
        "mean_loss_without": float(report.losses_without.mean()),
        "runs": int(report.losses_with.shape[0]),
    }
