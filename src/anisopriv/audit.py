"""Empirical differential-privacy estimation for the noisy trainers.

The delta estimator resamples an adjacent dataset pair per outer round, then
trains the pair repeatedly with shared seeds (identical initialization,
batch selection, and noise draws) and counts training points whose predicted
class-probability log-ratio between the two models exceeds epsilon. The
membership experiment instead tracks the loss on one target record with and
without that record in the training set.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedWarning
from .models import (
    Dataset,
    MlpModel,
    forward,
    init_model,
    loss_on_example,
    make_adjacent,
    train,
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
    runtime_seconds: float


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


def estimate_delta(cfg: AuditConfig) -> AuditReport:
    """Empirical delta at cfg.epsilon, maximized over outer-round pairs."""
    t_start = time.perf_counter()
    ds = cfg.dataset
    template = init_model(ds.n_features, cfg.hidden, ds.n_classes, 0, cfg.activation)
    adj_rng = tagged_stream(cfg.seed, _ADJ_TAG)
    sel = np.arange(ds.size)

    deltas, counts = [], []
    worst_loss = -np.inf
    excluded = 0
    for t1 in range(cfg.outer_rounds):
        ds_other = _adjacent_pair(ds, cfg.adjacency, adj_rng)
        count = 0
        for t2 in range(cfg.inner_rounds):
            seed = derive_seed(cfg.seed, t1, t2)
            model_a, log_a = train(template, ds, cfg.scheme, lr=cfg.lr, iters=cfg.iters,
                                   batch=cfg.batch, seed=seed, noise_on=cfg.noise_on)
            model_b, log_b = train(template, ds_other, cfg.scheme, lr=cfg.lr,
                                   iters=cfg.iters, batch=cfg.batch, seed=seed,
                                   noise_on=cfg.noise_on)
            finite_losses = [lg.losses[np.isfinite(lg.losses)] for lg in (log_a, log_b)]
            for fl in finite_losses:
                if fl.size:
                    worst_loss = max(worst_loss, float(fl.max()))
            if log_a.diverged or log_b.diverged:
                excluded += 1
                warnings.warn(
                    f"outer {t1} inner {t2}: training diverged, round excluded",
                    TrainingDivergedWarning,
                )
                continue
            pa = forward(model_a, ds.features)[sel, ds.labels]
            pb = forward(model_b, ds.features)[sel, ds.labels]
            count += int((clamped_log_ratios(pa, pb) > cfg.epsilon).sum())
        counts.append(count)
        deltas.append(count / (cfg.inner_rounds * ds.size))
    return AuditReport(
        delta=float(max(deltas)),
        delta_per_outer=tuple(deltas),
        counts_per_outer=tuple(counts),
        total_comparisons=cfg.outer_rounds * cfg.inner_rounds * ds.size,
        worst_loss=float(worst_loss),
        excluded_rounds=excluded,
        runtime_seconds=time.perf_counter() - t_start,
    )


def audit_report_to_dict(report: AuditReport) -> dict:
    """JSON fields of the report. runtime_seconds is left out so that reruns
    write identical bytes; the run manifest's timestamp block has the time."""
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
    runtime_seconds: float


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
    t_start = time.perf_counter()
    ds = dataset
    if null_control:
        ds_without = ds
    else:
        ds_without = make_adjacent(ds, target_index, "remove")
    target_x = ds.features[target_index]
    target_y = int(ds.labels[target_index])
    template = init_model(ds.n_features, hidden, ds.n_classes, 0, activation)

    losses_with = np.empty(runs)
    losses_without = np.empty(runs)
    worst_loss = -np.inf
    for r in range(runs):
        run_seed = derive_seed(seed, r)
        model_a, log_a = train(template, ds, scheme, lr=lr, iters=iters, batch=batch,
                               seed=run_seed, noise_on=noise_on)
        model_b, log_b = train(template, ds_without, scheme, lr=lr, iters=iters,
                               batch=batch, seed=run_seed, noise_on=noise_on)
        losses_with[r] = loss_on_example(model_a, target_x, target_y)
        losses_without[r] = loss_on_example(model_b, target_x, target_y)
        for lg in (log_a, log_b):
            fl = lg.losses[np.isfinite(lg.losses)]
            if fl.size:
                worst_loss = max(worst_loss, float(fl.max()))
    return MembershipReport(
        losses_with=losses_with,
        losses_without=losses_without,
        mean_gap=float(abs(losses_with.mean() - losses_without.mean())),
        worst_loss=float(worst_loss),
        runtime_seconds=time.perf_counter() - t_start,
    )


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
    """JSON fields of the report, without runtime_seconds (see audit_report_to_dict)."""
    return {
        "mean_gap": report.mean_gap,
        "worst_loss": report.worst_loss,
        "mean_loss_with": float(report.losses_with.mean()),
        "mean_loss_without": float(report.losses_without.mean()),
        "runs": int(report.losses_with.shape[0]),
    }
