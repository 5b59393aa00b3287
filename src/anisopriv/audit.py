"""Empirical differential-privacy estimation for the noisy trainers.

AuditConfig and MembershipConfig hold an experiment's settings, the shared
models.Training among them, and state the rules that tie it to the dataset:
the batch must fit the smaller arm, and a replace neighbour needs a second
record to copy. The delta estimator resamples an adjacent dataset pair per
outer round, then trains the pair repeatedly with shared seeds (identical
initialization, batch selection, and noise draws) and counts training points
whose predicted class-probability log-ratio between the two runs exceeds
epsilon. The membership experiment instead tracks the loss on one target
record with and without that record in the training set, and raises
`AnisoError` rather than report a target loss or gap that is not finite. Both
train the runs of both arms in a single `models.train` call, so each seed's
batches and noise are drawn once for the pair, into one stacked `MlpModel`,
and then score its runs with one `models.forward` (label probabilities on the
dataset, of the kept pairs' runs) or `models.loss_and_grad` (the target
record's loss) call. Nearly all their time is the stacked training step of
`models` (one matmul per layer each way).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import AnisoError, TrainingDivergedWarning, check_fields
from .models import Dataset, Training, forward, loss_and_grad, make_adjacent, train
from .rng import derive_seed, tagged_stream

PROB_FLOOR = 1e-12
_ADJ_TAG = 5

ADJACENCY_MODES = ("replace", "remove", "null")


def clamped_log_ratios(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log(p/q) with both probabilities clamped to [1e-12, 1]; always finite."""
    p = np.clip(np.asarray(p, dtype=float), PROB_FLOOR, 1.0)
    q = np.clip(np.asarray(q, dtype=float), PROB_FLOOR, 1.0)
    return np.log(p) - np.log(q)


def _check_config(cfg, failed: dict, *, drops_record: bool) -> None:
    """Raise FieldErrors over failed, a {field: message} dict of cfg's own
    rules, and the batch rule: cfg.training's batch may not exceed the row
    count of cfg.dataset, less one when an arm drops a record. The batch
    error takes the place of the training field in cfg's field order."""
    size = cfg.dataset.size
    if cfg.training.batch > size - drops_record:
        failed["batch"] = (f"exceeds dataset size {size}"
                           + (" less the dropped record" if drops_record else ""))
    check_fields(["batch" if f.name == "training" else f.name for f in fields(cfg)], failed)


@dataclass(frozen=True, eq=False)
class AuditConfig:
    """Settings of estimate_delta. Each outer round draws a neighbour of
    dataset by adjacency; each inner round trains a model on both datasets
    with training under scheme, whose noise each step scales by the
    minibatch gradient that step descends along (see models.train)."""

    epsilon: float
    outer_rounds: int
    inner_rounds: int
    scheme: object
    training: Training
    dataset: Dataset
    adjacency: str = "replace"
    seed: int = 0

    def __post_init__(self):
        failed = {name: "must be >= 1" for name in ("outer_rounds", "inner_rounds")
                  if getattr(self, name) < 1}
        if not self.epsilon > 0.0:
            failed["epsilon"] = "must be positive"
        if self.adjacency not in ADJACENCY_MODES:
            failed["adjacency"] = f"must be one of {sorted(ADJACENCY_MODES)}"
        elif self.adjacency == "replace" and self.dataset.size < 2:
            failed["adjacency"] = "replace needs a dataset of at least 2 records"
        _check_config(self, failed, drops_record=self.adjacency == "remove")


@dataclass(frozen=True, eq=False)
class AuditReport:
    delta: float
    delta_per_outer: tuple[float | None, ...]
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
    """Empirical delta at cfg.epsilon, maximized over outer-round pairs.

    A pair with a diverged training is excluded. An outer round's delta is its
    count over the comparisons its kept pairs made, and is None when all its
    pairs diverged; such a round is left out of the maximum."""
    ds = cfg.dataset
    adj_rng = tagged_stream(cfg.seed, _ADJ_TAG)
    others = [_adjacent_pair(ds, cfg.adjacency, adj_rng) for _ in range(cfg.outer_rounds)]
    rounds = [(t1, t2) for t1 in range(cfg.outer_rounds) for t2 in range(cfg.inner_rounds)]
    seeds = [derive_seed(cfg.seed, t1, t2) for t1, t2 in rounds]
    # both arms in one stack: run i trains on D, run runs + i on D'
    runs = len(rounds)
    model, logs = train([ds] * runs + [others[t1] for t1, _ in rounds], seeds + seeds,
                        cfg.scheme, cfg.training)
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
    # label probabilities on D of the kept pairs' runs, arm D's first
    scored = replace(model, params=model.params[kept + [runs + i for i in kept]])
    probs = forward(scored, ds.features)[:, np.arange(ds.size), ds.labels]
    over = clamped_log_ratios(probs[: len(kept)], probs[len(kept):]) > cfg.epsilon
    counts, pairs = [0] * cfg.outer_rounds, [0] * cfg.outer_rounds
    for i, row in zip(kept, over):
        counts[rounds[i][0]] += int(row.sum())
        pairs[rounds[i][0]] += 1
    deltas = [count / (n * ds.size) if n else None for count, n in zip(counts, pairs)]
    return AuditReport(
        delta=float(max(d for d in deltas if d is not None)),
        delta_per_outer=tuple(deltas),
        counts_per_outer=tuple(counts),
        total_comparisons=len(kept) * ds.size,
        worst_loss=_worst_finite_loss(logs),
        excluded_rounds=excluded,
    )


# ---------------------------------------------------------------------------
# membership experiment


@dataclass(frozen=True, eq=False)
class MembershipConfig:
    """Settings of membership_experiment: runs paired trainings on dataset
    with and without the record at target_index (both on all of dataset
    under null_control), with training under scheme."""

    dataset: Dataset
    target_index: int
    runs: int
    scheme: object
    training: Training
    null_control: bool = False
    seed: int = 0

    def __post_init__(self):
        failed = {}
        if self.target_index < 0:
            failed["target_index"] = "must be >= 0"
        elif self.target_index >= self.dataset.size:
            failed["target_index"] = f"outside dataset of size {self.dataset.size}"
        if self.runs < 1:
            failed["runs"] = "must be >= 1"
        _check_config(self, failed, drops_record=not self.null_control)


@dataclass(frozen=True, eq=False)
class MembershipReport:
    """Per-run loss on the target record with (arm D) and without (arm
    Dprime) the record in the training set."""

    losses_with: np.ndarray
    losses_without: np.ndarray
    mean_gap: float
    worst_loss: float


def membership_experiment(cfg: MembershipConfig) -> MembershipReport:
    """Paired trainings with and without the target record. A noisy step
    scales its noise by the minibatch gradient it descends along, as in
    models.train.

    null_control trains both arms on the full dataset (the D = D' check:
    identical losses, zero gap).
    """
    ds, runs = cfg.dataset, cfg.runs
    ds_without = ds if cfg.null_control else make_adjacent(ds, cfg.target_index, "remove")
    target_x = ds.features[cfg.target_index]
    target_y = int(ds.labels[cfg.target_index])
    seeds = [derive_seed(cfg.seed, r) for r in range(runs)]
    # both arms in one stack: run r trains on D, run runs + r on D'
    model, logs = train([ds] * runs + [ds_without] * runs, seeds + seeds, cfg.scheme,
                        cfg.training)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite losses raise below
        losses = loss_and_grad(model, target_x, [target_y])[0]
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
