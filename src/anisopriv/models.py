"""Small softmax classifiers for empirical privacy experiments.

One hidden layer, cross-entropy loss, hand-rolled backprop (verified against
finite differences in the test suite). The flat parameters hold the layer
blocks [W1; b1] (m+1, h) and [W2; b2] (h+1, k), and the inputs and hidden
activations carry a ones column, so a layer is one matmul each way; the max
and exp-sum over classes are left-to-right folds of the class columns.
Training is minibatch gradient descent with optional Gaussian noise scaled by
the current gradient, per layer or per parameter. Tagged counter-based
streams pin initialization, batch selection and noise draws to the seed.

`train_stacked` trains R runs, on datasets of any row counts, as one (R, P)
parameter array. Runs that share a seed share its init, noise and (at equal
row count) batch streams, and each stream is drawn once, in blocks of 32
iterations, so a run's result does not depend on the other runs. `train` is
the one-run case.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import BatchLargerThanDataset, IndexOutOfRange
from .rng import tagged_stream

_INIT_TAG, _BATCH_TAG, _NOISE_TAG = 1, 2, 3
_STREAM_BLOCK = 32  # iterations of batch indices and noise drawn per stream at once
# Rows (runs times rows per run) per block of runs in one stacked pass; a
# larger stack is split into near-equal blocks. On 2 cores, an estimate_delta
# of 50 runs of 200-row batches (hidden 10) took 1.6-1.8 s in blocks of at
# most 2048 rows and 2.5-4 s as one block, which page-faulted about 600 times
# per step as its arrays were mapped and unmapped; 64 runs of 32-row batches
# (hidden 16) were slower in 3 blocks than in one.
_BLOCK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature rows with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.features, dtype=float))
        y = np.asarray(self.labels)
        if not np.issubdtype(y.dtype, np.integer):
            raise ValueError("labels must be integers")
        y = y.astype(np.int64).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels must have the same length")
        if x.shape[0] < 1:
            raise ValueError("dataset must contain at least one record")
        if not np.all(np.isfinite(x)):
            raise ValueError("features must be finite")
        if np.any(y < 0):
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True, eq=False)
class MlpModel:
    """One-hidden-layer classifier; params holds (W1, b1, W2, b2) flattened."""

    layer_sizes: tuple[int, int, int]
    params: np.ndarray
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        m, h, k = self.layer_sizes
        expected = (m + 1) * h + (h + 1) * k
        p = np.asarray(self.params, dtype=float).ravel()
        if p.shape[0] != expected:
            raise ValueError(f"params length {p.shape[0]} != expected {expected}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "layer_sizes", tuple(int(v) for v in self.layer_sizes))

    @property
    def n_params(self) -> int:
        return self.params.shape[0]


def layer_slices(layer_sizes: tuple[int, int, int]) -> list[slice]:
    """Parameter-vector slices of the two layers (weights and bias together)."""
    m, h, k = layer_sizes
    first = (m + 1) * h
    return [slice(0, first), slice(first, first + (h + 1) * k)]


def init_model(n_features: int, hidden: int, classes: int, seed: int,
               activation: str = "relu") -> MlpModel:
    """Weights uniform on +-1/sqrt(fan_in), biases zero, from the seed's
    init stream."""
    rng = tagged_stream(seed, _INIT_TAG)
    m, h, k = n_features, hidden, classes
    w1 = rng.uniform(-1.0, 1.0, size=(m, h)) / np.sqrt(m)
    w2 = rng.uniform(-1.0, 1.0, size=(h, k)) / np.sqrt(h)
    params = np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])
    return MlpModel((m, h, k), params, activation, seed)


def _ones_column(features):
    """Float features (..., m) with a trailing column of ones, (..., m+1)."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def _fold(ufunc, z):
    """ufunc.reduce over the last axis as a left-to-right fold of its columns."""
    return reduce(ufunc, (z[..., c] for c in range(z.shape[-1])))


def _forward(layer_sizes, activation, params, x1):
    """For params (R, P) on inputs x1 (R, n, m+1) whose last column is ones:
    the block [W2; b2] (R, h+1, k), the hidden activations a1 (R, n, h+1)
    with their own ones column, and the logits less their max."""
    (m, h, k), (first, second) = layer_sizes, layer_slices(layer_sizes)
    a1 = np.ones((*x1.shape[:2], h + 1))
    np.matmul(x1, params[:, first].reshape(-1, m + 1, h), out=a1[..., :h])
    if activation == "relu":
        np.maximum(a1, 0.0, out=a1)  # keeps the ones column
    else:
        np.tanh(a1, out=a1)
        a1[..., h] = 1.0
    w2 = params[:, second].reshape(-1, h + 1, k)
    z2 = a1 @ w2
    z2 -= _fold(np.maximum, z2)[..., None]
    return w2, a1, z2


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities, shape (n, classes)."""
    x1 = _ones_column(features)[None]
    e = np.exp(_forward(model.layer_sizes, model.activation, model.params[None], x1)[-1][0])
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_grad(layer_sizes, activation, params, x1, y):
    """Per run of a stack: mean cross-entropy of params[r] (R, P) on its own
    rows x1[r] (R, n, m+1, last column ones) with labels y[r] (R, n), and the
    gradient (R, P)."""
    (m, h, k), (first, second) = layer_sizes, layer_slices(layer_sizes)
    runs, n = y.shape
    w2, a1, shift = _forward(layer_sizes, activation, params, x1)
    logz = np.log(_fold(np.add, np.exp(shift)))
    at = np.arange(0, shift.size, k) + y.ravel()  # flat positions of the label logits
    loss = np.mean(logz - shift.take(at).reshape(runs, n), axis=1)
    dz2 = np.exp(shift - logz[..., None])
    dz2.reshape(-1)[at] -= 1.0
    dz2 /= n
    grad = np.empty((runs, second.stop))
    np.matmul(a1.swapaxes(1, 2), dz2, out=grad[:, second].reshape(runs, h + 1, k))
    dz1 = dz2 @ w2.swapaxes(1, 2)  # the ones column's last entry goes unused
    dz1 *= a1 > 0.0 if activation == "relu" else 1.0 - a1**2  # relu', tanh' from a1
    np.matmul(x1.swapaxes(1, 2), dz1[..., :h], out=grad[:, first].reshape(runs, m + 1, h))
    return loss, grad


def loss_and_grad(model: MlpModel, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the rows and its gradient in the flat params."""
    y = np.asarray(labels).ravel()
    loss, grad = _loss_and_grad(model.layer_sizes, model.activation,
                                model.params[None], _ones_column(features)[None], y[None])
    return float(loss[0]), grad[0]


def per_example_grads(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row l is the gradient of example l's own cross-entropy (no averaging),
    so the rows sum to the gradient of the sum-structured loss."""
    x1 = _ones_column(features)[:, None]
    y = np.asarray(labels).ravel()
    # one single-record run per example, all on the same parameters
    params = np.broadcast_to(model.params, (x1.shape[0], model.n_params))
    return _loss_and_grad(model.layer_sizes, model.activation, params, x1, y[:, None])[1]


def loss_on_example(model: MlpModel, features_row: np.ndarray, label: int) -> float:
    """Cross-entropy of a single record."""
    return loss_and_grad(model, features_row, [label])[0]


# ---------------------------------------------------------------------------
# noise schemes


class NoNoise:
    """Plain gradient descent."""


NO_NOISE = NoNoise()


@dataclass(frozen=True)
class _GradientScaled:
    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")


@dataclass(frozen=True)
class IsotropicPerLayer(_GradientScaled):
    """Per-layer variance sigma2 * max|grad in layer| this iteration."""


@dataclass(frozen=True)
class AnisotropicPerParam(_GradientScaled):
    """Per-parameter variance sigma2 * |grad_i| this iteration."""


def noise_std(scheme, grad: np.ndarray, slices: list[slice]) -> np.ndarray:
    """Per-parameter standard deviation of the injected noise, for a gradient
    (P,) or a stack of them (R, P); slices index the last axis."""
    if isinstance(scheme, NoNoise):
        return np.zeros_like(grad)
    if isinstance(scheme, IsotropicPerLayer):
        std = np.empty_like(grad)
        for sl in slices:
            top = np.abs(grad[..., sl]).max(axis=-1, keepdims=True, initial=0.0)
            std[..., sl] = np.sqrt(scheme.sigma2 * top)
        return std
    if isinstance(scheme, AnisotropicPerParam):
        return np.sqrt(scheme.sigma2 * np.abs(grad))
    raise TypeError(f"unknown noise scheme {type(scheme).__name__}")


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True, eq=False)
class TrainLog:
    losses: np.ndarray
    diverged: bool


def train(model: MlpModel, dataset: Dataset, scheme=NO_NOISE, *, lr: float,
          iters: int, batch: int, seed: int, noise_on: str = "step"):
    """Minibatch gradient descent with injected noise.

    Parameters are re-initialized from the seed's init stream (the input
    model fixes only the architecture), so two calls with equal seeds are
    bit-identical end to end. noise_on selects the gradient whose magnitude
    sets the noise scale: "step" uses the minibatch gradient just computed,
    "full" recomputes the full-dataset gradient for the scale (updates always
    use the minibatch gradient). A non-finite loss or gradient stops training
    and flags the log as diverged; the parameters are those before that step.
    """
    models, logs = train_stacked(model, [dataset], [seed], scheme, lr=lr, iters=iters,
                                 batch=batch, noise_on=noise_on)
    return models[0], logs[0]


def _index_by(keys):
    """Each key's position among the distinct keys (in order of first
    appearance), as an array, and the distinct keys."""
    ids = {}
    at = np.array([ids.setdefault(key, len(ids)) for key in keys])
    return at, list(ids)


def _run_blocks(runs: int, rows: int) -> list[slice]:
    """Near-equal blocks of a stack of runs with `rows` rows each; a block has
    at most _BLOCK_ROWS rows, or one run."""
    n_blocks = -(-runs // max(1, _BLOCK_ROWS // rows))
    return [slice(i * runs // n_blocks, (i + 1) * runs // n_blocks) for i in range(n_blocks)]


def train_stacked(model: MlpModel, datasets, seeds, scheme=NO_NOISE, *, lr: float,
                  iters: int, batch: int, noise_on: str = "step"):
    """`train` of run r on (datasets[r], seeds[r]) for all runs at once; the
    datasets may differ in row count. Returns a list of models and one of
    logs, each equal to what `train` gives for that run alone. Runs with the
    same seed share one init and one noise stream, and runs with the same
    seed and row count share one batch stream: each stream is drawn once, in
    blocks of 32 iterations, while any of its runs is live. A run that
    diverges leaves the stack at that step; the others carry on. The loop
    runs with numpy's overflow and invalid-value warnings off: a non-finite
    loss or gradient is how divergence is detected, and the logs report it."""
    if len(datasets) != len(seeds) or not seeds:
        raise ValueError("need one seed per dataset and at least one run")
    rows = np.array([ds.size for ds in datasets])
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if batch > rows.min():
        raise BatchLargerThanDataset(
            f"batch {batch} exceeds dataset size {rows.min()}", operation="train"
        )
    if not (lr > 0.0):
        raise ValueError(f"lr must be positive, got {lr}")
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if noise_on not in ("step", "full"):
        raise ValueError(f"noise_on must be 'step' or 'full', got {noise_on!r}")

    sizes, activation = model.layer_sizes, model.activation
    slices = layer_slices(sizes)
    runs = len(seeds)
    # the rows of every distinct dataset (by identity), one after another;
    # run r's rows start at offset[r]
    data_of, distinct = _index_by(datasets)
    flat_x = _ones_column(np.concatenate([ds.features for ds in distinct]))
    flat_y = np.concatenate([ds.labels for ds in distinct])
    offset = np.cumsum([0] + [ds.size for ds in distinct])[data_of]
    seed_of, seed_keys = _index_by(seeds)
    batch_of, batch_keys = _index_by(zip(seeds, rows.tolist()))
    params = np.stack([init_model(*sizes, s, activation).params for s in seed_keys])[seed_of]
    batch_rngs = [tagged_stream(s, _BATCH_TAG) for s, _ in batch_keys]
    picks = np.empty((len(batch_keys), _STREAM_BLOCK, batch), dtype=np.int64)
    noisy = not isinstance(scheme, NoNoise)
    if noisy:
        noise_rngs = [tagged_stream(s, _NOISE_TAG) for s in seed_keys]
        noise = np.empty((len(seed_keys), _STREAM_BLOCK, params.shape[1]))

    def full_data(live):
        """Per row count among the live runs: their rows of the stack and
        their full data, for noise_on="full"."""
        groups = []
        for n in np.unique(rows[live]):
            group = np.flatnonzero(rows[live] == n)
            for block in _run_blocks(group.size, n):
                at = group[block]
                idx = offset[live[at], None] + np.arange(n)
                groups.append((at, flat_x[idx], flat_y[idx]))
        return groups

    losses = np.empty((runs, iters))
    steps = np.full(runs, iters)
    diverged = np.zeros(runs, dtype=bool)
    final = np.empty_like(params)
    live = np.arange(runs)  # runs still training; row i of the stack is run live[i]
    full_scale = noisy and noise_on == "full"
    full = full_data(live) if full_scale else []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(iters):
            j = it % _STREAM_BLOCK
            if j == 0:
                k = min(_STREAM_BLOCK, iters - it)
                for u in np.unique(batch_of[live]):
                    picks[u, :k] = batch_rngs[u].integers(0, batch_keys[u][1], size=(k, batch))
                if noisy:
                    for u in np.unique(seed_of[live]):
                        noise_rngs[u].standard_normal(out=noise[u, :k])
            at = picks[batch_of[live], j] + offset[live, None]  # rows of flat_x
            loss, grad = np.empty(live.size), np.empty_like(params)
            for b in _run_blocks(live.size, batch):
                loss[b], grad[b] = _loss_and_grad(sizes, activation, params[b],
                                                  flat_x.take(at[b], axis=0), flat_y.take(at[b]))
            losses[live, it] = loss
            ok = np.isfinite(loss) & np.all(np.isfinite(grad), axis=1)
            if not ok.all():
                gone = live[~ok]
                steps[gone], diverged[gone], final[gone] = it + 1, True, params[~ok]
                live, params, grad = live[ok], params[ok], grad[ok]
                if not live.size:
                    break
                if full_scale:
                    full = full_data(live)
            if not noisy:
                params = params - lr * grad
                continue
            scale = grad
            if full_scale:
                scale = np.empty_like(grad)
                for rows_at, x, y in full:
                    scale[rows_at] = _loss_and_grad(sizes, activation, params[rows_at], x, y)[1]
            params = params - lr * grad + noise_std(scheme, scale, slices) * noise[seed_of[live], j]
    final[live] = params

    models = [MlpModel(sizes, final[r], activation, seeds[r]) for r in range(runs)]
    logs = [TrainLog(losses[r, : steps[r]], bool(diverged[r])) for r in range(runs)]
    return models, logs


# ---------------------------------------------------------------------------
# adjacent datasets and synthetic data


def make_adjacent(dataset: Dataset, index: int, mode: str = "remove", *,
                  new_features=None, new_label=None) -> Dataset:
    """Neighbouring dataset: drop record `index`, or replace it."""
    if not (0 <= index < dataset.size):
        raise IndexOutOfRange(
            f"index {index} outside [0, {dataset.size})", operation="make_adjacent"
        )
    if mode == "remove":
        keep = np.arange(dataset.size) != index
        return Dataset(dataset.features[keep], dataset.labels[keep], dataset.name)
    if mode == "replace":
        if new_features is None or new_label is None:
            raise ValueError("replace mode needs new_features and new_label")
        feats = dataset.features.copy()
        labels = dataset.labels.copy()
        feats[index] = np.asarray(new_features, dtype=float).ravel()
        labels[index] = int(new_label)
        return Dataset(feats, labels, dataset.name)
    raise ValueError(f"unknown adjacency mode {mode!r}")


def synth_blobs(classes: int, per_class: int, dim: int, separation: float,
                seed: int) -> Dataset:
    """Unit-variance Gaussian blobs with equal pairwise mean distances.

    Class k's mean is (separation/sqrt(2)) e_k, so every pair of means is
    exactly `separation` apart; requires dim >= classes.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if dim < classes:
        raise ValueError(f"dim must be >= classes for equidistant means, got {dim} < {classes}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if separation < 0.0:
        raise ValueError(f"separation must be nonnegative, got {separation}")
    rng = tagged_stream(seed, 4)
    feats = rng.standard_normal((classes * per_class, dim))
    labels = np.repeat(np.arange(classes), per_class)
    scale = separation / np.sqrt(2.0)
    for k in range(classes):
        feats[labels == k, k] += scale
    return Dataset(feats, labels.astype(np.int64), f"blobs{classes}x{per_class}")


# ---------------------------------------------------------------------------
# dataset files


def read_dataset_csv(path) -> Dataset:
    """Records under the header f0,...,f{m-1},label; blank lines are skipped."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if header[-1:] != ["label"] or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
            raise ValueError(f"unexpected dataset header {header}")
        feats, labels = [], []
        for row in r:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {r.line_num} has {len(row)} fields, expected {len(header)}")
            feats.append([float(v) for v in row[:-1]])
            labels.append(int(row[-1]))
    if not labels:
        raise ValueError("dataset has no records")
    return Dataset(np.asarray(feats), np.asarray(labels, dtype=np.int64))
