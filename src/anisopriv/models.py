"""Small softmax classifiers for empirical privacy experiments.

One hidden layer, cross-entropy loss, hand-rolled backprop (verified against
finite differences in the test suite). Training is plain minibatch gradient
descent with optional injected Gaussian noise whose magnitude follows the
current gradient, either per layer or per parameter. All randomness comes
from tagged counter-based streams, so a seed pins initialization, batch
selection, and noise draws; two trainings that share a seed share all three.

`train_stacked` trains R runs as one (R, P) parameter array; each run draws
batches and noise from its own streams, in blocks of 32 iterations, so its
result does not depend on the other runs. `train` is the one-run case.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import BatchLargerThanDataset, IndexOutOfRange
from .rng import tagged_stream
from .sde import DatasetGradientDrift

_INIT_TAG, _BATCH_TAG, _NOISE_TAG = 1, 2, 3
_STREAM_BLOCK = 32  # iterations of batch indices and noise drawn per stream at once


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


def _unpack(layer_sizes, params):
    """Views of (W1, b1, W2, b2) in a parameter vector or stack (..., P)."""
    m, h, k = layer_sizes
    i = 0
    w1 = params[..., i : i + m * h].reshape(*params.shape[:-1], m, h); i += m * h
    b1 = params[..., i : i + h]; i += h
    w2 = params[..., i : i + h * k].reshape(*params.shape[:-1], h, k); i += h * k
    b2 = params[..., i : i + k]
    return w1, b1, w2, b2


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


def _forward(layer_sizes, activation, params, x):
    """For params (..., P) on inputs (..., n, m): W2, the hidden activations
    a1 and their derivatives d1, and the logits less their max."""
    w1, b1, w2, b2 = _unpack(layer_sizes, params)
    z1 = x @ w1 + b1[..., None, :]
    if activation == "relu":
        a1, d1 = np.maximum(z1, 0.0), (z1 > 0.0).astype(float)
    else:
        a1 = np.tanh(z1)
        d1 = 1.0 - a1**2
    z2 = a1 @ w2 + b2[..., None, :]
    return w2, a1, d1, z2 - z2.max(axis=-1, keepdims=True)


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities, shape (n, classes)."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    e = np.exp(_forward(model.layer_sizes, model.activation, model.params, x)[-1])
    return e / e.sum(axis=1, keepdims=True)


def _loss_and_grad(layer_sizes, activation, params, x, y):
    """Per run of a stack: mean cross-entropy of params[r] (R, P) on its own
    rows x[r] (R, n, m) with labels y[r] (R, n), and the gradient (R, P)."""
    runs, n = y.shape
    w2, a1, d1, shift = _forward(layer_sizes, activation, params, x)
    logz = np.log(np.exp(shift).sum(axis=2))
    run, row = np.arange(runs)[:, None], np.arange(n)
    loss = np.mean(logz - shift[run, row, y], axis=1)
    dz2 = np.exp(shift - logz[..., None])
    dz2[run, row, y] -= 1.0
    dz2 /= n
    dw2 = a1.swapaxes(1, 2) @ dz2
    db2 = dz2.sum(axis=1)
    dz1 = (dz2 @ w2.swapaxes(1, 2)) * d1
    dw1 = x.swapaxes(1, 2) @ dz1
    db1 = dz1.sum(axis=1)
    grad = np.concatenate([dw1.reshape(runs, -1), db1, dw2.reshape(runs, -1), db2], axis=1)
    return loss, grad


def loss_and_grad(model: MlpModel, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the rows and its gradient in the flat params."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels).ravel()
    loss, grad = _loss_and_grad(model.layer_sizes, model.activation,
                                model.params[None], x[None], y[None])
    return float(loss[0]), grad[0]


def per_example_grads(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Row l is the gradient of example l's own cross-entropy (no averaging),
    so the rows sum to the gradient of the sum-structured loss."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels).ravel()
    # one single-record run per example, all on the same parameters
    params = np.broadcast_to(model.params, (x.shape[0], model.n_params))
    return _loss_and_grad(model.layer_sizes, model.activation, params, x[:, None], y[:, None])[1]


def loss_on_example(model: MlpModel, features_row: np.ndarray, label: int) -> float:
    """Cross-entropy of a single record."""
    loss, _ = loss_and_grad(model, np.atleast_2d(features_row), np.asarray([label]))
    return loss


# ---------------------------------------------------------------------------
# noise schemes


class NoNoise:
    """Plain gradient descent."""


NO_NOISE = NoNoise()


@dataclass(frozen=True)
class IsotropicPerLayer:
    """Per-layer variance sigma2 * max|grad in layer| this iteration."""

    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")


@dataclass(frozen=True)
class AnisotropicPerParam:
    """Per-parameter variance sigma2 * |grad_i| this iteration."""

    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0.0:
            raise ValueError(f"sigma2 must be nonnegative, got {self.sigma2}")


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
    layer_max_grad: np.ndarray
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


def train_stacked(model: MlpModel, datasets, seeds, scheme=NO_NOISE, *, lr: float,
                  iters: int, batch: int, noise_on: str = "step"):
    """`train` of run r on (datasets[r], seeds[r]) for all runs at once; all
    datasets must have the same number of rows. Returns a list of models and
    one of logs, each equal to what `train` gives for that run alone. A run
    that diverges leaves the stack at that step; the others carry on."""
    if len(datasets) != len(seeds) or not seeds:
        raise ValueError("need one seed per dataset and at least one run")
    rows = {ds.size for ds in datasets}
    if len(rows) > 1:
        raise ValueError(f"datasets must have equal row counts, got {sorted(rows)}")
    n = rows.pop()
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if batch > n:
        raise BatchLargerThanDataset(
            f"batch {batch} exceeds dataset size {n}", operation="train"
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
    features = np.stack([ds.features for ds in datasets])
    labels = np.stack([ds.labels for ds in datasets])
    params = np.stack([init_model(*sizes, s, activation).params for s in seeds])
    batch_rngs = [tagged_stream(s, _BATCH_TAG) for s in seeds]
    noise_rngs = [tagged_stream(s, _NOISE_TAG) for s in seeds]
    noisy = not isinstance(scheme, NoNoise)

    losses = np.empty((runs, iters))
    layer_max = np.empty((runs, iters, len(slices)))
    steps = np.full(runs, iters)
    diverged = np.zeros(runs, dtype=bool)
    final = np.empty_like(params)
    live = np.arange(runs)  # runs still training; row i of the stack is run live[i]
    for it in range(iters):
        j = it % _STREAM_BLOCK
        if j == 0:
            k = min(_STREAM_BLOCK, iters - it)
            idx = np.stack([batch_rngs[r].integers(0, n, size=(k, batch)) for r in live])
            if noisy:
                noise = np.empty((live.size, k, params.shape[1]))
                for row, r in zip(noise, live):
                    noise_rngs[r].standard_normal(out=row)
        at = live[:, None], idx[:, j]
        loss, grad = _loss_and_grad(sizes, activation, params, features[at], labels[at])
        losses[live, it] = loss
        for li, sl in enumerate(slices):
            layer_max[live, it, li] = np.abs(grad[:, sl]).max(axis=1, initial=0.0)
        ok = np.isfinite(loss) & np.all(np.isfinite(grad), axis=1)
        if not ok.all():
            gone = live[~ok]
            steps[gone], diverged[gone], final[gone] = it + 1, True, params[~ok]
            live, params, grad, idx = live[ok], params[ok], grad[ok], idx[ok]
            if noisy:
                noise = noise[ok]
            if not live.size:
                break
        if not noisy:
            params = params - lr * grad
            continue
        scale = grad if noise_on == "step" else _loss_and_grad(
            sizes, activation, params, features[live], labels[live])[1]
        params = params - lr * grad + noise_std(scheme, scale, slices) * noise[:, j]
    final[live] = params

    models = [MlpModel(sizes, final[r], activation, seeds[r]) for r in range(runs)]
    logs = [TrainLog(losses[r, : steps[r]], layer_max[r, : steps[r]], bool(diverged[r]))
            for r in range(runs)]
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


def gradient_drift(model: MlpModel, dataset: Dataset) -> DatasetGradientDrift:
    """Full-dataset gradient-flow drift in parameter space for this model."""

    def grad_fn(x: np.ndarray, ds: Dataset) -> np.ndarray:
        return loss_and_grad(replace(model, params=x), ds.features, ds.labels)[1]

    return DatasetGradientDrift(grad_fn, dataset)


# ---------------------------------------------------------------------------
# persistence


def write_dataset_csv(dataset: Dataset, path) -> None:
    """Columns f0..f{m-1},label; features at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([*[f"f{i}" for i in range(dataset.n_features)], "label"])
        for row, lab in zip(dataset.features, dataset.labels):
            w.writerow([*[f"{v:.17g}" for v in row], int(lab)])


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


def save_model(model: MlpModel, path) -> None:
    doc = {
        "layer_sizes": list(model.layer_sizes),
        "activation": model.activation,
        "params": [float(v) for v in model.params],
        "seed": int(model.seed),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_model(path) -> MlpModel:
    with open(path) as fh:
        doc = json.load(fh)
    return MlpModel(
        tuple(doc["layer_sizes"]), np.asarray(doc["params"], dtype=float),
        doc["activation"], int(doc["seed"]),
    )
