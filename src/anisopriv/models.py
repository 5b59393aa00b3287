"""Small softmax classifiers for empirical privacy experiments.

One hidden layer, cross-entropy loss, hand-rolled backprop (verified against
finite differences in the test suite). The flat parameters hold the layer
blocks [W1; b1] (m+1, h) and [W2; b2] (h+1, k), and the inputs and hidden
activations carry a ones column, so a layer is one matmul each way; the max
and exp-sum over classes are left-to-right folds of the class columns.
Training is minibatch gradient descent with optional Gaussian noise, whose
variances a noisy scheme's `variance` gives from the minibatch gradients the
step descends along. Tagged counter-based streams pin initialization, batch
selection and noise draws to the seed. A `Training` holds the settings that
every run of a call shares (step size, iterations, batch, hidden width,
activation) and states their rules once; the noise scheme is passed beside it.

`train` trains R runs, on datasets of any row counts, into one `MlpModel`, a
stack whose params are one (R, P) array, with layer sizes derived from the
datasets and the Training. Runs that share a seed share its init, noise and
(at equal row count) batch streams, each drawn once, in blocks of 32
iterations, so a run's result does not depend on the other runs. `forward`
and `loss_and_grad` score the runs of a model on shared rows, the same way in
blocks of runs; a single model is the stack of one.

On Linux (os.fork, os.sched_getaffinity), a large `train` call splits its
runs by seed over the usable CPUs: the calling process trains one part and a
forked child each other part, kept off the caller's CPU, since the step's
many small numpy calls would run one at a time on threads. The results are
the same bit for bit; see `train` for when the stack is split. The fork, pipe
and reaping are `_fork._in_processes`, which `sde.paired_simulate` shares.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from functools import partial, reduce

import numpy as np

from ._fork import _in_processes, _usable_cpus
from .errors import BatchLargerThanDataset, FieldErrors, IndexOutOfRange, check_fields
from .rng import BATCH_TAG, INIT_TAG, NOISE_TAG, SYNTH_TAG, tagged_stream

_STREAM_BLOCK = 32  # iterations of batch indices and noise drawn per stream at once
# Rows (runs times rows per run) per block of runs in one stacked pass; a
# larger stack is split into near-equal blocks. On 2 cores, an estimate_delta
# of 50 runs of 200-row batches (hidden 10) took 1.6-1.8 s in blocks of at
# most 2048 rows and 2.5-4 s as one block, which page-faulted about 600 times
# per step as its arrays were mapped and unmapped; 64 runs of 32-row batches
# (hidden 16) were slower in 3 blocks than in one.
_BLOCK_ROWS = 2048
# Multiply-adds (iters x runs x batch x parameters) from which train splits
# its runs over CPUs. On 2 cores a fork, pipe and wait cycle took about 3 ms,
# and two parts were slower than one stack below about 1e7 (hidden 16 and 10,
# batch 32 and 200) and faster in every measured call from 1.3e7 on (0.6 to
# 0.9 of the one-stack time).
_SPLIT_WORK = 15_000_000
_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature rows with integer class labels."""

    features: np.ndarray
    labels: np.ndarray

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


@dataclass(frozen=True)
class Training:
    """Settings shared by every run of a train call: step size lr, iters
    steps, batch rows per step, hidden units and the hidden activation."""

    lr: float
    iters: int
    batch: int
    hidden: int
    activation: str = "relu"

    def __post_init__(self):
        failed = {name: "must be >= 1" for name in ("iters", "batch", "hidden")
                  if getattr(self, name) < 1}
        if not self.lr > 0.0:
            failed["lr"] = "must be positive"
        if self.activation not in _ACTIVATIONS:
            failed["activation"] = f"must be one of {sorted(_ACTIVATIONS)}"
        check_fields([f.name for f in fields(self)], failed)


@dataclass(frozen=True, eq=False)
class MlpModel:
    """R one-hidden-layer classifiers; params (R, P) holds each run's flat params."""

    layer_sizes: tuple[int, int, int]
    params: np.ndarray
    activation: str = "relu"

    def __post_init__(self):
        m, h, k = self.layer_sizes
        expected = (m + 1) * h + (h + 1) * k
        p = np.asarray(self.params, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] != expected:
            raise ValueError(f"params shape {p.shape} != expected (runs >= 1, {expected})")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "layer_sizes", tuple(int(v) for v in self.layer_sizes))

    @property
    def n_params(self) -> int:
        return self.params.shape[1]


def layer_slices(layer_sizes: tuple[int, int, int]) -> list[slice]:
    """Parameter-vector slices of the two layers (weights and bias together)."""
    m, h, k = layer_sizes
    first = (m + 1) * h
    return [slice(0, first), slice(first, first + (h + 1) * k)]


def _init_params(layer_sizes, seed: int) -> np.ndarray:
    """Flat params (P,): weights uniform on +-1/sqrt(fan_in), biases zero,
    from the seed's init stream."""
    rng = tagged_stream(seed, INIT_TAG)
    m, h, k = layer_sizes
    w1 = rng.uniform(-1.0, 1.0, size=(m, h)) / np.sqrt(m)
    w2 = rng.uniform(-1.0, 1.0, size=(h, k)) / np.sqrt(h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(k)])


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


def _run_blocks(runs: int, rows: int) -> list[slice]:
    """Near-equal blocks of a stack of runs with `rows` rows each; a block has
    at most _BLOCK_ROWS rows, or one run."""
    n_blocks = -(-runs // max(1, _BLOCK_ROWS // rows))
    return [slice(i * runs // n_blocks, (i + 1) * runs // n_blocks) for i in range(n_blocks)]


def _blocks(model: MlpModel, features):
    """The kernel arguments (layer_sizes, activation, params, x1) of each block
    of the model's runs on the shared rows features (n, m)."""
    x1 = _ones_column(features)
    return [(model.layer_sizes, model.activation, model.params[b],
             np.broadcast_to(x1, (b.stop - b.start, *x1.shape)))
            for b in _run_blocks(len(model.params), x1.shape[0])]


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities (R, n, classes) of the model's R runs on the shared
    rows features (n, m), computed in blocks of runs."""
    e = np.concatenate([np.exp(_forward(*args)[-1]) for args in _blocks(model, features)])
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_grad(model: MlpModel, features: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy (R,) of the model's R runs on the shared rows
    features (n, m) with labels (n,), and its gradients (R, P) in the flat
    params, computed in blocks of runs."""
    y = np.asarray(labels).ravel()
    loss, grad = zip(*(_loss_and_grad(*args, np.broadcast_to(y, (len(args[2]), y.size)))
                       for args in _blocks(model, features)))
    return np.concatenate(loss), np.concatenate(grad)


# ---------------------------------------------------------------------------
# noise schemes


class NoNoise:
    """Plain gradient descent."""


NO_NOISE = NoNoise()


@dataclass(frozen=True)
class _GradientScaled:
    """Noise whose variance is sigma2 times a magnitude of the minibatch
    gradient the step descends along; each subclass states which."""

    sigma2: float

    def __post_init__(self):
        if not 0.0 <= self.sigma2 < np.inf:
            why = "must be nonnegative" if self.sigma2 < 0.0 else "must be finite"
            raise FieldErrors([("sigma2", why)])


@dataclass(frozen=True)
class IsotropicPerLayer(_GradientScaled):
    """One noise variance per layer, from the layer's largest gradient entry."""

    def variance(self, grad: np.ndarray, slices: list[slice]) -> np.ndarray:
        """Variances (R, P) for the gradients (R, P): sigma2 * max|grad| over
        each layer's slice of the last axis, per run."""
        var = np.empty_like(grad)
        for sl in slices:
            var[:, sl] = self.sigma2 * np.abs(grad[:, sl]).max(axis=1, keepdims=True, initial=0.0)
        return var


@dataclass(frozen=True)
class AnisotropicPerParam(_GradientScaled):
    """One noise variance per parameter, from its gradient entry."""

    def variance(self, grad: np.ndarray, slices: list[slice]) -> np.ndarray:
        """Variances (R, P) for the gradients (R, P): sigma2 * |grad|."""
        return self.sigma2 * np.abs(grad)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True, eq=False)
class TrainLog:
    losses: np.ndarray
    diverged: bool


def _index_by(keys):
    """Each key's position among the distinct keys (in order of first
    appearance), as an array, and the distinct keys."""
    ids = {}
    at = np.array([ids.setdefault(key, len(ids)) for key in keys])
    return at, list(ids)


def train(datasets, seeds, scheme, training: Training):
    """Minibatch gradient descent with injected noise, of run r on
    (datasets[r], seeds[r]) for all runs at once; the datasets may differ in
    row count. Returns one model, the stack of all runs in order, and their logs.

    The model has the layer sizes (features, training.hidden, classes): the
    datasets must share their feature count, and the class count is the
    largest label of any of them plus one. Parameters are initialized from
    each seed's init stream, so a run's result depends only on its dataset
    and seed, bit for bit. A noisy step draws its noise with the variances
    that scheme.variance gives for the minibatch gradients the step has just
    computed and descends along. Runs with the same seed share one init and
    one noise stream, and those with the same seed and row count one batch
    stream, each drawn once, in blocks of 32 iterations, while any of its
    runs is live. A non-finite loss or gradient stops a run and flags its
    log as diverged; its parameters are those before that step, and the
    other runs carry on. The loop runs with numpy's overflow and
    invalid-value warnings off, since a non-finite loss or gradient is how
    divergence is detected.

    On Linux, a call of at least 1.5e7 multiply-adds (iters x runs x batch x
    parameters) splits its runs, whole seed groups at a time, into one part
    per usable CPU (os.sched_getaffinity), at most one per seed, since the
    step is many small numpy calls that threads would run one at a time. This
    process trains the first part and forks (os.fork) one child process per
    other part; each child trains its part with the same loop and pipes back
    its result, or its exception, which is raised here. A child keeps off the
    CPU this process was on at the fork: otherwise the scheduler often left
    both on one CPU for the whole call, slower than one stack. Every child has
    been reaped when train returns or raises. On Python 3.12 and later,
    os.fork warns (DeprecationWarning) in a process with other threads, such
    as BLAS threads; the split goes ahead, and the child calls only numpy
    before it exits with os._exit (this case has not been run). Without
    os.fork or os.sched_getaffinity, on one CPU, for one seed or below the
    break-even, the stack trains in this process."""
    if len(datasets) != len(seeds) or not seeds:
        raise ValueError("need one seed per dataset and at least one run")
    widths = {ds.n_features for ds in datasets}
    if len(widths) > 1:
        raise ValueError(f"datasets must share their feature count, got {sorted(widths)}")
    smallest = min(ds.size for ds in datasets)
    if training.batch > smallest:
        raise BatchLargerThanDataset(
            f"batch {training.batch} exceeds dataset size {smallest}", operation="train"
        )
    sizes = (widths.pop(), training.hidden, max(ds.n_classes for ds in datasets))
    runs, iters, n_params = len(seeds), training.iters, layer_slices(sizes)[1].stop

    def part(at):
        return _train_stack(sizes, training, [datasets[r] for r in at],
                            [seeds[r] for r in at], scheme)

    cpus = _usable_cpus()
    small = iters * runs * training.batch * n_params < _SPLIT_WORK
    parts = [range(runs)] if small else _seed_parts(seeds, len(cpus))
    final = np.empty((runs, n_params))
    losses = np.empty((runs, iters))
    steps, diverged = np.empty(runs, dtype=int), np.empty(runs, dtype=bool)
    for at, result in zip(parts, _in_processes(cpus, [partial(part, at) for at in parts])):
        final[at], losses[at], steps[at], diverged[at] = result

    logs = [TrainLog(losses[r, : steps[r]], bool(diverged[r])) for r in range(runs)]
    return MlpModel(sizes, final, training.activation), logs


def _seed_parts(seeds, k: int) -> list[np.ndarray]:
    """Run indices of at most k parts of near-equal run count, in run order
    within each part; the runs of one seed are never split across parts."""
    seed_of, keys = _index_by(seeds)
    k = min(k, len(keys))
    group_runs = np.bincount(seed_of)
    # a seed group goes to the part where the middle of its runs falls
    middle = np.cumsum(group_runs) - group_runs / 2.0
    part_of = (middle * k / len(seeds)).astype(int)[seed_of]
    return [at for at in (np.flatnonzero(part_of == p) for p in range(k)) if at.size]


def _train_stack(sizes, training, datasets, seeds, scheme):
    """train's loop on one stack of runs: their final parameters (R, P),
    losses (R, iters), step counts (R,) and diverged flags (R,)."""
    lr, iters, batch, activation = training.lr, training.iters, training.batch, training.activation
    slices = layer_slices(sizes)
    runs = len(seeds)
    # the rows of every distinct dataset (by identity), one after another;
    # run r's rows start at offset[r]
    data_of, distinct = _index_by(datasets)
    flat_x = _ones_column(np.concatenate([ds.features for ds in distinct]))
    flat_y = np.concatenate([ds.labels for ds in distinct])
    offset = np.cumsum([0] + [ds.size for ds in distinct])[data_of]
    seed_of, seed_keys = _index_by(seeds)
    batch_of, batch_keys = _index_by((s, ds.size) for s, ds in zip(seeds, datasets))
    params = np.stack([_init_params(sizes, s) for s in seed_keys])[seed_of]
    batch_rngs = [tagged_stream(s, BATCH_TAG) for s, _ in batch_keys]
    picks = np.empty((len(batch_keys), _STREAM_BLOCK, batch), dtype=np.int64)
    noisy = not isinstance(scheme, NoNoise)
    if noisy:
        noise_rngs = [tagged_stream(s, NOISE_TAG) for s in seed_keys]
        noise = np.empty((len(seed_keys), _STREAM_BLOCK, params.shape[1]))

    losses = np.empty((runs, iters))
    steps = np.full(runs, iters)
    diverged = np.zeros(runs, dtype=bool)
    final = np.empty_like(params)
    live = np.arange(runs)  # runs still training; row i of the stack is run live[i]
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
            params = params - lr * grad
            if noisy:
                params += np.sqrt(scheme.variance(grad, slices)) * noise[seed_of[live], j]
    final[live] = params
    return final, losses, steps, diverged


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
        return Dataset(dataset.features[keep], dataset.labels[keep])
    if mode == "replace":
        if new_features is None or new_label is None:
            raise ValueError("replace mode needs new_features and new_label")
        feats = dataset.features.copy()
        labels = dataset.labels.copy()
        feats[index] = np.asarray(new_features, dtype=float).ravel()
        labels[index] = int(new_label)
        return Dataset(feats, labels)
    raise ValueError(f"unknown adjacency mode {mode!r}")


def synth_blobs(classes: int, per_class: int, dim: int, separation: float,
                seed: int) -> Dataset:
    """Unit-variance Gaussian blobs with equal pairwise mean distances.

    Class k's mean is (separation/sqrt(2)) e_k, so every pair of means is
    exactly `separation` apart; requires dim >= classes.
    """
    failed = {name: "must be >= 1" for name, v in (("per_class", per_class), ("dim", dim))
              if v < 1}
    if classes < 2:
        failed["classes"] = "must be >= 2"
    elif "dim" not in failed and dim < classes:
        failed["dim"] = f"dim must be >= classes for equidistant means, got {dim} < {classes}"
    if separation < 0.0:
        failed["separation"] = "must be nonnegative"
    check_fields(("classes", "per_class", "dim", "separation"), failed)
    rng = tagged_stream(seed, SYNTH_TAG)
    feats = rng.standard_normal((classes * per_class, dim))
    labels = np.repeat(np.arange(classes), per_class)
    scale = separation / np.sqrt(2.0)
    for k in range(classes):
        feats[labels == k, k] += scale
    return Dataset(feats, labels.astype(np.int64))


# ---------------------------------------------------------------------------
# dataset files


def _csv_rows(reader):
    """reader's rows; a csv.Error (a field over the csv module's size limit,
    say) is raised as a ValueError that names the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None


def read_dataset_csv(path) -> Dataset:
    """Records under the header f0,...,f{m-1},label in a UTF-8 file; blank
    lines are skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        rows = _csv_rows(r)
        header = next(rows, [])
        if header[-1:] != ["label"] or any(h != f"f{i}" for i, h in enumerate(header[:-1])):
            raise ValueError(f"unexpected dataset header {header}")
        feats, labels = [], []
        for row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"line {r.line_num} has {len(row)} fields, expected {len(header)}")
            try:
                feats.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise ValueError(f"line {r.line_num}: {exc}") from None
            if not np.all(np.isfinite(feats[-1])):
                raise ValueError(f"line {r.line_num}: features must be finite")
            if not -2**63 <= labels[-1] < 2**63:
                raise ValueError(f"line {r.line_num} has label {row[-1]}, outside the int64 range")
    if not labels:
        raise ValueError("dataset has no records")
    return Dataset(np.asarray(feats), np.asarray(labels, dtype=np.int64))
