"""Classifier forward/backward checks and noisy-training semantics."""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from anisopriv import models as models_module
from anisopriv.errors import AnisoError, BatchLargerThanDataset, FieldErrors, IndexOutOfRange
from anisopriv.models import (
    _fold,
    _init_params,
    _loss_and_grad,
    _ones_column,
    _seed_parts,
    NO_NOISE,
    AnisotropicPerParam,
    Dataset,
    IsotropicPerLayer,
    MlpModel,
    Training,
    forward,
    layer_slices,
    loss_and_grad,
    make_adjacent,
    read_dataset_csv,
    synth_blobs,
    train,
)
from anisopriv.rng import BATCH_TAG, NOISE_TAG, tagged_stream


@pytest.fixture
def blobs():
    return synth_blobs(3, 40, 3, 3.0, seed=5)


def fd_gradient(model, x, y, h=1e-6):
    """Central finite differences in the flat parameter vector of a one-run
    model."""
    base = model.params[0]
    g = np.empty_like(base)
    for i in range(base.shape[0]):
        bump = np.zeros_like(base)
        bump[i] = h
        up, _ = loss_and_grad(replace(model, params=(base + bump)[None]), x, y)
        dn, _ = loss_and_grad(replace(model, params=(base - bump)[None]), x, y)
        g[i] = (up[0] - dn[0]) / (2.0 * h)
    return g


def test_zero_weights_uniform_loss():
    k = 4
    model = MlpModel((2, 3, k), np.zeros((1, (2 + 1) * 3 + (3 + 1) * k)))
    x = np.array([[0.5, -1.0], [2.0, 0.0]])
    probs = forward(model, x)
    np.testing.assert_allclose(probs, 0.25, rtol=1e-15)
    loss, _ = loss_and_grad(model, x, np.array([0, 3]))
    assert loss[0] == pytest.approx(math.log(k), rel=1e-15)


def test_forward_rows_are_distributions(blobs):
    model = MlpModel((3, 6, 3), _init_params((3, 6, 3), 2)[None])
    probs = forward(model, blobs.features)[0]
    assert probs.shape == (blobs.size, 3)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradient_against_finite_differences(blobs, activation):
    model = MlpModel((3, 5, 3), _init_params((3, 5, 3), 7)[None], activation)
    x, y = blobs.features[:12], blobs.labels[:12]
    _, grad = loss_and_grad(model, x, y)
    np.testing.assert_allclose(grad[0], fd_gradient(model, x, y), atol=1e-7)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 10])
def test_column_folds_match_numpy_reductions(k):
    rng = np.random.default_rng(k)
    z = rng.standard_normal((4, 9, k)) * 10.0 ** rng.integers(-8, 9, size=(4, 9, k))
    z[0, 0, 0] = np.inf
    z[1, 2, -1] = -np.inf
    z[2, 3, k // 2] = np.nan
    z[3, 4, 0], z[3, 4, -1] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        top, fold, sums = _fold(np.maximum, z), _fold(np.add, z), np.add.reduce(z, axis=-1)
    assert np.array_equal(top, np.maximum.reduce(z, axis=-1), equal_nan=True)
    if k < 8:
        # numpy adds fewer than 8 terms left to right
        assert np.array_equal(fold, sums, equal_nan=True)
    else:
        # from 8 terms on numpy adds in 8 partial sums: equal up to rounding
        finite = np.isfinite(sums)
        assert np.array_equal(fold[~finite], sums[~finite], equal_nan=True)
        bound = k * 2.0**-52 * np.abs(z[finite]).sum(axis=-1)
        assert np.all(np.abs(fold[finite] - sums[finite]) <= bound)


def unfused_loss_and_grad(layer_sizes, activation, params, x, y):
    """The stacked loss and gradient with separate bias terms: bias adds in the
    forward pass, bias gradients as row sums, and one concatenate."""
    m, h, k = layer_sizes
    runs, n = y.shape
    w1 = params[:, : m * h].reshape(runs, m, h)
    b1 = params[:, m * h : (m + 1) * h]
    w2 = params[:, (m + 1) * h : (m + 1) * h + h * k].reshape(runs, h, k)
    b2 = params[:, (m + 1) * h + h * k :]
    z1 = x @ w1 + b1[:, None, :]
    if activation == "relu":
        a1, d1 = np.maximum(z1, 0.0), (z1 > 0.0).astype(float)
    else:
        a1 = np.tanh(z1)
        d1 = 1.0 - a1**2
    z2 = a1 @ w2 + b2[:, None, :]
    shift = z2 - z2.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shift).sum(axis=2))
    run, row = np.arange(runs)[:, None], np.arange(n)
    loss = np.mean(logz - shift[run, row, y], axis=1)
    dz2 = np.exp(shift - logz[..., None])
    dz2[run, row, y] -= 1.0
    dz2 /= n
    dw2 = a1.swapaxes(1, 2) @ dz2
    dz1 = (dz2 @ w2.swapaxes(1, 2)) * d1
    dw1 = x.swapaxes(1, 2) @ dz1
    grad = np.concatenate([dw1.reshape(runs, -1), dz1.sum(axis=1),
                           dw2.reshape(runs, -1), dz2.sum(axis=1)], axis=1)
    return loss, grad


@pytest.mark.parametrize("runs", [1, 5])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_bias_folded_step_matches_unfused_formulas(blobs, activation, runs):
    # folding the biases into the matmuls only reorders sums of at most
    # n = 24 terms; 1e-13 relative to the largest entry is ~450 ulp
    sizes = (3, 7, 3)
    rng = np.random.default_rng(runs)
    params = np.stack([_init_params(sizes, s) for s in range(runs)])
    params += 0.3 * rng.standard_normal(params.shape)  # nonzero biases
    rows = rng.integers(0, blobs.size, size=(runs, 24))
    x, y = blobs.features[rows], blobs.labels[rows]
    loss, grad = _loss_and_grad(sizes, activation, params, _ones_column(x), y)
    want_loss, want_grad = unfused_loss_and_grad(sizes, activation, params, x, y)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-13, atol=0.0)
    for g, want in zip(grad, want_grad):
        np.testing.assert_allclose(g, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_scoring_rows_match_single_models(blobs, monkeypatch, activation):
    # at 100 rows a block holds 2 runs of these 40 rows, so 5 runs split into 3
    # blocks; the last run has nonzero biases
    params = np.stack([_init_params((3, 6, 3), s) for s in range(4)])
    model = MlpModel((3, 6, 3), np.concatenate([params, params[:1] + 0.3]), activation)
    x, y = blobs.features[::3], blobs.labels[::3]
    whole = forward(model, x), loss_and_grad(model, x, y)
    monkeypatch.setattr("anisopriv.models._BLOCK_ROWS", 100)
    probs, (loss, grad) = forward(model, x), loss_and_grad(model, x, y)
    assert probs.shape == (5, x.shape[0], 3) and grad.shape == (5, model.n_params)
    for got, want in zip((probs, loss, grad), (whole[0], *whole[1])):
        assert np.array_equal(got, want)
    for r in range(5):
        one = replace(model, params=model.params[r:r + 1])
        assert np.array_equal(probs[r], forward(one, x)[0])
        one_loss, one_grad = loss_and_grad(one, x, y)
        assert loss[r] == one_loss[0] and np.array_equal(grad[r], one_grad[0])
    # runs picked by index, out of order and with a repeat, score as in the stack
    at = [4, 1, 3, 1]
    some = replace(model, params=model.params[at])
    some_loss, some_grad = loss_and_grad(some, x, y)
    assert np.array_equal(forward(some, x), probs[at])
    assert np.array_equal(some_loss, loss[at]) and np.array_equal(some_grad, grad[at])


@pytest.mark.parametrize("shape", [(51,), (1, 1, 51), (2, 50), (0, 51)],
                         ids=["rank-1", "rank-3", "width", "no-runs"])
def test_model_rejects_params_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"params shape .* expected \(runs >= 1, 51\)"):
        MlpModel((4, 6, 3), np.zeros(shape))


def test_init_params_layout():
    sizes = (4, 6, 3)
    params = _init_params(sizes, 9)
    model = MlpModel(sizes, params[None])
    sl1, sl2 = layer_slices(model.layer_sizes)
    assert sl1 == slice(0, 30) and sl2 == slice(30, 30 + 21)
    assert model.params.shape == (1, 51) and model.n_params == 51
    w1 = params[: 4 * 6]
    assert np.abs(w1).max() <= 1.0 / 2.0  # +-1/sqrt(4)
    assert np.array_equal(params[24:30], np.zeros(6))  # b1
    assert np.array_equal(params[48:], np.zeros(3))  # b2
    assert np.array_equal(params, _init_params(sizes, 9))
    assert not np.array_equal(params, _init_params(sizes, 10))


def test_variance_per_scheme():
    # each run's layer max is its own: a max taken across the three runs
    # would give 8 for every first-layer entry
    grad = np.array([[3.0, -1.0, 0.0, 2.0],
                     [0.5, 4.0, -6.0, 1.0],
                     [0.0, 0.0, 1.0, -1.0]])
    slices = [slice(0, 2), slice(2, 4)]
    iso = IsotropicPerLayer(2.0).variance(grad, slices)
    assert np.array_equal(iso, [[6.0, 6.0, 4.0, 4.0], [8.0, 8.0, 12.0, 12.0], [0.0, 0.0, 2.0, 2.0]])
    aniso = AnisotropicPerParam(2.0).variance(grad, slices)
    assert np.array_equal(aniso, 2.0 * np.abs(grad))
    for scheme in (IsotropicPerLayer, AnisotropicPerParam):
        for sigma2, message in ((-0.5, "must be nonnegative"), (-math.inf, "must be nonnegative"),
                                (math.inf, "must be finite"), (math.nan, "must be finite")):
            with pytest.raises(FieldErrors) as err:
                scheme(sigma2)
            assert err.value.fields == (("sigma2", message),)


def test_train_is_deterministic(blobs):
    training = Training(lr=0.3, iters=40, batch=16, hidden=6)
    m1, [log1] = train([blobs], [21], AnisotropicPerParam(0.05), training)
    m2, [log2] = train([blobs], [21], AnisotropicPerParam(0.05), training)
    assert np.array_equal(m1.params, m2.params)
    assert np.array_equal(log1.losses, log2.losses)


def test_zero_variance_scheme_matches_plain_descent(blobs):
    training = Training(lr=0.3, iters=40, batch=16, hidden=6)
    plain, _ = train([blobs], [21], NO_NOISE, training)
    zero_aniso, _ = train([blobs], [21], AnisotropicPerParam(0.0), training)
    zero_iso, _ = train([blobs], [21], IsotropicPerLayer(0.0), training)
    assert np.array_equal(plain.params, zero_aniso.params)
    assert np.array_equal(plain.params, zero_iso.params)


def test_train_derives_layer_sizes_from_data_and_training(blobs):
    # the class count is the largest label over all datasets plus one, so a
    # dataset that lacks the top class still trains the full output layer
    low = Dataset(blobs.features[blobs.labels < 2], blobs.labels[blobs.labels < 2])
    training = Training(lr=0.3, iters=3, batch=4, hidden=5, activation="tanh")
    model, _ = train([low, blobs], [1, 2], NO_NOISE, training)
    assert model.layer_sizes == (3, 5, 3) and model.activation == "tanh"
    assert model.params.shape == (2, (3 + 1) * 5 + (5 + 1) * 3)
    alone, _ = train([low], [1], NO_NOISE, training)
    assert alone.layer_sizes == (3, 5, 2)


def test_divergence_truncates_log(blobs):
    training = Training(lr=1e8, iters=60, batch=20, hidden=8, activation="relu")
    with np.errstate(over="ignore", invalid="ignore"):
        _, [log] = train([blobs], [1], NO_NOISE, training)
    assert log.diverged
    assert len(log.losses) < 60


def test_training_learns_separable_blobs(blobs):
    training = Training(lr=0.2, iters=300, batch=60, hidden=8, activation="relu")
    _, [log] = train([blobs], [2], NO_NOISE, training)
    assert not log.diverged
    assert log.losses[0] > 1.0  # starts near ln 3
    assert log.losses[-10:].mean() < 0.3


def test_train_validation(blobs):
    with pytest.raises(BatchLargerThanDataset) as exc:
        train([blobs], [0], NO_NOISE, Training(lr=0.1, iters=5, batch=blobs.size + 1, hidden=6))
    assert exc.value.operation == "train"


@pytest.mark.parametrize("over, fields", [
    ({"lr": 0.0}, [("lr", "must be positive")]),
    ({"lr": math.nan}, [("lr", "must be positive")]),
    ({"iters": 0}, [("iters", "must be >= 1")]),
    ({"batch": 0}, [("batch", "must be >= 1")]),
    ({"hidden": 0}, [("hidden", "must be >= 1")]),
    ({"activation": "sigmoid"}, [("activation", "must be one of ['relu', 'tanh']")]),
    ({"lr": -1.0, "hidden": 0, "activation": "elu"},
     [("lr", "must be positive"), ("hidden", "must be >= 1"),
      ("activation", "must be one of ['relu', 'tanh']")]),
], ids=["lr-0", "lr-nan", "iters", "batch", "hidden", "activation", "three-in-field-order"])
def test_training_rules(over, fields):
    with pytest.raises(FieldErrors) as exc:
        Training(**{**dict(lr=0.1, iters=5, batch=4, hidden=6), **over})
    assert list(exc.value.fields) == fields


def test_make_adjacent_remove(blobs):
    out = make_adjacent(blobs, 7, "remove")
    assert out.size == blobs.size - 1
    keep = np.arange(blobs.size) != 7
    assert np.array_equal(out.features, blobs.features[keep])
    assert np.array_equal(out.labels, blobs.labels[keep])


def test_make_adjacent_replace(blobs):
    out = make_adjacent(blobs, 3, "replace", new_features=[9.0, 9.0, 9.0], new_label=2)
    assert out.size == blobs.size
    assert np.array_equal(out.features[3], [9.0, 9.0, 9.0])
    assert out.labels[3] == 2
    # everything else untouched
    mask = np.arange(blobs.size) != 3
    assert np.array_equal(out.features[mask], blobs.features[mask])


def test_make_adjacent_validation(blobs):
    with pytest.raises(IndexOutOfRange) as exc:
        make_adjacent(blobs, blobs.size, "remove")
    assert exc.value.operation == "make_adjacent"
    with pytest.raises(IndexOutOfRange):
        make_adjacent(blobs, -1, "remove")
    with pytest.raises(ValueError):
        make_adjacent(blobs, 0, "replace")
    with pytest.raises(ValueError):
        make_adjacent(blobs, 0, "swap")


def test_synth_blobs_geometry():
    ds = synth_blobs(3, 4000, 4, 3.0, seed=11)
    assert ds.features.shape == (12000, 4)
    assert ds.n_classes == 3
    means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(3)])
    # class k sits at (3/sqrt(2)) e_k up to sampling error
    np.testing.assert_allclose(np.diag(means[:, :3]), 3.0 / math.sqrt(2.0), atol=0.1)
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.linalg.norm(means[a] - means[b]) == pytest.approx(3.0, abs=0.15)
    assert np.array_equal(ds.features, synth_blobs(3, 4000, 4, 3.0, seed=11).features)
    assert not np.array_equal(
        ds.features, synth_blobs(3, 4000, 4, 3.0, seed=12).features
    )


def test_synth_blobs_validation():
    with pytest.raises(ValueError):
        synth_blobs(1, 10, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        synth_blobs(4, 10, 3, 1.0, seed=0)  # dim < classes
    with pytest.raises(ValueError):
        synth_blobs(2, 0, 3, 1.0, seed=0)
    with pytest.raises(ValueError):
        synth_blobs(2, 10, 3, -1.0, seed=0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0.0, 1.0]))  # float labels
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([0]))
    with pytest.raises(ValueError):
        Dataset(np.ones((2, 2)), np.array([0, -1]))


def test_read_dataset_csv_hand_written_file(tmp_path):
    # blank lines are skipped, features parse as floats, labels as integers
    path = tmp_path / "ds.csv"
    path.write_text("f0,f1,label\n0.5,-1e-3,0\n\n2,0.1000000000000000055511151231257827,1\n")
    back = read_dataset_csv(path)
    assert np.array_equal(back.features, [[0.5, -1e-3], [2.0, 0.1]])
    assert np.array_equal(back.labels, [0, 1])
    assert back.labels.dtype == np.int64
    assert back.n_features == 2


def test_dataset_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,2,0\n")
    with pytest.raises(ValueError):
        read_dataset_csv(path)


def reference_train(training, dataset, scheme, seed):
    """One run, one step at a time: a loss_and_grad call and one draw from each
    of the run's tagged streams per step. Returns (params, losses, diverged)."""
    sizes = (dataset.n_features, training.hidden, dataset.n_classes)
    activation = training.activation
    params = _init_params(sizes, seed)
    slices = layer_slices(sizes)
    batch_rng = tagged_stream(seed, BATCH_TAG)
    noise_rng = tagged_stream(seed, NOISE_TAG)
    lr, losses = training.lr, []
    for _ in range(training.iters):
        work = MlpModel(sizes, params[None], activation)
        idx = batch_rng.integers(0, dataset.size, size=training.batch)
        (loss,), (grad,) = loss_and_grad(work, dataset.features[idx], dataset.labels[idx])
        losses.append(loss)
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            return params, np.array(losses), True
        if scheme is NO_NOISE:
            params = params - lr * grad
            continue
        if isinstance(scheme, IsotropicPerLayer):  # sigma2 * max|grad| over each layer
            var = np.concatenate([np.full(sl.stop - sl.start, scheme.sigma2 * np.abs(grad[sl]).max())
                                  for sl in slices])
        else:  # sigma2 * |grad| per parameter
            var = scheme.sigma2 * np.abs(grad)
        noise = noise_rng.standard_normal(params.shape[0])
        params = params - lr * grad + np.sqrt(var) * noise
    return params, np.array(losses), False


def assert_matches_reference(run_params, log, ref):
    params, losses, diverged = ref
    assert np.array_equal(run_params, params)
    # a diverged run logs its non-finite last step
    assert np.array_equal(log.losses, losses, equal_nan=True)
    assert log.diverged == diverged


def neighbours(ds, count):
    """ds with record j replaced by a copy of record j + 1, for j < count."""
    return [make_adjacent(ds, j, "replace", new_features=ds.features[j + 1],
                          new_label=ds.labels[j + 1]) for j in range(count)]


@pytest.mark.parametrize("scheme", [NO_NOISE, IsotropicPerLayer(0.05),
                                    AnisotropicPerParam(0.05)],
                         ids=["none", "isotropic-layer", "anisotropic-param"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_training_matches_per_run_reference(blobs, activation, scheme):
    # 45 iterations cross the 32-iteration boundary of the stream blocks
    datasets, seeds = neighbours(blobs, 3), [21, 22, 23]
    training = Training(lr=0.3, iters=45, batch=16, hidden=6, activation=activation)
    model, logs = train(datasets, seeds, scheme, training)
    assert len(model.params) == len(logs) == 3
    for ds, seed, p, log in zip(datasets, seeds, model.params, logs):
        assert_matches_reference(p, log, reference_train(training, ds, scheme, seed))
    # no two runs share a stream
    assert not np.array_equal(model.params[0], model.params[1])


def test_stacked_training_diverged_row_leaves_the_stack(blobs):
    # features 1e5 times larger blow up at lr 30 within the first stream block;
    # the blobs themselves train on for all 45 iterations
    huge = Dataset(blobs.features * 1e5, blobs.labels)
    datasets, seeds = [blobs, huge, blobs], [4, 3, 5]
    scheme = AnisotropicPerParam(0.05)
    training = Training(lr=30.0, iters=45, batch=16, hidden=6, activation="relu")
    with np.errstate(over="ignore", invalid="ignore"):
        model, logs = train(datasets, seeds, scheme, training)
        refs = [reference_train(training, ds, scheme, s) for ds, s in zip(datasets, seeds)]
    assert logs[1].diverged and 1 < len(logs[1].losses) < 32
    assert not np.isfinite(logs[1].losses[-1])
    assert np.all(np.isfinite(model.params[1]))  # frozen before the bad step
    for r in (0, 2):
        assert not logs[r].diverged and len(logs[r].losses) == 45
        alone, [alone_log] = train([datasets[r]], [seeds[r]], scheme, training)
        assert np.array_equal(model.params[r], alone.params[0])
        assert np.array_equal(logs[r].losses, alone_log.losses)
    for p, log, ref in zip(model.params, logs, refs):
        assert_matches_reference(p, log, ref)


def test_stacked_training_all_rows_diverge(blobs):
    huge = Dataset(blobs.features * 1e5, blobs.labels)
    training = Training(lr=30.0, iters=45, batch=16, hidden=6, activation="relu")
    scheme = AnisotropicPerParam(0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        model, logs = train([huge, huge], [3, 6], scheme, training)
        refs = [reference_train(training, huge, scheme, s) for s in (3, 6)]
    assert all(log.diverged for log in logs)
    for p, log, ref in zip(model.params, logs, refs):
        assert_matches_reference(p, log, ref)


@pytest.mark.parametrize("block", [2048, 20], ids=["one-block", "blocks"])
def test_stacked_training_unequal_rows_and_repeated_seeds(blobs, monkeypatch, block):
    # seed 21 trains on three row counts and twice on the same data; seed 22
    # on two datasets of equal row count, which share one batch stream. At
    # 20 rows per block every block holds one run
    monkeypatch.setattr("anisopriv.models._BLOCK_ROWS", block)
    smaller = make_adjacent(blobs, 5, "remove")
    smallest = make_adjacent(smaller, 9, "remove")
    datasets = [blobs, smaller, smallest, blobs, smaller, *neighbours(smaller, 1)]
    seeds = [21, 21, 21, 21, 22, 22]
    scheme = IsotropicPerLayer(0.05)
    training = Training(lr=0.3, iters=45, batch=16, hidden=6, activation="tanh")
    model, logs = train(datasets, seeds, scheme, training)
    for ds, seed, p, log in zip(datasets, seeds, model.params, logs):
        assert_matches_reference(p, log, reference_train(training, ds, scheme, seed))
    assert np.array_equal(model.params[0], model.params[3])
    assert not np.array_equal(model.params[4], model.params[5])


def test_stacked_training_twin_trains_on_after_the_other_diverges(blobs):
    # three twins of seed 4 share one noise stream; the huge one diverges in
    # the first stream block and shares its batch stream with the blobs twin,
    # which keeps drawing it for all 45 iterations
    huge = Dataset(blobs.features * 1e5, blobs.labels)
    datasets = [blobs, huge, make_adjacent(blobs, 0, "remove")]
    scheme = AnisotropicPerParam(0.05)
    training = Training(lr=30.0, iters=45, batch=16, hidden=6, activation="relu")
    with np.errstate(over="ignore", invalid="ignore"):
        model, logs = train(datasets, [4, 4, 4], scheme, training)
        refs = [reference_train(training, ds, scheme, 4) for ds in datasets]
    assert logs[1].diverged and 1 < len(logs[1].losses) < 32
    for r in (0, 2):
        assert not logs[r].diverged and len(logs[r].losses) == 45
    for p, log, ref in zip(model.params, logs, refs):
        assert_matches_reference(p, log, ref)


def test_stacked_training_validation(blobs):
    smaller = make_adjacent(blobs, 0, "remove")
    training = Training(lr=0.1, iters=5, batch=4, hidden=6)
    full_batch = Training(lr=0.1, iters=5, batch=blobs.size, hidden=6)
    with pytest.raises(BatchLargerThanDataset, match=f"dataset size {smaller.size}"):
        # the smallest dataset of the stack bounds the batch
        train([blobs, smaller], [1, 2], NO_NOISE, full_batch)
    with pytest.raises(ValueError):
        train([blobs, blobs], [1], NO_NOISE, training)
    with pytest.raises(ValueError):
        train([], [], NO_NOISE, training)
    narrow = Dataset(blobs.features[:, :2], blobs.labels)
    with pytest.raises(ValueError, match=r"share their feature count, got \[2, 3\]"):
        train([blobs, narrow], [1, 2], NO_NOISE, training)
    with pytest.raises(BatchLargerThanDataset):
        train([smaller, smaller], [1, 2], NO_NOISE, full_batch)


# ---------------------------------------------------------------------------
# the stack split over forked processes


def split_over(monkeypatch, cpus):
    """Make train split every call over `cpus` usable CPUs."""
    monkeypatch.setattr(models_module, "_usable_cpus", lambda: set(range(cpus)))
    monkeypatch.setattr(models_module, "_SPLIT_WORK", 0)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seeds, k", [
    ([1, 2] * 32, 2), ([1, 2, 3] * 2, 3), ([7] * 5, 3), ([4, 4, 4, 5, 6, 6, 7], 2),
    ([9, 8, 9, 7, 8, 9], 4), (list(range(13)), 3), ([1, 2], 1),
])
def test_seed_parts_keep_each_seed_whole(seeds, k):
    parts = _seed_parts(seeds, k)
    assert 1 <= len(parts) <= min(k, len(set(seeds)))
    assert sorted(np.concatenate(parts).tolist()) == list(range(len(seeds)))
    for at in parts:
        assert np.all(np.diff(at) > 0)
        mine = {seeds[r] for r in at}
        assert all(seeds[r] not in mine for other in parts if other is not at for r in other)
    # near-equal: parts differ by less than the largest seed group in runs
    counts = [at.size for at in parts]
    assert max(counts) - min(counts) <= max(seeds.count(s) for s in seeds)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_split_training_matches_one_stack(blobs, monkeypatch, cpus):
    # seeds 4 and 5 train twice (on D and a neighbour), seed 3 diverges on
    # the huge features; every split gives the one-stack result bit for bit
    huge = Dataset(blobs.features * 1e5, blobs.labels)
    datasets = [blobs, huge, blobs, *neighbours(blobs, 2), blobs]
    seeds = [4, 3, 5, 4, 5, 6]
    training = Training(lr=30.0, iters=45, batch=16, hidden=6, activation="relu")
    scheme = AnisotropicPerParam(0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        ref_model, ref_logs = train(datasets, seeds, scheme, training)
        split_over(monkeypatch, cpus)
        model, logs = train(datasets, seeds, scheme, training)
    assert_no_child_left()
    assert ref_logs[1].diverged and [log.diverged for log in logs] == [log.diverged
                                                                        for log in ref_logs]
    assert np.array_equal(model.params, ref_model.params)
    for log, ref in zip(logs, ref_logs):
        assert np.array_equal(log.losses, ref.losses, equal_nan=True)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this exception")


@pytest.mark.parametrize("error, caught, message", [
    (FloatingPointError("step failed in a child"), FloatingPointError,
     "step failed in a child"),
    (AnisoError("child step", operation="child_op"), AnisoError, "child step"),
    (Unpicklable("kept as text"), RuntimeError, "Unpicklable: kept as text"),
], ids=["builtin", "library", "unpicklable"])
def test_child_exception_reaches_the_caller(blobs, monkeypatch, error, caught, message):
    parent, real = os.getpid(), models_module._loss_and_grad

    def fails_in_child(*args):
        if os.getpid() != parent:
            raise error
        return real(*args)

    monkeypatch.setattr(models_module, "_loss_and_grad", fails_in_child)
    split_over(monkeypatch, 2)
    training = Training(lr=0.1, iters=5, batch=8, hidden=6)
    with pytest.raises(caught, match=message) as info:
        train([blobs] * 4, [1, 2, 1, 2], NO_NOISE, training)
    assert getattr(info.value, "operation", None) == getattr(error, "operation", None)
    assert_no_child_left()


def test_parent_exception_kills_and_reaps_the_children(blobs, monkeypatch):
    # each child's 10**6 steps would take over a minute; the caller's own
    # failure at its first step ends them
    parent, real = os.getpid(), models_module._loss_and_grad

    def fails_in_parent(*args):
        if os.getpid() == parent:
            raise KeyError("parent step")
        return real(*args)

    monkeypatch.setattr(models_module, "_loss_and_grad", fails_in_parent)
    split_over(monkeypatch, 3)
    training = Training(lr=1e-3, iters=10**6, batch=8, hidden=6)
    started = time.perf_counter()
    with pytest.raises(KeyError, match="parent step"):
        train([blobs] * 3, [1, 2, 3], NO_NOISE, training)
    assert time.perf_counter() - started < 20.0
    assert_no_child_left()
