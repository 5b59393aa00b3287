"""Classifier forward/backward checks and noisy-training semantics."""

import math

import numpy as np
import pytest

from anisopriv.errors import BatchLargerThanDataset, IndexOutOfRange
from anisopriv.models import (
    _BATCH_TAG,
    _NOISE_TAG,
    _fold,
    _loss_and_grad,
    _ones_column,
    NO_NOISE,
    AnisotropicPerParam,
    Dataset,
    IsotropicPerLayer,
    MlpModel,
    forward,
    init_model,
    layer_slices,
    loss_and_grad,
    loss_on_example,
    make_adjacent,
    noise_std,
    per_example_grads,
    read_dataset_csv,
    synth_blobs,
    train,
    train_stacked,
)
from anisopriv.rng import tagged_stream


@pytest.fixture
def blobs():
    return synth_blobs(3, 40, 3, 3.0, seed=5)


def fd_gradient(model, x, y, h=1e-6):
    """Central finite differences in the flat parameter vector."""
    base = model.params
    g = np.empty_like(base)
    for i in range(base.shape[0]):
        bump = np.zeros_like(base)
        bump[i] = h
        up, _ = loss_and_grad(MlpModel(model.layer_sizes, base + bump, model.activation), x, y)
        dn, _ = loss_and_grad(MlpModel(model.layer_sizes, base - bump, model.activation), x, y)
        g[i] = (up - dn) / (2.0 * h)
    return g


def test_zero_weights_uniform_loss():
    k = 4
    model = MlpModel((2, 3, k), np.zeros((2 + 1) * 3 + (3 + 1) * k))
    x = np.array([[0.5, -1.0], [2.0, 0.0]])
    probs = forward(model, x)
    np.testing.assert_allclose(probs, 0.25, rtol=1e-15)
    loss, _ = loss_and_grad(model, x, np.array([0, 3]))
    assert loss == pytest.approx(math.log(k), rel=1e-15)


def test_forward_rows_are_distributions(blobs):
    model = init_model(3, 6, 3, 2)
    probs = forward(model, blobs.features)
    assert probs.shape == (blobs.size, 3)
    assert np.all(probs >= 0.0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_gradient_against_finite_differences(blobs, activation):
    model = init_model(3, 5, 3, 7, activation)
    x, y = blobs.features[:12], blobs.labels[:12]
    _, grad = loss_and_grad(model, x, y)
    np.testing.assert_allclose(grad, fd_gradient(model, x, y), atol=1e-7)


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
    params = np.stack([init_model(*sizes, s, activation).params for s in range(runs)])
    params += 0.3 * rng.standard_normal(params.shape)  # nonzero biases
    rows = rng.integers(0, blobs.size, size=(runs, 24))
    x, y = blobs.features[rows], blobs.labels[rows]
    loss, grad = _loss_and_grad(sizes, activation, params, _ones_column(x), y)
    want_loss, want_grad = unfused_loss_and_grad(sizes, activation, params, x, y)
    np.testing.assert_allclose(loss, want_loss, rtol=1e-13, atol=0.0)
    for g, want in zip(grad, want_grad):
        np.testing.assert_allclose(g, want, rtol=0.0, atol=1e-13 * np.abs(want).max())


def test_per_example_rows_sum_to_batch_gradient(blobs):
    model = init_model(3, 5, 3, 3, "tanh")
    x, y = blobs.features[:9], blobs.labels[:9]
    rows = per_example_grads(model, x, y)
    _, grad = loss_and_grad(model, x, y)
    assert rows.shape == (9, model.n_params)
    np.testing.assert_allclose(rows.sum(axis=0), 9.0 * grad, rtol=1e-12, atol=1e-14)
    # each row is the gradient of its own record
    _, g0 = loss_and_grad(model, x[:1], y[:1])
    np.testing.assert_allclose(rows[0], g0, rtol=1e-12, atol=1e-14)


def test_loss_on_example_matches_batch_of_one(blobs):
    model = init_model(3, 5, 3, 3)
    want, _ = loss_and_grad(model, blobs.features[:1], blobs.labels[:1])
    assert loss_on_example(model, blobs.features[0], int(blobs.labels[0])) == want


def test_init_model_layout():
    model = init_model(4, 6, 3, 9)
    sl1, sl2 = layer_slices(model.layer_sizes)
    assert sl1 == slice(0, 30) and sl2 == slice(30, 30 + 21)
    assert model.n_params == 51
    w1 = model.params[: 4 * 6]
    assert np.abs(w1).max() <= 1.0 / 2.0  # +-1/sqrt(4)
    assert np.array_equal(model.params[24:30], np.zeros(6))  # b1
    assert np.array_equal(model.params[48:], np.zeros(3))  # b2
    again = init_model(4, 6, 3, 9)
    assert np.array_equal(model.params, again.params)
    other = init_model(4, 6, 3, 10)
    assert not np.array_equal(model.params, other.params)


def test_noise_std_per_scheme():
    grad = np.array([3.0, -1.0, 0.0, 2.0])
    slices = [slice(0, 2), slice(2, 4)]
    assert np.array_equal(noise_std(NO_NOISE, grad, slices), np.zeros(4))
    iso = noise_std(IsotropicPerLayer(2.0), grad, slices)
    np.testing.assert_allclose(iso, [math.sqrt(6.0)] * 2 + [2.0] * 2, rtol=1e-15)
    aniso = noise_std(AnisotropicPerParam(2.0), grad, slices)
    np.testing.assert_allclose(aniso, [math.sqrt(6.0), math.sqrt(2.0), 0.0, 2.0], rtol=1e-15)
    with pytest.raises(TypeError):
        noise_std(object(), grad, slices)
    with pytest.raises(ValueError):
        IsotropicPerLayer(-1.0)
    with pytest.raises(ValueError):
        AnisotropicPerParam(-0.5)


def test_train_is_deterministic(blobs):
    model = init_model(3, 6, 3, 0)
    kwargs = dict(lr=0.3, iters=40, batch=16, seed=21)
    m1, log1 = train(model, blobs, AnisotropicPerParam(0.05), **kwargs)
    m2, log2 = train(model, blobs, AnisotropicPerParam(0.05), **kwargs)
    assert np.array_equal(m1.params, m2.params)
    assert np.array_equal(log1.losses, log2.losses)


def test_zero_variance_scheme_matches_plain_descent(blobs):
    model = init_model(3, 6, 3, 0)
    kwargs = dict(lr=0.3, iters=40, batch=16, seed=21)
    plain, _ = train(model, blobs, NO_NOISE, **kwargs)
    zero_aniso, _ = train(model, blobs, AnisotropicPerParam(0.0), **kwargs)
    zero_iso, _ = train(model, blobs, IsotropicPerLayer(0.0), **kwargs)
    assert np.array_equal(plain.params, zero_aniso.params)
    assert np.array_equal(plain.params, zero_iso.params)


def test_train_reinitializes_from_seed(blobs):
    arch = init_model(3, 6, 3, 0)
    scrambled = MlpModel(arch.layer_sizes, arch.params + 5.0, arch.activation)
    a, _ = train(arch, blobs, NO_NOISE, lr=0.3, iters=10, batch=16, seed=4)
    b, _ = train(scrambled, blobs, NO_NOISE, lr=0.3, iters=10, batch=16, seed=4)
    assert np.array_equal(a.params, b.params)


def test_divergence_truncates_log(blobs):
    model = init_model(3, 8, 3, 0, "relu")
    with np.errstate(over="ignore", invalid="ignore"):
        _, log = train(model, blobs, NO_NOISE, lr=1e8, iters=60, batch=20, seed=1)
    assert log.diverged
    assert len(log.losses) < 60


def test_training_learns_separable_blobs(blobs):
    model = init_model(3, 8, 3, 0, "relu")
    _, log = train(model, blobs, NO_NOISE, lr=0.2, iters=300, batch=60, seed=2)
    assert not log.diverged
    assert log.losses[0] > 1.0  # starts near ln 3
    assert log.losses[-10:].mean() < 0.3


def test_train_validation(blobs):
    model = init_model(3, 6, 3, 0)
    with pytest.raises(BatchLargerThanDataset) as exc:
        train(model, blobs, NO_NOISE, lr=0.1, iters=5, batch=blobs.size + 1, seed=0)
    assert exc.value.operation == "train"
    with pytest.raises(ValueError):
        train(model, blobs, NO_NOISE, lr=0.0, iters=5, batch=4, seed=0)
    with pytest.raises(ValueError):
        train(model, blobs, NO_NOISE, lr=0.1, iters=0, batch=4, seed=0)
    with pytest.raises(ValueError):
        train(model, blobs, NO_NOISE, lr=0.1, iters=5, batch=0, seed=0)
    with pytest.raises(ValueError):
        train(model, blobs, NO_NOISE, lr=0.1, iters=5, batch=4, seed=0, noise_on="both")


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


def reference_train(model, dataset, scheme, *, lr, iters, batch, seed, noise_on="step"):
    """One run, one step at a time: a loss_and_grad call and one draw from each
    of the run's tagged streams per step. Returns (params, losses, diverged)."""
    params = init_model(*model.layer_sizes, seed, model.activation).params
    slices = layer_slices(model.layer_sizes)
    batch_rng = tagged_stream(seed, _BATCH_TAG)
    noise_rng = tagged_stream(seed, _NOISE_TAG)
    losses = []
    for _ in range(iters):
        work = MlpModel(model.layer_sizes, params, model.activation)
        idx = batch_rng.integers(0, dataset.size, size=batch)
        loss, grad = loss_and_grad(work, dataset.features[idx], dataset.labels[idx])
        losses.append(loss)
        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            return params, np.array(losses), True
        if scheme is NO_NOISE:
            params = params - lr * grad
            continue
        if noise_on == "full":
            _, scale = loss_and_grad(work, dataset.features, dataset.labels)
        else:
            scale = grad
        noise = noise_rng.standard_normal(params.shape[0])
        params = params - lr * grad + noise_std(scheme, scale, slices) * noise
    return params, np.array(losses), False


def assert_matches_reference(model, log, ref):
    params, losses, diverged = ref
    assert np.array_equal(model.params, params)
    # a diverged run logs its non-finite last step
    assert np.array_equal(log.losses, losses, equal_nan=True)
    assert log.diverged == diverged


def neighbours(ds, count):
    """ds with record j replaced by a copy of record j + 1, for j < count."""
    return [make_adjacent(ds, j, "replace", new_features=ds.features[j + 1],
                          new_label=ds.labels[j + 1]) for j in range(count)]


@pytest.mark.parametrize("noise_on", ["step", "full"])
@pytest.mark.parametrize("scheme", [NO_NOISE, IsotropicPerLayer(0.05),
                                    AnisotropicPerParam(0.05)],
                         ids=["none", "isotropic-layer", "anisotropic-param"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_stacked_training_matches_per_run_reference(blobs, activation, scheme, noise_on):
    # 45 iterations cross the 32-iteration boundary of the stream blocks
    model = init_model(3, 6, 3, 0, activation)
    datasets, seeds = neighbours(blobs, 3), [21, 22, 23]
    kwargs = dict(lr=0.3, iters=45, batch=16, noise_on=noise_on)
    models, logs = train_stacked(model, datasets, seeds, scheme, **kwargs)
    assert len(models) == len(logs) == 3
    for ds, seed, m, log in zip(datasets, seeds, models, logs):
        assert m.seed == seed
        assert_matches_reference(m, log, reference_train(model, ds, scheme, seed=seed,
                                                         **kwargs))
    # no two runs share a stream
    assert not np.array_equal(models[0].params, models[1].params)


def test_stacked_training_diverged_row_leaves_the_stack(blobs):
    # features 1e5 times larger blow up at lr 30 within the first stream block;
    # the blobs themselves train on for all 45 iterations, under either noise
    # scale, so the full-data stack is cut with the diverged row
    model = init_model(3, 6, 3, 0, "relu")
    huge = Dataset(blobs.features * 1e5, blobs.labels)
    datasets, seeds = [blobs, huge, blobs], [4, 3, 5]
    scheme = AnisotropicPerParam(0.05)
    for noise_on in ("step", "full"):
        kwargs = dict(lr=30.0, iters=45, batch=16, noise_on=noise_on)
        with np.errstate(over="ignore", invalid="ignore"):
            models, logs = train_stacked(model, datasets, seeds, scheme, **kwargs)
            refs = [reference_train(model, ds, scheme, seed=s, **kwargs)
                    for ds, s in zip(datasets, seeds)]
        assert logs[1].diverged and 1 < len(logs[1].losses) < 32
        assert not np.isfinite(logs[1].losses[-1])
        assert np.all(np.isfinite(models[1].params))  # frozen before the bad step
        for r in (0, 2):
            assert not logs[r].diverged and len(logs[r].losses) == 45
            alone, alone_log = train(model, datasets[r], scheme, seed=seeds[r], **kwargs)
            assert np.array_equal(models[r].params, alone.params)
            assert np.array_equal(logs[r].losses, alone_log.losses)
        for m, log, ref in zip(models, logs, refs):
            assert_matches_reference(m, log, ref)


@pytest.mark.parametrize("noise_on", ["step", "full"])
def test_stacked_training_all_rows_diverge(blobs, noise_on):
    model = init_model(3, 6, 3, 0, "relu")
    huge = Dataset(blobs.features * 1e5, blobs.labels)
    kwargs = dict(lr=30.0, iters=45, batch=16, noise_on=noise_on)
    scheme = AnisotropicPerParam(0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        models, logs = train_stacked(model, [huge, huge], [3, 6], scheme, **kwargs)
        refs = [reference_train(model, huge, scheme, seed=s, **kwargs) for s in (3, 6)]
    assert all(log.diverged for log in logs)
    for m, log, ref in zip(models, logs, refs):
        assert_matches_reference(m, log, ref)


@pytest.mark.parametrize("block", [2048, 20], ids=["one-block", "blocks"])
@pytest.mark.parametrize("noise_on", ["step", "full"])
def test_stacked_training_unequal_rows_and_repeated_seeds(blobs, monkeypatch, noise_on,
                                                          block):
    # seed 21 trains on three row counts and twice on the same data; seed 22
    # on two datasets of equal row count, which share one batch stream. At
    # 20 rows per block every block holds one run
    monkeypatch.setattr("anisopriv.models._BLOCK_ROWS", block)
    model = init_model(3, 6, 3, 0, "tanh")
    smaller = make_adjacent(blobs, 5, "remove")
    smallest = make_adjacent(smaller, 9, "remove")
    datasets = [blobs, smaller, smallest, blobs, smaller, *neighbours(smaller, 1)]
    seeds = [21, 21, 21, 21, 22, 22]
    scheme = IsotropicPerLayer(0.05)
    kwargs = dict(lr=0.3, iters=45, batch=16, noise_on=noise_on)
    models, logs = train_stacked(model, datasets, seeds, scheme, **kwargs)
    for ds, seed, m, log in zip(datasets, seeds, models, logs):
        assert m.seed == seed
        assert_matches_reference(m, log, reference_train(model, ds, scheme, seed=seed,
                                                         **kwargs))
    assert np.array_equal(models[0].params, models[3].params)
    assert not np.array_equal(models[4].params, models[5].params)


@pytest.mark.parametrize("noise_on", ["step", "full"])
def test_stacked_training_twin_trains_on_after_the_other_diverges(blobs, noise_on):
    # three twins of seed 4 share one noise stream; the huge one diverges in
    # the first stream block and shares its batch stream with the blobs twin,
    # which keeps drawing it for all 45 iterations
    model = init_model(3, 6, 3, 0, "relu")
    huge = Dataset(blobs.features * 1e5, blobs.labels)
    datasets = [blobs, huge, make_adjacent(blobs, 0, "remove")]
    scheme = AnisotropicPerParam(0.05)
    kwargs = dict(lr=30.0, iters=45, batch=16, noise_on=noise_on)
    with np.errstate(over="ignore", invalid="ignore"):
        models, logs = train_stacked(model, datasets, [4, 4, 4], scheme, **kwargs)
        refs = [reference_train(model, ds, scheme, seed=4, **kwargs) for ds in datasets]
    assert logs[1].diverged and 1 < len(logs[1].losses) < 32
    for r in (0, 2):
        assert not logs[r].diverged and len(logs[r].losses) == 45
    for m, log, ref in zip(models, logs, refs):
        assert_matches_reference(m, log, ref)


def test_stacked_training_validation(blobs):
    model = init_model(3, 6, 3, 0)
    smaller = make_adjacent(blobs, 0, "remove")
    kwargs = dict(lr=0.1, iters=5, batch=4)
    with pytest.raises(BatchLargerThanDataset, match=f"dataset size {smaller.size}"):
        # the smallest dataset of the stack bounds the batch
        train_stacked(model, [blobs, smaller], [1, 2], NO_NOISE, lr=0.1, iters=5,
                      batch=blobs.size)
    with pytest.raises(ValueError):
        train_stacked(model, [blobs, blobs], [1], NO_NOISE, **kwargs)
    with pytest.raises(ValueError):
        train_stacked(model, [], [], NO_NOISE, **kwargs)
    with pytest.raises(BatchLargerThanDataset):
        train_stacked(model, [smaller, smaller], [1, 2], NO_NOISE, lr=0.1, iters=5,
                      batch=blobs.size)
