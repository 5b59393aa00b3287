"""Empirical delta estimator and membership experiment."""

import csv
import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from anisopriv import models
from anisopriv.audit import (
    AuditConfig,
    MembershipConfig,
    _adjacent_pair,
    clamped_log_ratios,
    estimate_delta,
    membership_experiment,
)
from anisopriv.cli import main, write_audit_json
from anisopriv.errors import AnisoError, FieldErrors, TrainingDivergedWarning
from anisopriv.models import (
    NO_NOISE,
    AnisotropicPerParam,
    Dataset,
    IsotropicPerLayer,
    Training,
    forward,
    loss_and_grad,
    make_adjacent,
    synth_blobs,
    train,
)
from anisopriv.rng import (ADJACENCY_TAG, BATCH_TAG, INIT_TAG, NOISE_TAG, derive_seed,
                           tagged_stream)


@pytest.fixture
def small_blobs():
    return synth_blobs(2, 8, 2, 2.0, seed=3)


def small_training(**overrides):
    return Training(**{**dict(lr=0.5, iters=30, batch=8, hidden=4), **overrides})


def small_config(ds, training=None, **overrides):
    base = dict(
        epsilon=0.1,
        outer_rounds=2,
        inner_rounds=3,
        scheme=AnisotropicPerParam(0.5),
        training=training or small_training(),
        dataset=ds,
        seed=17,
    )
    base.update(overrides)
    return AuditConfig(**base)


def small_membership(ds, target_index, runs, scheme, training=None, **overrides):
    return MembershipConfig(ds, target_index, runs, scheme, training or small_training(),
                            **{"seed": 9, **overrides})


def test_clamped_log_ratios_hand_values():
    p = np.array([1e-20, 0.5, 1.0, 2.0])
    q = np.array([0.5, 1e-20, 0.25, 1.0])
    out = clamped_log_ratios(p, q)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(math.log(1e-12) - math.log(0.5), rel=1e-14)
    assert out[1] == pytest.approx(math.log(0.5) - math.log(1e-12), rel=1e-14)
    assert out[2] == pytest.approx(math.log(4.0), rel=1e-14)
    # values above 1 clamp down to 1
    assert out[3] == 0.0


def test_null_adjacency_gives_zero_delta(small_blobs):
    report = estimate_delta(small_config(small_blobs, adjacency="null"))
    assert report.delta == 0.0
    assert all(c == 0 for c in report.counts_per_outer)
    assert report.excluded_rounds == 0
    assert report.total_comparisons == 2 * 3 * small_blobs.size


def test_huge_epsilon_gives_zero_delta(small_blobs):
    # clamping bounds |log ratio| by 12 ln 10, far below this threshold
    report = estimate_delta(small_config(small_blobs, epsilon=1e6))
    assert report.delta == 0.0


def test_estimate_delta_deterministic(small_blobs):
    a = estimate_delta(small_config(small_blobs))
    b = estimate_delta(small_config(small_blobs))
    assert a.delta == b.delta
    assert a.delta_per_outer == b.delta_per_outer
    assert a.counts_per_outer == b.counts_per_outer
    assert a.worst_loss == b.worst_loss


def test_delta_nonincreasing_in_epsilon(small_blobs):
    reports = [
        estimate_delta(small_config(small_blobs, epsilon=eps))
        for eps in (0.01, 0.1, 1.0)
    ]
    # identical trainings, so the per-outer counts shrink as the bar rises
    for lo, hi in zip(reports, reports[1:]):
        assert all(a >= b for a, b in zip(lo.counts_per_outer, hi.counts_per_outer))
        assert lo.delta >= hi.delta
    assert reports[0].delta > 0.0


def test_estimate_delta_remove_matches_per_run_training(small_blobs):
    # remove adjacency is in no shipped config, and its arms differ in row
    # count; 40 iterations cross a stream block boundary
    cfg = small_config(small_blobs, small_training(iters=40, batch=7), adjacency="remove",
                       epsilon=0.05)
    report = estimate_delta(cfg)

    ds = cfg.dataset
    adj_rng = tagged_stream(cfg.seed, ADJACENCY_TAG)
    counts, worst = [], -np.inf
    for t1 in range(cfg.outer_rounds):
        other = _adjacent_pair(ds, "remove", adj_rng)
        count = 0
        for t2 in range(cfg.inner_rounds):
            seeds = [derive_seed(cfg.seed, t1, t2)]
            model_a, [log_a] = train([ds], seeds, cfg.scheme, cfg.training)
            model_b, [log_b] = train([other], seeds, cfg.scheme, cfg.training)
            assert not (log_a.diverged or log_b.diverged)
            worst = max(worst, log_a.losses.max(), log_b.losses.max())
            pa = forward(model_a, ds.features)[0, np.arange(ds.size), ds.labels]
            pb = forward(model_b, ds.features)[0, np.arange(ds.size), ds.labels]
            count += int((clamped_log_ratios(pa, pb) > cfg.epsilon).sum())
        counts.append(count)
    assert sum(counts) > 0
    assert report.counts_per_outer == tuple(counts)
    assert report.delta_per_outer == tuple(c / (cfg.inner_rounds * ds.size) for c in counts)
    assert report.delta == max(report.delta_per_outer)
    assert report.worst_loss == worst
    assert report.excluded_rounds == 0


@pytest.mark.parametrize("adjacency, batch_streams", [("replace", 1), ("remove", 2)])
def test_estimate_delta_opens_each_seed_stream_once(small_blobs, monkeypatch, adjacency,
                                                    batch_streams):
    # both arms of a round train with one seed: one init and one noise stream
    # per round, and one batch stream per round and row count. On one CPU
    # train runs in this process, where the counter sees every stream
    monkeypatch.setattr(models, "_usable_cpus", lambda: 1)
    opened = Counter()
    real = models.tagged_stream

    def counting(seed, tag):
        opened[tag] += 1
        return real(seed, tag)

    monkeypatch.setattr(models, "tagged_stream", counting)
    cfg = small_config(small_blobs, adjacency=adjacency)
    estimate_delta(cfg)
    rounds = cfg.outer_rounds * cfg.inner_rounds
    assert opened[NOISE_TAG] == rounds
    assert opened[BATCH_TAG] == batch_streams * rounds
    assert opened[INIT_TAG] == rounds


def test_estimate_delta_same_report_in_run_blocks(small_blobs, monkeypatch):
    # at 20 rows a block holds two runs of an 8-row batch, so the training
    # step of the 12 runs takes 6 blocks, and one run of the final
    # probabilities on the 16 rows
    cfg = small_config(small_blobs, adjacency="remove", epsilon=0.01)
    whole = dataclasses.asdict(estimate_delta(cfg))
    monkeypatch.setattr("anisopriv._fork._BLOCK_ROWS", 20)
    assert dataclasses.asdict(estimate_delta(cfg)) == whole
    assert sum(whole["counts_per_outer"]) > 0


def test_divergent_rounds_are_excluded(small_blobs):
    cfg = small_config(
        small_blobs, small_training(lr=1e8, iters=40, activation="relu"), scheme=NO_NOISE,
        outer_rounds=2, inner_rounds=2,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.warns(TrainingDivergedWarning):
            report = estimate_delta(cfg)
    assert 1 <= report.excluded_rounds <= 4
    # outer round 1 kept no pair: it has no delta, and no comparison counts
    assert report.delta_per_outer[1] is None
    assert report.total_comparisons == 32


def test_adjacent_pair_modes(small_blobs):
    ds = small_blobs
    rng = tagged_stream(0, ADJACENCY_TAG)
    removed = _adjacent_pair(ds, "remove", rng)
    assert removed.size == ds.size - 1

    null = _adjacent_pair(ds, "null", rng)
    assert np.array_equal(null.features, ds.features)
    assert np.array_equal(null.labels, ds.labels)

    rep = _adjacent_pair(ds, "replace", rng)
    assert rep.size == ds.size
    diff = np.flatnonzero(np.any(rep.features != ds.features, axis=1))
    assert diff.shape == (1,)
    j = diff[0]
    # the new record is a copy of some other original record
    matches = np.flatnonzero(np.all(ds.features == rep.features[j], axis=1))
    assert matches.size == 1 and matches[0] != j


def test_audit_config_validation(small_blobs):
    # each failing rule at its field, in field order; batch takes training's
    # place. A replace neighbour copies a second record over the drawn one
    one = Dataset(small_blobs.features[:1], small_blobs.labels[:1])
    for over, fields in [
        ({"epsilon": 0.0}, [("epsilon", "must be positive")]),
        ({"outer_rounds": 0}, [("outer_rounds", "must be >= 1")]),
        ({"inner_rounds": 0}, [("inner_rounds", "must be >= 1")]),
        ({"adjacency": "swap"}, [("adjacency", "must be one of ['null', 'remove', 'replace']")]),
        ({"training": small_training(batch=17)}, [("batch", "exceeds dataset size 16")]),
        ({"training": small_training(batch=16), "adjacency": "remove"},
         [("batch", "exceeds dataset size 16 less the dropped record")]),
        ({"epsilon": -1.0, "training": small_training(batch=17), "adjacency": "swap"},
         [("epsilon", "must be positive"), ("batch", "exceeds dataset size 16"),
          ("adjacency", "must be one of ['null', 'remove', 'replace']")]),
        ({"dataset": one, "training": small_training(batch=1)},
         [("adjacency", "replace needs a dataset of at least 2 records")]),
    ]:
        with pytest.raises(FieldErrors) as exc:
            small_config(small_blobs, **over)
        assert list(exc.value.fields) == fields
    # a full-size batch fits when both arms keep every record
    small_config(small_blobs, small_training(batch=16))


def test_audit_json_roundtrip(tmp_path, small_blobs):
    report = estimate_delta(small_config(small_blobs, outer_rounds=1, inner_rounds=1))
    path = tmp_path / "audit.json"
    write_audit_json(report, path)
    with open(path) as fh:
        doc = json.load(fh)
    want = dataclasses.asdict(report)
    assert doc == {k: list(v) if isinstance(v, tuple) else v for k, v in want.items()}
    assert doc["total_comparisons"] == small_blobs.size
    assert math.isfinite(doc["worst_loss"])


def test_membership_null_control_has_zero_gap(small_blobs):
    report = membership_experiment(
        small_membership(small_blobs, 0, 3, AnisotropicPerParam(0.5), null_control=True))
    assert np.array_equal(report.losses_with, report.losses_without)
    assert report.mean_gap == 0.0


def test_membership_losses_match_per_run_training(small_blobs):
    scheme, training = AnisotropicPerParam(0.5), small_training(batch=7)
    report = membership_experiment(small_membership(small_blobs, 3, 2, scheme, training))
    x, y = small_blobs.features[3], int(small_blobs.labels[3])
    arms = ((small_blobs, report.losses_with),
            (make_adjacent(small_blobs, 3, "remove"), report.losses_without))
    for ds, losses in arms:
        for r, got in enumerate(losses):
            model, _ = train([ds], [derive_seed(9, r)], scheme, training)
            assert got == loss_and_grad(model, x, [y])[0][0]


def test_membership_arms_differ_without_control(small_blobs):
    report = membership_experiment(small_membership(small_blobs, 0, 3, AnisotropicPerParam(0.5)))
    assert not np.array_equal(report.losses_with, report.losses_without)
    assert report.mean_gap >= 0.0
    assert np.all(np.isfinite(report.losses_with))
    assert np.all(np.isfinite(report.losses_without))


def test_membership_csv_layout(tmp_path, capsys, small_blobs):
    report = membership_experiment(
        small_membership(small_blobs, 2, 4, NO_NOISE, small_training(iters=20), seed=1))
    # the same experiment through the CLI, which writes both output files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "output_dir": "out",
        "experiment": {
            "kind": "membership", "target_index": 2, "runs": 4,
            "scheme": {"kind": "none"},
            "dataset": {"synth": {"classes": 2, "per_class": 8, "dim": 2,
                                  "separation": 2.0, "seed": 3}},
            "lr": 0.5, "iters": 20, "batch": 8, "hidden": 4,
        },
    }))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "membership_hist.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["run", "arm", "loss_on_target"]
    body = rows[1:]
    assert len(body) == 8
    assert [r[1] for r in body] == ["D"] * 4 + ["Dprime"] * 4
    got_with = np.array([float(r[2]) for r in body[:4]])
    assert np.array_equal(got_with, report.losses_with)
    got_without = np.array([float(r[2]) for r in body[4:]])
    assert np.array_equal(got_without, report.losses_without)

    doc = json.loads((tmp_path / "out" / "membership_report.json").read_text())
    assert doc["runs"] == 4
    assert doc["mean_gap"] == report.mean_gap


def test_membership_validation(small_blobs):
    # each failing rule at its field, in field order; batch takes training's place
    for args, over, fields in [
        ((0, 0), {}, [("runs", "must be >= 1")]),
        ((-1, 2), {}, [("target_index", "must be >= 0")]),
        ((16, 2), {}, [("target_index", "outside dataset of size 16")]),
        ((0, 2), {"training": small_training(batch=16)},
         [("batch", "exceeds dataset size 16 less the dropped record")]),
        ((0, 2), {"training": small_training(batch=17), "null_control": True},
         [("batch", "exceeds dataset size 16")]),
        ((16, 0), {"training": small_training(batch=16)},
         [("target_index", "outside dataset of size 16"), ("runs", "must be >= 1"),
          ("batch", "exceeds dataset size 16 less the dropped record")]),
    ]:
        with pytest.raises(FieldErrors) as exc:
            small_membership(small_blobs, *args, NO_NOISE, **over)
        assert list(exc.value.fields) == fields
    # the null control keeps every record in both arms, so a full-size batch fits
    small_membership(small_blobs, 15, 1, NO_NOISE, small_training(batch=16), null_control=True)
    # noise this large leaves non-finite parameters, so the target losses are nan
    cfg = small_membership(small_blobs, 0, 2, IsotropicPerLayer(1e300), small_training(iters=5))
    with np.errstate(all="ignore"), pytest.raises(AnisoError) as exc:
        membership_experiment(cfg)
    assert exc.value.operation == "membership_experiment"
