"""Config-driven command line: run / validate / version.

Configs are JSON documents shaped as

    {"schema_version": 1, "seed": 7, "output_dir": "out",
     "experiment": {"kind": "<experiment>", ...parameters...}}

Relative paths (output_dir, dataset CSVs) resolve against the config file's
directory, and no subcommand writes outside output_dir. `run` emits the
experiment's files plus a manifest.json recording the semantic-config hash,
seed, and versions; reruns of an identical config are byte-identical except
the manifest's "timestamp" object. Exit codes: 0 success, 1 invalid config,
2 numerical failure (the error JSON names the offending operation).

Each kind's parser builds every library object its run(outdir) closure uses,
so a constructor's ValueError (a noise covariance that is not positive
definite, say) is exit 1 at the field's path; the closure only computes and writes.

This module owns the output format: every file goes through _write_csv
(floats at 17 significant digits) or _write_json (indent 2). Neither writes a
number that is not finite; instead it writes nothing and raises AnisoError
with operation "write", so the run exits 2 and no manifest is written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .audit import AuditConfig, estimate_delta, membership_experiment
from .bounds import (
    GaussianScore,
    RegularityParams,
    klbound_closed,
    klbound_stationary,
    lsi_constant,
    lsi_rate,
    mc_kl_bound,
)
from .errors import AnisoError
from .linalg import SpdMatrix
from .models import (
    AnisotropicPerParam,
    IsotropicPerLayer,
    NO_NOISE,
    read_dataset_csv,
    synth_blobs,
)
from .ou import QuadraticProblem, exact_state, gaussian_kl
from .sde import ConstantSpd, QuadraticDrift, SimConfig, simulate
from .tradeoff import GradientGap, grid_surface, optimal_diag_cov, quadratic_tradeoff
from .privacy import (
    ConcentrationParams,
    delta_from_eps,
    eps_from_delta,
    membership_advantage,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# output files: every run writes through _write_csv and _write_json


def _not_written(path, detail):
    return AnisoError(f"{os.path.basename(path)} was not written: {detail}",
                      operation="write")


def _csv_cell(v, path):
    if isinstance(v, (int, str)):
        return v
    v = float(v)
    if not math.isfinite(v):
        raise _not_written(path, f"it would hold {v}, which is not finite")
    return f"{v:.17g}"


def _write_csv(path, header, rows) -> None:
    """header, then rows: floats at 17 significant digits, which round-trip
    through float(); ints and strings as they are. Raises AnisoError
    (operation write), and writes nothing, when a number is not finite."""
    body = [[_csv_cell(v, path) for v in row] for row in rows]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(body)


def _json_text(doc) -> str:
    """doc as JSON with indent 2; ValueError when a number in it is not finite."""
    return json.dumps(doc, indent=2, allow_nan=False)


def _write_json(path, doc) -> None:
    """doc as JSON with indent 2. Raises AnisoError (operation write), and
    writes nothing, when a number in doc is not finite."""
    try:
        text = _json_text(doc)
    except ValueError as exc:
        raise _not_written(path, str(exc)) from None
    with open(path, "w") as fh:
        fh.write(text)


# The three writers perfbench's tracer wraps by name; the path comes second.


def write_bound_csv(curve, path) -> None:
    _write_csv(path, ["time", "bound"], zip(curve.times, curve.bounds))


def write_grid_csv(rows, path, *, header) -> None:
    _write_csv(path, header, rows)


def write_audit_json(report, path) -> None:
    _write_json(path, dataclasses.asdict(report))


# ---------------------------------------------------------------------------
# schema helpers: every checker appends {"path", "message"} dicts to errs


def _err(errs, path, message):
    errs.append({"path": path, "message": message})


def _built(errs, path, make, *args, **kw):
    """make(*args, **kw), or None after recording its ValueError at path (once:
    a defaulted design_prime repeats the design's error). None, without a call,
    when an argument is None, as its error is recorded already."""
    if any(a is None for a in (*args, *kw.values())):
        return None
    try:
        return make(*args, **kw)
    except ValueError as exc:
        if {"path": path, "message": str(exc)} not in errs:
            _err(errs, path, str(exc))
        return None


def _reject_unknown(obj, allowed, path, errs):
    for key in obj:
        if key not in allowed:
            _err(errs, f"{path}.{key}", "unknown key")


def _finite(x):
    """x is a finite number; bools do not count, nor ints beyond the float range."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _get(obj, key, path, errs, *, required=True, default=None):
    """obj[key]; a key set to null counts as missing."""
    if obj.get(key) is None:
        if required:
            _err(errs, f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _number(obj, key, path, errs, *, positive=False, nonneg=False):
    v = _get(obj, key, path, errs)
    if v is None:
        return None
    if not _finite(v):
        _err(errs, f"{path}.{key}", "must be a finite number")
        return None
    if positive and not v > 0:
        _err(errs, f"{path}.{key}", "must be positive")
        return None
    if nonneg and v < 0:
        _err(errs, f"{path}.{key}", "must be nonnegative")
        return None
    return float(v)


def _integer(obj, key, path, errs, *, required=True, default=None, minimum=None):
    v = _get(obj, key, path, errs, required=required, default=None)
    if v is None:
        return default
    if isinstance(v, bool) or not isinstance(v, int):
        _err(errs, f"{path}.{key}", "must be an integer")
        return default
    if minimum is not None and v < minimum:
        _err(errs, f"{path}.{key}", f"must be >= {minimum}")
        return default
    return v


def _string(obj, key, path, errs, *, required=True, default=None, choices=None):
    v = _get(obj, key, path, errs, required=required, default=None)
    if v is None:
        return default
    if not isinstance(v, str):
        _err(errs, f"{path}.{key}", "must be a string")
        return default
    if choices is not None and v not in choices:
        _err(errs, f"{path}.{key}", f"must be one of {sorted(choices)}")
        return default
    return v


def _boolean(obj, key, path, errs, *, default=False):
    v = _get(obj, key, path, errs, required=False, default=None)
    if v is None:
        return default
    if not isinstance(v, bool):
        _err(errs, f"{path}.{key}", "must be a boolean")
        return default
    return v


def _vector(obj, key, path, errs, *, required=True, default=None, length=None,
            positive=False, nonneg=False):
    v = _get(obj, key, path, errs, required=required, default=None)
    if v is None:
        return default
    if not (isinstance(v, list) and v and all(_finite(x) for x in v)):
        _err(errs, f"{path}.{key}", "must be a nonempty list of finite numbers")
        return None
    if length is not None and len(v) != length:
        _err(errs, f"{path}.{key}", f"must have length {length}")
        return None
    if positive and any(x <= 0 for x in v):
        _err(errs, f"{path}.{key}", "entries must be positive")
        return None
    if nonneg and any(x < 0 for x in v):
        _err(errs, f"{path}.{key}", "entries must be nonnegative")
        return None
    return np.asarray(v, dtype=float)


def _matrix(obj, key, path, errs, *, required=True):
    v = _get(obj, key, path, errs, required=required, default=None)
    if v is None:
        return None
    ok = (
        isinstance(v, list) and v and all(isinstance(r, list) and r for r in v)
        and len({len(r) for r in v}) == 1
        and all(_finite(x) for r in v for x in r)
    )
    if not ok:
        _err(errs, f"{path}.{key}", "must be a rectangular matrix of finite numbers")
        return None
    return np.asarray(v, dtype=float)


def _time_value(obj, key, path, errs):
    v = _get(obj, key, path, errs)
    if v is None:
        return None
    if v == "inf":
        return math.inf
    if not _finite(v) or v < 0:
        _err(errs, f"{path}.{key}", 'must be a nonnegative number or "inf"')
        return None
    return float(v)


def _cov_matrix(p, errs, dim):
    """The SpdMatrix of `sigma` (full matrix) or `sigma_diag` (positive diagonal)."""
    has_full, has_diag = p.get("sigma") is not None, p.get("sigma_diag") is not None
    if has_full and has_diag:
        _err(errs, "experiment.sigma", "give either sigma or sigma_diag, not both")
        return None
    if not has_full and not has_diag:
        _err(errs, "experiment.sigma", "missing: provide sigma or sigma_diag")
        return None
    if has_diag:
        d = _vector(p, "sigma_diag", "experiment", errs, length=dim, positive=True)
        return _built(errs, "experiment.sigma_diag", SpdMatrix, None if d is None else np.diag(d))
    m = _matrix(p, "sigma", "experiment", errs)
    if m is not None and (m.shape[0] != m.shape[1] or (dim is not None and m.shape[0] != dim)):
        _err(errs, "experiment.sigma", "must be square" + (f" with dimension {dim}" if dim else ""))
        return None
    return _built(errs, "experiment.sigma", SpdMatrix, m)


def _problems(p, errs, *, primed, dim=None):
    """x0 and (design path, design, target) of a quadratic problem and, when
    primed, of its partner, whose design_prime (path and all) defaults to
    design. Each design needs one row per target entry and one column per x0
    entry, and dim fixes the length of x0; where a rule fails, design is None.
    Building a QuadraticProblem at the design path checks its rank."""
    design = _matrix(p, "design", "experiment", errs)
    pairs = [("design", design, "target", _vector(p, "target", "experiment", errs))]
    if primed:
        design_p = _matrix(p, "design_prime", "experiment", errs, required=False)
        given = p.get("design_prime") is not None
        pairs.append(("design_prime" if given else "design", design_p if given else design,
                      "target_prime", _vector(p, "target_prime", "experiment", errs)))
    x0 = _vector(p, "x0", "experiment", errs, length=dim)
    cols = dim if x0 is None else x0.shape[0]
    bad = set()
    for b_key, b, y_key, y in pairs:
        if b is not None and y is not None and y.shape[0] != b.shape[0]:
            _err(errs, f"experiment.{y_key}", f"length must match {b_key} rows")
            bad.add(y_key)
    for b_key, b in {b_key: b for b_key, b, _, _ in pairs}.items():
        if b is not None and cols is not None and b.shape[1] != cols:
            _err(errs, f"experiment.{b_key}", f"must have {cols} columns")
            bad.add(b_key)
    return x0, [(f"experiment.{b_key}", None if bad & {b_key, y_key} else b, y)
                for b_key, b, y_key, y in pairs]


def _sim_config(p, errs, seed):
    step = _number(p, "step", "experiment", errs, positive=True)
    horizon = _number(p, "horizon", "experiment", errs, positive=True)
    paths = _integer(p, "paths", "experiment", errs, minimum=1)
    stride = _integer(p, "record_stride", "experiment", errs, required=False,
                      default=1, minimum=1)
    # the stride goes in second, so that its rule's error lands on its own field
    cfg = _built(errs, "experiment.horizon", SimConfig, step, horizon, paths, seed)
    return _built(errs, "experiment.record_stride", dataclasses.replace, cfg,
                  record_stride=stride)


# ---------------------------------------------------------------------------
# dataset and noise-scheme sub-schemas (dp-audit, membership)


def _check_scheme(p, path, errs):
    sch = _get(p, "scheme", path, errs)
    if sch is None:
        return None
    if not isinstance(sch, dict):
        _err(errs, f"{path}.scheme", "must be an object")
        return None
    _reject_unknown(sch, {"kind", "sigma2"}, f"{path}.scheme", errs)
    kind = _string(sch, "kind", f"{path}.scheme", errs,
                   choices={"none", "isotropic-layer", "anisotropic-param"})
    if kind == "none":
        if "sigma2" in sch:
            _err(errs, f"{path}.scheme.sigma2", 'not allowed when kind is "none"')
        return NO_NOISE
    sigma2 = _number(sch, "sigma2", f"{path}.scheme", errs, nonneg=True)
    if kind is None or sigma2 is None:
        return None
    return IsotropicPerLayer(sigma2) if kind == "isotropic-layer" else AnisotropicPerParam(sigma2)


def _check_dataset(p, path, errs, base_dir):
    """The Dataset, read from a CSV file or drawn by synth_blobs."""
    ds = _get(p, "dataset", path, errs)
    if ds is None:
        return None
    if not isinstance(ds, dict):
        _err(errs, f"{path}.dataset", "must be an object")
        return None
    _reject_unknown(ds, {"csv", "synth"}, f"{path}.dataset", errs)
    if ("csv" in ds) == ("synth" in ds):
        _err(errs, f"{path}.dataset", "provide exactly one of csv or synth")
        return None
    if "csv" in ds:
        rel = _string(ds, "csv", f"{path}.dataset", errs)
        if rel is None:
            return None
        full = os.path.join(base_dir, rel)
        if not os.path.isfile(full):
            _err(errs, f"{path}.dataset.csv", f"file not found: {rel}")
            return None
        return _built(errs, f"{path}.dataset.csv", read_dataset_csv, full)
    sub = ds["synth"]
    spath = f"{path}.dataset.synth"
    if not isinstance(sub, dict):
        _err(errs, spath, "must be an object")
        return None
    _reject_unknown(sub, {"classes", "per_class", "dim", "separation", "seed"}, spath, errs)
    classes = _integer(sub, "classes", spath, errs, minimum=2)
    per_class = _integer(sub, "per_class", spath, errs, minimum=1)
    dim = _integer(sub, "dim", spath, errs, minimum=1)
    separation = _number(sub, "separation", spath, errs, nonneg=True)
    seed = _integer(sub, "seed", spath, errs, minimum=0)
    return _built(errs, f"{spath}.dim", synth_blobs, classes, per_class, dim, separation, seed)


def _check_training(p, errs, base_dir, drops_record=False):
    """Noise scheme, dataset and training keywords of dp-audit and membership.
    drops_record: one arm trains on the dataset less one record."""
    scheme = _check_scheme(p, "experiment", errs)
    dataset = _check_dataset(p, "experiment", errs, base_dir)
    train = {
        "lr": _number(p, "lr", "experiment", errs, positive=True),
        "iters": _integer(p, "iters", "experiment", errs, minimum=1),
        "batch": _integer(p, "batch", "experiment", errs, minimum=1),
        "hidden": _integer(p, "hidden", "experiment", errs, minimum=1),
        "activation": _string(p, "activation", "experiment", errs, required=False,
                              default="relu", choices={"relu", "tanh"}),
        "noise_on": _string(p, "noise_on", "experiment", errs, required=False,
                            default="step", choices={"step", "full"}),
    }
    batch = train["batch"]
    if batch is not None and dataset is not None and batch > dataset.size - drops_record:
        _err(errs, "experiment.batch", f"exceeds dataset size {dataset.size}"
             + (" less the dropped record" if drops_record else ""))
    return scheme, dataset, train


# ---------------------------------------------------------------------------
# per-experiment parsers: each checks and converts its fields once and returns
# the derived-quantity names and run(outdir), called only if errs stays empty


_TRAIN_KEYS = {"lr", "iters", "batch", "hidden", "activation", "noise_on", "scheme",
               "dataset"}


def _simulate(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "design", "target", "sigma", "sigma_diag", "x0",
                        "step", "horizon", "paths", "record_stride"}, "experiment", errs)
    x0, [(path, design, target)] = _problems(p, errs, primed=False)
    sigma = _cov_matrix(p, errs, None if x0 is None else x0.shape[0])
    cfg = _sim_config(p, errs, seed)
    cov = _built(errs, "experiment.sigma", ConstantSpd, sigma)
    drift = _built(errs, path, QuadraticDrift, design, target)

    def run(outdir):
        ens = simulate(drift, cov, x0, cfg)
        _write_csv(os.path.join(outdir, "ensemble.csv"),
                   ["path", "time", *[f"x{i}" for i in range(ens.dim)]],
                   ([p, t, *ens.states[p, j]] for p in range(ens.paths)
                    for j, t in enumerate(ens.times)))

    return ["trajectory ensemble (ensemble.csv)"], run


def _ou_exact(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "design", "target", "sigma", "sigma_diag", "x0",
                        "v0_diag", "time"}, "experiment", errs)
    x0, [(path, design, target)] = _problems(p, errs, primed=False)
    dim = None if x0 is None else x0.shape[0]
    sigma = _cov_matrix(p, errs, dim)
    v0_diag = _vector(p, "v0_diag", "experiment", errs, required=False, length=dim,
                      nonneg=True)
    v0 = None if v0_diag is None else _built(errs, "experiment.v0_diag", SpdMatrix,
                                             np.diag(v0_diag), allow_semidefinite=True)
    t = _time_value(p, "time", "experiment", errs)
    problem = _built(errs, path, functools.partial(QuadraticProblem, v0=v0),
                     design, target, sigma, x0)

    def run(outdir):
        state = exact_state(problem, t)
        doc = {
            "mean": [float(v) for v in state.mean],
            "cov": [[float(v) for v in row] for row in state.cov.entries],
            "time": "inf" if math.isinf(state.time) else state.time,
        }
        _write_json(os.path.join(outdir, "gaussian_state.json"), doc)

    return ["time-t Gaussian mean", "time-t Gaussian covariance (closed form)",
            "gaussian_state.json"], run


def _kl_bound(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "design", "target", "design_prime", "target_prime",
                        "sigma", "sigma_diag", "sigma_prime", "x0", "step", "horizon",
                        "paths", "record_stride"}, "experiment", errs)
    x0, pairs = _problems(p, errs, primed=True)
    dim = None if x0 is None else x0.shape[0]
    sigma = _cov_matrix(p, errs, dim)
    sigma_p = _matrix(p, "sigma_prime", "experiment", errs, required=False)
    if sigma_p is not None and dim is not None and sigma_p.shape != (dim, dim):
        _err(errs, "experiment.sigma_prime", f"must be {dim}x{dim}")
        sigma_p = None
    sigma_p = _built(errs, "experiment.sigma_prime", SpdMatrix, sigma_p)
    unequal = None not in (sigma, sigma_p) and not np.array_equal(sigma_p.entries, sigma.entries)
    sigma_b = sigma_p if unequal else sigma
    cfg = _sim_config(p, errs, seed)
    cov_a = _built(errs, "experiment.sigma", ConstantSpd, sigma)
    cov_b = _built(errs, "experiment.sigma_prime", ConstantSpd, sigma_b) if unequal else cov_a
    prob_a, prob_b = (_built(errs, path, QuadraticProblem, design, target, s, x0)
                      for (path, design, target), s in zip(pairs, (sigma, sigma_b)))
    score_at = ((lambda t: GaussianScore(exact_state(prob_b, max(t, cfg.step))))
                if unequal else None)

    def run(outdir):
        curve = mc_kl_bound(prob_a, prob_b, cov_a, cov_b, x0, cfg, score_at)
        write_bound_csv(curve, os.path.join(outdir, "bound_curve.csv"))
        kls = [gaussian_kl(exact_state(prob_a, float(t)), exact_state(prob_b, float(t)))
               if t > 0.0 else 0.0 for t in curve.times]
        _write_csv(os.path.join(outdir, "exact_kl.csv"), ["time", "kl"], zip(curve.times, kls))

    return ["Monte-Carlo KL bound curve (bound_curve.csv)",
            "exact Gaussian KL curve (exact_kl.csv)",
            "score-corrected mismatch (unequal diffusions)" if unequal
            else "drift-gap mismatch (shared diffusion)"], run


def _closed_bounds_doc(rp, times):
    """closed_bounds.json's document. Raises ArithmeticError or ValueError when
    a closed form overflows, divides by zero or is not finite."""
    rho = lsi_rate(rp.sigma, rp.kappa)
    doc = {
        "klbound": klbound_closed(rp),
        "klbound_stationary_start": klbound_closed(rp, stationary_limit=True),
        "klbound_stationary": klbound_stationary(rp),
        "lsi": {
            "rho": rho,
            "curve": [[float(t), lsi_constant(float(t), rho, rp.lsi0)] for t in times],
        },
    }
    _json_text(doc)  # raises the ValueError when a value is not finite
    return doc


def _closed_bounds(p, errs, base_dir, seed):
    n_errs = len(errs)
    _reject_unknown(p, {"kind", "kappa", "grad_lip", "kappa_prime", "grad_lip_prime",
                        "sigma", "sigma_prime", "lsi0", "xstar", "xstar_prime",
                        "times"}, "experiment", errs)
    scalars = {key: _number(p, key, "experiment", errs, positive=True)
               for key in ("kappa", "grad_lip", "kappa_prime", "grad_lip_prime",
                           "sigma", "sigma_prime", "lsi0")}
    xs = _vector(p, "xstar", "experiment", errs)
    xsp = _vector(p, "xstar_prime", "experiment", errs)
    if xs is not None and xsp is not None and xs.shape != xsp.shape:
        _err(errs, "experiment.xstar_prime", "length must match xstar")
    for kappa, lip in (("kappa", "grad_lip"), ("kappa_prime", "grad_lip_prime")):
        if None not in (scalars[kappa], scalars[lip]) and scalars[kappa] > scalars[lip]:
            _err(errs, f"experiment.{kappa}", f"cannot exceed {lip}")
    times = _vector(p, "times", "experiment", errs, required=False,
                    default=[0.0, 1.0, 10.0, 100.0], nonneg=True)
    doc = None
    if len(errs) == n_errs:
        try:
            rp = RegularityParams(**scalars, xstar=xs, xstar_prime=xsp)
            doc = _closed_bounds_doc(rp, times)
        except (ArithmeticError, ValueError) as exc:
            # blame the value farthest from 1 in scale, the likeliest cause
            scale = {k: abs(math.log(v)) for k, v in scalars.items()}
            scale["xstar_prime"] = math.log(max(1.0, np.abs(xsp - xs).max(initial=0.0)))
            key = max(scale, key=scale.get)
            _err(errs, f"experiment.{key}", "the closed-form bounds are not finite at "
                 f"these values, and this is the most extreme one ({exc})")

    def run(outdir):
        _write_json(os.path.join(outdir, "closed_bounds.json"), doc)

    return ["time-uniform KL bound", "time-uniform KL bound (stationary-start variant)",
            "stationary KL bound", "log-Sobolev constant curve"], run


def _optimize_cov(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "gaps", "zetas"}, "experiment", errs)
    gaps = _vector(p, "gaps", "experiment", errs, nonneg=True)
    zetas = _vector(p, "zetas", "experiment", errs, positive=True)
    if gaps is not None and not any(g > 0 for g in gaps):
        _err(errs, "experiment.gaps", "at least one entry must be positive")
    gap = _built(errs, "experiment.gaps", GradientGap, gaps)

    def run(outdir):
        points = [optimal_diag_cov(gap, float(z)) for z in zetas]
        _write_csv(os.path.join(outdir, "optimal_cov.csv"),
                   ["zeta", *[f"sigma{i}" for i in range(gap.dim)], "kl_term"],
                   ([z, *pt.diag_sigma, pt.kl_term] for z, pt in zip(zetas, points)))

    return ["optimal diagonal covariance per zeta", "kl_term at each optimum",
            "optimal_cov.csv"], run


def _range_pair(p, key, errs):
    v = _get(p, key, "experiment", errs)
    if v is None:
        return None
    if not (isinstance(v, list) and len(v) == 2 and all(_finite(x) for x in v)
            and 0 < v[0] < v[1]):
        _err(errs, f"experiment.{key}", "must be [lo, hi] with 0 < lo < hi")
        return None
    return (float(v[0]), float(v[1]))


def _grid_surface(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "gaps", "x_range", "y_range", "resolution"},
                    "experiment", errs)
    gaps = _vector(p, "gaps", "experiment", errs, length=2, nonneg=True)
    x_range = _range_pair(p, "x_range", errs)
    y_range = _range_pair(p, "y_range", errs)
    resolution = _integer(p, "resolution", "experiment", errs, minimum=2)
    if gaps is not None and not any(g > 0 for g in gaps):
        _err(errs, "experiment.gaps", "at least one entry must be positive")
    gap = _built(errs, "experiment.gaps", GradientGap, gaps)

    def run(outdir):
        rows = grid_surface(gap, x_range, y_range, resolution)
        write_grid_csv(rows, os.path.join(outdir, "grid.csv"),
                       header=("x", "y", "kl_term", "trace"))

    return ["kl_term surface over the noise grid", "trace surface", "grid.csv"], run


def _quad_tradeoff(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "design", "target", "design_prime", "target_prime",
                        "x0", "time", "x_range", "y_range", "resolution"},
                    "experiment", errs)
    x0, pairs = _problems(p, errs, primed=True, dim=2)
    t = _time_value(p, "time", "experiment", errs)
    if t == 0.0:
        _err(errs, "experiment.time", 'must be positive or "inf"')
    x_range = _range_pair(p, "x_range", errs)
    y_range = _range_pair(p, "y_range", errs)
    resolution = _integer(p, "resolution", "experiment", errs, minimum=2)
    placeholder = SpdMatrix.identity(2)  # quadratic_tradeoff sets the noise per grid point
    pa, pb = (_built(errs, path, QuadraticProblem, design, target, placeholder, x0)
              for path, design, target in pairs)

    def run(outdir):
        rows = quadratic_tradeoff(pa, pb, t, x_range, y_range, resolution)
        write_grid_csv(rows, os.path.join(outdir, "tradeoff.csv"),
                       header=("x", "y", "exact_kl", "error"))

    return ["exact KL over the noise grid", "accumulated-noise error over the grid",
            "tradeoff.csv"], run


def _dp_audit(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "epsilon", "outer_rounds", "inner_rounds",
                        "adjacency", *_TRAIN_KEYS}, "experiment", errs)
    epsilon = _number(p, "epsilon", "experiment", errs, positive=True)
    outer = _integer(p, "outer_rounds", "experiment", errs, minimum=1)
    inner = _integer(p, "inner_rounds", "experiment", errs, minimum=1)
    adjacency = _string(p, "adjacency", "experiment", errs, required=False,
                        default="replace", choices={"replace", "remove", "null"})
    scheme, dataset, train = _check_training(p, errs, base_dir,
                                             drops_record=adjacency == "remove")
    cfg = _built(errs, "experiment", AuditConfig, epsilon=epsilon, outer_rounds=outer,
                 inner_rounds=inner, scheme=scheme, dataset=dataset, adjacency=adjacency,
                 seed=seed, **train)

    def run(outdir):
        write_audit_json(estimate_delta(cfg), os.path.join(outdir, "audit_report.json"))

    return ["empirical delta (max over outer rounds)", "per-outer-round deltas",
            "worst training loss", "audit_report.json"], run


def _membership(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "target_index", "runs", "null_control", *_TRAIN_KEYS},
                    "experiment", errs)
    target = _integer(p, "target_index", "experiment", errs, minimum=0)
    runs = _integer(p, "runs", "experiment", errs, minimum=1)
    null_control = _boolean(p, "null_control", "experiment", errs)
    scheme, dataset, train = _check_training(p, errs, base_dir,
                                             drops_record=not null_control)
    if target is not None and dataset is not None and target >= dataset.size:
        _err(errs, "experiment.target_index", f"outside dataset of size {dataset.size}")

    def run(outdir):
        report = membership_experiment(dataset, target, runs, scheme, seed=seed,
                                       null_control=null_control, **train)
        arms = (("D", report.losses_with), ("Dprime", report.losses_without))
        _write_csv(os.path.join(outdir, "membership_hist.csv"), ["run", "arm", "loss_on_target"],
                   ([r, arm, v] for arm, losses in arms for r, v in enumerate(losses)))
        _write_json(os.path.join(outdir, "membership_report.json"), {
            "mean_gap": report.mean_gap,
            "worst_loss": report.worst_loss,
            "mean_loss_with": float(report.losses_with.mean()),
            "mean_loss_without": float(report.losses_without.mean()),
            "runs": runs,
        })

    return ["per-run target losses, both arms (membership_hist.csv)",
            "mean loss gap", "worst training loss", "membership_report.json"], run


def _privacy_translate(p, errs, base_dir, seed):
    _reject_unknown(p, {"kind", "kl", "lsi_const", "lip", "eps", "delta"},
                    "experiment", errs)
    kl = _number(p, "kl", "experiment", errs, nonneg=True)
    lsi_const = _number(p, "lsi_const", "experiment", errs, positive=True)
    lip = _number(p, "lip", "experiment", errs, positive=True)
    eps = _vector(p, "eps", "experiment", errs, required=False, default=[], positive=True)
    delta = _get(p, "delta", "experiment", errs, required=False)
    if delta is not None and not (
            isinstance(delta, list) and delta and all(_finite(x) and 0 < x < 1 for x in delta)):
        _err(errs, "experiment.delta", "must be a list of numbers in (0, 1)")
    cp = _built(errs, "experiment", ConcentrationParams, lsi_const=lsi_const, lip=lip, kl=kl)

    def run(outdir):
        doc = {
            "membership_advantage": membership_advantage(kl),
            "delta_from_eps": [[float(e), delta_from_eps(float(e), cp)] for e in eps],
            "eps_from_delta": [[float(d), eps_from_delta(float(d), cp)] for d in delta or ()],
        }
        _write_json(os.path.join(outdir, "privacy.json"), doc)

    return ["membership advantage from KL", "delta at each eps", "eps at each delta",
            "privacy.json"], run


_PARSERS = {
    "simulate": _simulate, "ou-exact": _ou_exact, "kl-bound": _kl_bound,
    "closed-bounds": _closed_bounds, "optimize-cov": _optimize_cov,
    "grid-surface": _grid_surface, "quad-tradeoff": _quad_tradeoff,
    "dp-audit": _dp_audit, "membership": _membership,
    "privacy-translate": _privacy_translate,
}


# ---------------------------------------------------------------------------
# top-level config handling


class _Config(NamedTuple):
    kind: str
    seed: int
    output_dir: str
    config_hash: str
    derived: list
    run: Callable[[str], None]


def _validate_document(doc, base_dir, errs):
    """Parse a config document, recording every problem in errs; the _Config
    it returns is complete only when errs stays empty."""
    if not isinstance(doc, dict):
        _err(errs, "", "config must be a JSON object")
        return None
    _reject_unknown(doc, {"schema_version", "seed", "output_dir", "experiment"}, "$", errs)
    sv = _get(doc, "schema_version", "$", errs, required=False, default=SCHEMA_VERSION)
    if sv != SCHEMA_VERSION:
        _err(errs, "$.schema_version", f"unsupported schema version {sv!r}")
    seed = _get(doc, "seed", "$", errs, required=False, default=0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed < 2**64):
        _err(errs, "$.seed", "must be an unsigned 64-bit integer")
        seed = 0  # a stand-in, so that the experiment's own checks still run
    out = _get(doc, "output_dir", "$", errs, required=False, default="out")
    if isinstance(out, str) and out:
        out = os.path.join(base_dir, out)
    else:
        _err(errs, "$.output_dir", "must be a nonempty string")
    exp = _get(doc, "experiment", "$", errs)
    if exp is None:
        return None
    if not isinstance(exp, dict):
        _err(errs, "experiment", "must be an object")
        return None
    kind = _string(exp, "kind", "experiment", errs, choices=set(_PARSERS))
    if kind is None:
        return None
    derived, run = _PARSERS[kind](exp, errs, base_dir, seed)
    return _Config(kind, seed, out, _config_hash(seed, exp), derived, run)


def _config_hash(seed, exp) -> str:
    semantic = {"schema_version": SCHEMA_VERSION, "seed": seed, "experiment": exp}
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load(path):
    """The parsed config file at path, or None after reporting its errors."""
    errs: list = []
    cfg = None
    if not os.path.isfile(path):
        _err(errs, "$", f"config file not found: {path}")
    else:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            _err(errs, "$", f"invalid JSON: {exc}")
        else:
            cfg = _validate_document(doc, os.path.dirname(os.path.abspath(path)), errs)
    if errs:
        _emit({"ok": False, "errors": errs})
        return None
    return cfg


def _cmd_validate(path) -> int:
    cfg = _load(path)
    if cfg is None:
        return 1
    _emit({
        "ok": True,
        "experiment": cfg.kind,
        "config_hash": cfg.config_hash,
        "derived": cfg.derived,
    })
    return 0


def _cmd_run(path) -> int:
    cfg = _load(path)
    if cfg is None:
        return 1
    os.makedirs(cfg.output_dir, exist_ok=True)
    started = time.perf_counter()
    try:
        cfg.run(cfg.output_dir)
    except AnisoError as exc:
        _emit({"ok": False, "operation": exc.operation, "message": str(exc)})
        return 2
    manifest = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "experiment": cfg.kind,
        "versions": {
            "anisopriv": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "timestamp": {
            "utc": datetime.now(timezone.utc).isoformat(),
            "wall_clock_seconds": time.perf_counter() - started,
        },
    }
    _write_json(os.path.join(cfg.output_dir, "manifest.json"), manifest)
    _emit({"ok": True, "output_dir": cfg.output_dir, "experiment": cfg.kind,
           "config_hash": cfg.config_hash})
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="anisopriv",
        description="Privacy bounds and audits for anisotropically noised gradient flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a config and write its outputs")
    run_p.add_argument("config", help="JSON config path")
    val_p = sub.add_parser("validate", help="check a config without running it")
    val_p.add_argument("config", help="JSON config path")
    sub.add_parser("version", help="print the package version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0
    with np.errstate(all="ignore"):  # the writers refuse non-finite values; warnings add noise
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_run(args.config)


if __name__ == "__main__":
    sys.exit(main())
