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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .audit import (
    AuditConfig,
    audit_report_to_dict,
    estimate_delta,
    membership_experiment,
    membership_report_to_dict,
    write_audit_json,
    write_membership_csv,
)
from .bounds import (
    GaussianScore,
    RegularityParams,
    TimeVaryingScore,
    klbound_closed,
    klbound_stationary,
    lsi_constant,
    lsi_rate,
    mc_kl_bound,
    write_bound_csv,
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
from .ou import QuadraticProblem, _check_full_rank, exact_state, gaussian_kl
from .sde import ConstantSpd, QuadraticDrift, SimConfig, simulate, write_ensemble_csv
from .tradeoff import (
    GradientGap,
    grid_surface,
    kl_term,
    optimal_diag_cov,
    quadratic_tradeoff,
    write_grid_csv,
)
from .privacy import (
    ConcentrationParams,
    delta_from_eps,
    eps_from_delta,
    membership_advantage,
)

EXPERIMENT_KINDS = (
    "simulate", "ou-exact", "kl-bound", "closed-bounds", "optimize-cov",
    "grid-surface", "quad-tradeoff", "dp-audit", "membership", "privacy-translate",
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# schema helpers: every checker appends {"path", "message"} dicts to errs


def _err(errs, path, message):
    errs.append({"path": path, "message": message})


def _reject_unknown(obj, allowed, path, errs):
    for key in obj:
        if key not in allowed:
            _err(errs, f"{path}.{key}", "unknown key")


def _get(obj, key, path, errs, *, required=True, default=None):
    if key not in obj:
        if required:
            _err(errs, f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _number(obj, key, path, errs, *, required=True, default=None, positive=False,
            nonneg=False):
    v = _get(obj, key, path, errs, required=required, default=None)
    if v is None:
        return default
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        _err(errs, f"{path}.{key}", "must be a finite number")
        return default
    if positive and not v > 0:
        _err(errs, f"{path}.{key}", "must be positive")
        return default
    if nonneg and v < 0:
        _err(errs, f"{path}.{key}", "must be nonnegative")
        return default
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


def _vector(obj, key, path, errs, *, required=True, length=None, positive=False,
            nonneg=False):
    v = _get(obj, key, path, errs, required=required, default=None)
    if v is None:
        return None
    ok = isinstance(v, list) and v and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
        for x in v
    )
    if not ok:
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
        and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for r in v for x in r
        )
    )
    if not ok:
        _err(errs, f"{path}.{key}", "must be a rectangular matrix of finite numbers")
        return None
    return np.asarray(v, dtype=float)


def _full_rank_designs(errs, **designs):
    """Record an error for each given design whose Gram matrix is singular."""
    for key, b in designs.items():
        if b is not None:
            try:
                _check_full_rank(b)
            except ValueError as exc:
                _err(errs, f"experiment.{key}", str(exc))


def _time_value(obj, key, path, errs, *, required=True, default=None):
    v = _get(obj, key, path, errs, required=required, default=None)
    if v is None:
        return default
    if v == "inf":
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
        _err(errs, f"{path}.{key}", 'must be a nonnegative number or "inf"')
        return default
    return float(v)


def _cov_matrix(obj, path, errs, *, dim=None, key="sigma", diag_key="sigma_diag",
                required=True):
    """Either `sigma` (full matrix) or `sigma_diag` (positive diagonal)."""
    has_full, has_diag = key in obj, diag_key in obj
    if has_full and has_diag:
        _err(errs, f"{path}.{key}", f"give either {key} or {diag_key}, not both")
        return None
    if not has_full and not has_diag:
        if required:
            _err(errs, f"{path}.{key}", f"missing: provide {key} or {diag_key}")
        return None
    if has_diag:
        d = _vector(obj, diag_key, path, errs, length=dim, positive=True)
        return None if d is None else np.diag(d)
    m = _matrix(obj, key, path, errs)
    if m is None:
        return None
    if m.shape[0] != m.shape[1] or (dim is not None and m.shape[0] != dim):
        _err(errs, f"{path}.{key}", "must be square" + (f" with dimension {dim}" if dim else ""))
        return None
    return m


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
    ds = _get(p, "dataset", path, errs)
    if ds is None:
        return None, None
    if not isinstance(ds, dict):
        _err(errs, f"{path}.dataset", "must be an object")
        return None, None
    _reject_unknown(ds, {"csv", "synth"}, f"{path}.dataset", errs)
    if ("csv" in ds) == ("synth" in ds):
        _err(errs, f"{path}.dataset", "provide exactly one of csv or synth")
        return None, None
    if "csv" in ds:
        rel = _string(ds, "csv", f"{path}.dataset", errs)
        if rel is None:
            return None, None
        full = os.path.join(base_dir, rel)
        if not os.path.isfile(full):
            _err(errs, f"{path}.dataset.csv", f"file not found: {rel}")
            return None, None
        with open(full) as fh:
            size = sum(1 for _ in fh) - 1
        return ("csv", full), size
    sub = ds["synth"]
    spath = f"{path}.dataset.synth"
    if not isinstance(sub, dict):
        _err(errs, spath, "must be an object")
        return None, None
    _reject_unknown(sub, {"classes", "per_class", "dim", "separation", "seed"}, spath, errs)
    classes = _integer(sub, "classes", spath, errs, minimum=2)
    per_class = _integer(sub, "per_class", spath, errs, minimum=1)
    dim = _integer(sub, "dim", spath, errs, minimum=1)
    separation = _number(sub, "separation", spath, errs, nonneg=True)
    seed = _integer(sub, "seed", spath, errs, minimum=0)
    if None in (classes, per_class, dim, separation, seed):
        return None, None
    if dim < classes:
        _err(errs, f"{spath}.dim", "must be >= classes")
        return None, None
    spec = ("synth", (classes, per_class, dim, separation, seed))
    return spec, classes * per_class


def _load_dataset(spec):
    kind, payload = spec
    if kind == "csv":
        return read_dataset_csv(payload)
    return synth_blobs(*payload)


def _check_training(p, path, errs, dataset_size, drops_record=False):
    """drops_record: one arm trains on the dataset less one record."""
    lr = _number(p, "lr", path, errs, positive=True)
    iters = _integer(p, "iters", path, errs, minimum=1)
    batch = _integer(p, "batch", path, errs, minimum=1)
    hidden = _integer(p, "hidden", path, errs, minimum=1)
    _string(p, "activation", path, errs, required=False, default="relu",
            choices={"relu", "tanh"})
    _string(p, "noise_on", path, errs, required=False, default="step",
            choices={"step", "full"})
    if batch is not None and dataset_size is not None and batch > dataset_size - drops_record:
        _err(errs, f"{path}.batch", f"exceeds dataset size {dataset_size}"
             + (" less the dropped record" if drops_record else ""))
    return lr, iters, batch, hidden


# ---------------------------------------------------------------------------
# per-experiment validation; each returns the derived-quantity names


_TRAIN_KEYS = {"lr", "iters", "batch", "hidden", "activation", "noise_on", "scheme",
               "dataset"}


def _v_simulate(p, errs, base_dir):
    _reject_unknown(p, {"kind", "design", "target", "sigma", "sigma_diag", "x0",
                        "step", "horizon", "paths", "record_stride"}, "experiment", errs)
    design = _matrix(p, "design", "experiment", errs)
    target = _vector(p, "target", "experiment", errs)
    x0 = _vector(p, "x0", "experiment", errs)
    dim = x0.shape[0] if x0 is not None else None
    _cov_matrix(p, "experiment", errs, dim=dim)
    step = _number(p, "step", "experiment", errs, positive=True)
    horizon = _number(p, "horizon", "experiment", errs, positive=True)
    paths = _integer(p, "paths", "experiment", errs, minimum=1)
    stride = _integer(p, "record_stride", "experiment", errs, required=False,
                      default=1, minimum=1)
    if design is not None and target is not None and design.shape[0] != target.shape[0]:
        _err(errs, "experiment.target", "length must match design rows")
    if design is not None and dim is not None and design.shape[1] != dim:
        _err(errs, "experiment.x0", "length must match design columns")
    if None not in (step, horizon, paths, stride):
        try:
            SimConfig(step, horizon, paths, 0, stride)
        except ValueError as exc:
            _err(errs, "experiment.step", str(exc))
    return ["trajectory ensemble (ensemble.csv)"]


def _r_simulate(p, ctx):
    cov = ConstantSpd(SpdMatrix(_cov_matrix(p, "x", [], dim=None)))
    cfg = SimConfig(p["step"], p["horizon"], p["paths"], ctx["seed"],
                    p.get("record_stride", 1))
    drift = QuadraticDrift(np.asarray(p["design"], float), np.asarray(p["target"], float))
    ens = simulate(drift, cov, np.asarray(p["x0"], float), cfg)
    write_ensemble_csv(ens, os.path.join(ctx["outdir"], "ensemble.csv"))


def _v_ou_exact(p, errs, base_dir):
    _reject_unknown(p, {"kind", "design", "target", "sigma", "sigma_diag", "x0",
                        "v0_diag", "time"}, "experiment", errs)
    design = _matrix(p, "design", "experiment", errs)
    target = _vector(p, "target", "experiment", errs)
    x0 = _vector(p, "x0", "experiment", errs)
    dim = x0.shape[0] if x0 is not None else None
    _cov_matrix(p, "experiment", errs, dim=dim)
    _vector(p, "v0_diag", "experiment", errs, required=False, length=dim, nonneg=True)
    _time_value(p, "time", "experiment", errs)
    if design is not None and target is not None and design.shape[0] != target.shape[0]:
        _err(errs, "experiment.target", "length must match design rows")
    if design is not None and dim is not None and design.shape[1] != dim:
        _err(errs, "experiment.x0", "length must match design columns")
    _full_rank_designs(errs, design=design)
    return ["time-t Gaussian mean", "time-t Gaussian covariance (closed form)",
            "gaussian_state.json"]


def _build_problem(p):
    sigma = _cov_matrix(p, "x", [], dim=None)
    v0 = None
    if p.get("v0_diag") is not None:
        v0 = SpdMatrix(np.diag(np.asarray(p["v0_diag"], float)), allow_semidefinite=True)
    return QuadraticProblem(
        np.asarray(p["design"], float), np.asarray(p["target"], float),
        SpdMatrix(sigma), np.asarray(p["x0"], float), v0,
    )


def _r_ou_exact(p, ctx):
    t = math.inf if p["time"] == "inf" else float(p["time"])
    state = exact_state(_build_problem(p), t)
    doc = {
        "mean": [float(v) for v in state.mean],
        "cov": [[float(v) for v in row] for row in state.cov.entries],
        "time": "inf" if math.isinf(state.time) else state.time,
    }
    with open(os.path.join(ctx["outdir"], "gaussian_state.json"), "w") as fh:
        json.dump(doc, fh, indent=2)


def _v_kl_bound(p, errs, base_dir):
    _reject_unknown(p, {"kind", "design", "target", "design_prime", "target_prime",
                        "sigma", "sigma_diag", "sigma_prime", "x0", "step", "horizon",
                        "paths", "record_stride"}, "experiment", errs)
    design = _matrix(p, "design", "experiment", errs)
    _vector(p, "target", "experiment", errs)
    design_p = _matrix(p, "design_prime", "experiment", errs, required=False)
    _full_rank_designs(errs, design=design, design_prime=design_p)
    target_prime = _vector(p, "target_prime", "experiment", errs)
    x0 = _vector(p, "x0", "experiment", errs)
    dim = x0.shape[0] if x0 is not None else None
    _cov_matrix(p, "experiment", errs, dim=dim)
    sp = _matrix(p, "sigma_prime", "experiment", errs, required=False)
    if sp is not None and dim is not None and sp.shape != (dim, dim):
        _err(errs, "experiment.sigma_prime", f"must be {dim}x{dim}")
    step = _number(p, "step", "experiment", errs, positive=True)
    horizon = _number(p, "horizon", "experiment", errs, positive=True)
    paths = _integer(p, "paths", "experiment", errs, minimum=1)
    stride = _integer(p, "record_stride", "experiment", errs, required=False,
                     default=1, minimum=1)
    if None not in (step, horizon, paths, stride):
        try:
            SimConfig(step, horizon, paths, 0, stride)
        except ValueError as exc:
            _err(errs, "experiment.step", str(exc))
    derived = ["Monte-Carlo KL bound curve (bound_curve.csv)",
               "exact Gaussian KL curve (exact_kl.csv)"]
    if sp is not None:
        derived.append("score-corrected mismatch (unequal diffusions)")
    else:
        derived.append("drift-gap mismatch (shared diffusion)")
    return derived


def _r_kl_bound(p, ctx):
    sigma = _cov_matrix(p, "x", [], dim=None)
    design = np.asarray(p["design"], float)
    target = np.asarray(p["target"], float)
    design_p = np.asarray(p.get("design_prime", p["design"]), float)
    target_p = np.asarray(p["target_prime"], float)
    x0 = np.asarray(p["x0"], float)
    prob_a = QuadraticProblem(design, target, SpdMatrix(sigma), x0)
    sigma_p = np.asarray(p["sigma_prime"], float) if p.get("sigma_prime") is not None else sigma
    prob_b = QuadraticProblem(design_p, target_p, SpdMatrix(sigma_p), x0)
    cfg = SimConfig(p["step"], p["horizon"], p["paths"], ctx["seed"],
                    p.get("record_stride", 1))
    drift_a = QuadraticDrift(design, target)
    drift_b = QuadraticDrift(design_p, target_p)
    cov_a = ConstantSpd(SpdMatrix(sigma))
    ens = simulate(drift_a, cov_a, x0, cfg)
    if p.get("sigma_prime") is not None and not np.array_equal(sigma_p, sigma):
        cov_b = ConstantSpd(SpdMatrix(sigma_p))
        score = TimeVaryingScore(lambda t: GaussianScore(exact_state(prob_b, max(t, cfg.step))))
        curve = mc_kl_bound(ens, drift_a, drift_b, cov_a, cov_b, score)
    else:
        curve = mc_kl_bound(ens, drift_a, drift_b, cov_a, cov_a)
    write_bound_csv(curve, os.path.join(ctx["outdir"], "bound_curve.csv"))
    import csv as _csv

    with open(os.path.join(ctx["outdir"], "exact_kl.csv"), "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["time", "kl"])
        for t in curve.times:
            if t == 0.0:
                w.writerow(["0", "0"])
                continue
            kl = gaussian_kl(exact_state(prob_a, float(t)), exact_state(prob_b, float(t)))
            w.writerow([f"{t:.17g}", f"{kl:.17g}"])


def _v_closed_bounds(p, errs, base_dir):
    _reject_unknown(p, {"kind", "kappa", "grad_lip", "kappa_prime", "grad_lip_prime",
                        "sigma", "sigma_prime", "lsi0", "xstar", "xstar_prime",
                        "times"}, "experiment", errs)
    kappa = _number(p, "kappa", "experiment", errs, positive=True)
    grad_lip = _number(p, "grad_lip", "experiment", errs, positive=True)
    kappa_p = _number(p, "kappa_prime", "experiment", errs, positive=True)
    grad_lip_p = _number(p, "grad_lip_prime", "experiment", errs, positive=True)
    _number(p, "sigma", "experiment", errs, positive=True)
    _number(p, "sigma_prime", "experiment", errs, positive=True)
    _number(p, "lsi0", "experiment", errs, positive=True)
    xs = _vector(p, "xstar", "experiment", errs)
    xsp = _vector(p, "xstar_prime", "experiment", errs)
    if xs is not None and xsp is not None and xs.shape != xsp.shape:
        _err(errs, "experiment.xstar_prime", "length must match xstar")
    if kappa is not None and grad_lip is not None and kappa > grad_lip:
        _err(errs, "experiment.kappa", "cannot exceed grad_lip")
    if kappa_p is not None and grad_lip_p is not None and kappa_p > grad_lip_p:
        _err(errs, "experiment.kappa_prime", "cannot exceed grad_lip_prime")
    times = _get(p, "times", "experiment", errs, required=False)
    if times is not None:
        ok = isinstance(times, list) and times and all(
            isinstance(t, (int, float)) and not isinstance(t, bool)
            and math.isfinite(t) and t >= 0 for t in times
        )
        if not ok:
            _err(errs, "experiment.times", "must be a list of nonnegative numbers")
    return ["time-uniform KL bound", "time-uniform KL bound (stationary-start variant)",
            "stationary KL bound", "log-Sobolev constant curve"]


def _r_closed_bounds(p, ctx):
    rp = RegularityParams(
        kappa=p["kappa"], grad_lip=p["grad_lip"], kappa_prime=p["kappa_prime"],
        grad_lip_prime=p["grad_lip_prime"], sigma=p["sigma"],
        sigma_prime=p["sigma_prime"], lsi0=p["lsi0"],
        xstar=np.asarray(p["xstar"], float),
        xstar_prime=np.asarray(p["xstar_prime"], float),
    )
    rho = lsi_rate(rp.sigma, rp.kappa)
    times = p.get("times", [0.0, 1.0, 10.0, 100.0])
    doc = {
        "klbound": klbound_closed(rp),
        "klbound_stationary_start": klbound_closed(rp, stationary_limit=True),
        "klbound_stationary": klbound_stationary(rp),
        "lsi": {
            "rho": rho,
            "curve": [[float(t), lsi_constant(float(t), rho, rp.lsi0)] for t in times],
        },
    }
    with open(os.path.join(ctx["outdir"], "closed_bounds.json"), "w") as fh:
        json.dump(doc, fh, indent=2)


def _v_optimize_cov(p, errs, base_dir):
    _reject_unknown(p, {"kind", "gaps", "zetas"}, "experiment", errs)
    gaps = _vector(p, "gaps", "experiment", errs, nonneg=True)
    zetas = _get(p, "zetas", "experiment", errs)
    if zetas is not None:
        ok = isinstance(zetas, list) and zetas and all(
            isinstance(z, (int, float)) and not isinstance(z, bool)
            and math.isfinite(z) and z > 0 for z in zetas
        )
        if not ok:
            _err(errs, "experiment.zetas", "must be a list of positive numbers")
    if gaps is not None and not any(g > 0 for g in gaps):
        _err(errs, "experiment.gaps", "at least one entry must be positive")
    return ["optimal diagonal covariance per zeta", "kl_term at each optimum",
            "optimal_cov.csv"]


def _r_optimize_cov(p, ctx):
    gap = GradientGap(np.asarray(p["gaps"], float))
    import csv as _csv

    with open(os.path.join(ctx["outdir"], "optimal_cov.csv"), "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["zeta", *[f"sigma{i}" for i in range(gap.dim)], "kl_term"])
        for z in p["zetas"]:
            pt = optimal_diag_cov(gap, float(z))
            w.writerow([f"{z:.17g}", *[f"{v:.17g}" for v in pt.diag_sigma],
                        f"{pt.kl_term:.17g}"])


def _range_pair(p, key, errs):
    v = _get(p, key, "experiment", errs)
    if v is None:
        return None
    ok = (isinstance(v, list) and len(v) == 2
          and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  and math.isfinite(x) for x in v)
          and 0 < v[0] < v[1])
    if not ok:
        _err(errs, f"experiment.{key}", "must be [lo, hi] with 0 < lo < hi")
        return None
    return (float(v[0]), float(v[1]))


def _v_grid_surface(p, errs, base_dir):
    _reject_unknown(p, {"kind", "gaps", "x_range", "y_range", "resolution"},
                    "experiment", errs)
    gaps = _vector(p, "gaps", "experiment", errs, length=2, nonneg=True)
    _range_pair(p, "x_range", errs)
    _range_pair(p, "y_range", errs)
    _integer(p, "resolution", "experiment", errs, minimum=2)
    if gaps is not None and not any(g > 0 for g in gaps):
        _err(errs, "experiment.gaps", "at least one entry must be positive")
    return ["kl_term surface over the noise grid", "trace surface", "grid.csv"]


def _r_grid_surface(p, ctx):
    rows = grid_surface(GradientGap(np.asarray(p["gaps"], float)),
                        tuple(p["x_range"]), tuple(p["y_range"]), p["resolution"])
    write_grid_csv(rows, os.path.join(ctx["outdir"], "grid.csv"),
                   header=("x", "y", "kl_term", "trace"))


def _v_quad_tradeoff(p, errs, base_dir):
    _reject_unknown(p, {"kind", "design", "target", "design_prime", "target_prime",
                        "x0", "time", "x_range", "y_range", "resolution"},
                    "experiment", errs)
    design = _matrix(p, "design", "experiment", errs)
    target = _vector(p, "target", "experiment", errs)
    design_p = _matrix(p, "design_prime", "experiment", errs, required=False)
    target_p = _vector(p, "target_prime", "experiment", errs)
    _vector(p, "x0", "experiment", errs, length=2)
    for key, b in (("design", design), ("design_prime", design_p)):
        if b is not None and b.shape[1] != 2:
            _err(errs, f"experiment.{key}", "must have 2 columns")
    _full_rank_designs(errs, design=design, design_prime=design_p)
    prime = ("design_prime", design_p) if "design_prime" in p else ("design", design)
    for key, y, (b_key, b) in (("target", target, ("design", design)),
                               ("target_prime", target_p, prime)):
        if b is not None and y is not None and y.shape[0] != b.shape[0]:
            _err(errs, f"experiment.{key}", f"length must match {b_key} rows")
    if _time_value(p, "time", "experiment", errs) == 0.0:
        _err(errs, "experiment.time", 'must be positive or "inf"')
    _range_pair(p, "x_range", errs)
    _range_pair(p, "y_range", errs)
    _integer(p, "resolution", "experiment", errs, minimum=2)
    return ["exact KL over the noise grid", "accumulated-noise error over the grid",
            "tradeoff.csv"]


def _r_quad_tradeoff(p, ctx):
    t = math.inf if p["time"] == "inf" else float(p["time"])
    placeholder = SpdMatrix.identity(2)
    x0 = np.asarray(p["x0"], float)
    pa = QuadraticProblem(np.asarray(p["design"], float), np.asarray(p["target"], float),
                          placeholder, x0)
    pb = QuadraticProblem(np.asarray(p.get("design_prime", p["design"]), float),
                          np.asarray(p["target_prime"], float), placeholder, x0)
    rows = quadratic_tradeoff(pa, pb, t, tuple(p["x_range"]), tuple(p["y_range"]),
                              p["resolution"])
    write_grid_csv(rows, os.path.join(ctx["outdir"], "tradeoff.csv"),
                   header=("x", "y", "exact_kl", "error"))


def _v_dp_audit(p, errs, base_dir):
    _reject_unknown(p, {"kind", "epsilon", "outer_rounds", "inner_rounds",
                        "adjacency", *_TRAIN_KEYS}, "experiment", errs)
    _number(p, "epsilon", "experiment", errs, positive=True)
    _integer(p, "outer_rounds", "experiment", errs, minimum=1)
    _integer(p, "inner_rounds", "experiment", errs, minimum=1)
    adjacency = _string(p, "adjacency", "experiment", errs, required=False,
                        default="replace", choices={"replace", "remove", "null"})
    _check_scheme(p, "experiment", errs)
    spec, size = _check_dataset(p, "experiment", errs, base_dir)
    _check_training(p, "experiment", errs, size, drops_record=adjacency == "remove")
    return ["empirical delta (max over outer rounds)", "per-outer-round deltas",
            "worst training loss", "audit_report.json"]


def _r_dp_audit(p, ctx):
    errs: list = []
    scheme = _check_scheme(p, "experiment", errs)
    spec, _ = _check_dataset(p, "experiment", errs, ctx["base_dir"])
    cfg = AuditConfig(
        epsilon=p["epsilon"], outer_rounds=p["outer_rounds"],
        inner_rounds=p["inner_rounds"], scheme=scheme, lr=p["lr"], iters=p["iters"],
        batch=p["batch"], hidden=p["hidden"], dataset=_load_dataset(spec),
        adjacency=p.get("adjacency", "replace"),
        activation=p.get("activation", "relu"), noise_on=p.get("noise_on", "step"),
        seed=ctx["seed"],
    )
    write_audit_json(estimate_delta(cfg), os.path.join(ctx["outdir"], "audit_report.json"))


def _v_membership(p, errs, base_dir):
    _reject_unknown(p, {"kind", "target_index", "runs", "null_control", *_TRAIN_KEYS},
                    "experiment", errs)
    target = _integer(p, "target_index", "experiment", errs, minimum=0)
    _integer(p, "runs", "experiment", errs, minimum=1)
    null_control = _boolean(p, "null_control", "experiment", errs)
    _check_scheme(p, "experiment", errs)
    spec, size = _check_dataset(p, "experiment", errs, base_dir)
    _check_training(p, "experiment", errs, size, drops_record=not null_control)
    if target is not None and size is not None and target >= size:
        _err(errs, "experiment.target_index", f"outside dataset of size {size}")
    return ["per-run target losses, both arms (membership_hist.csv)",
            "mean loss gap", "worst training loss", "membership_report.json"]


def _r_membership(p, ctx):
    errs: list = []
    scheme = _check_scheme(p, "experiment", errs)
    spec, _ = _check_dataset(p, "experiment", errs, ctx["base_dir"])
    report = membership_experiment(
        _load_dataset(spec), p["target_index"], p["runs"], scheme, lr=p["lr"],
        iters=p["iters"], batch=p["batch"], hidden=p["hidden"], seed=ctx["seed"],
        activation=p.get("activation", "relu"), noise_on=p.get("noise_on", "step"),
        null_control=p.get("null_control", False),
    )
    write_membership_csv(report, os.path.join(ctx["outdir"], "membership_hist.csv"))
    with open(os.path.join(ctx["outdir"], "membership_report.json"), "w") as fh:
        json.dump(membership_report_to_dict(report), fh, indent=2)


def _v_privacy_translate(p, errs, base_dir):
    _reject_unknown(p, {"kind", "kl", "lsi_const", "lip", "eps", "delta"},
                    "experiment", errs)
    _number(p, "kl", "experiment", errs, nonneg=True)
    _number(p, "lsi_const", "experiment", errs, positive=True)
    _number(p, "lip", "experiment", errs, positive=True)
    eps = _get(p, "eps", "experiment", errs, required=False)
    delta = _get(p, "delta", "experiment", errs, required=False)
    if eps is not None:
        ok = isinstance(eps, list) and eps and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x) and x > 0 for x in eps
        )
        if not ok:
            _err(errs, "experiment.eps", "must be a list of positive numbers")
    if delta is not None:
        ok = isinstance(delta, list) and delta and all(
            isinstance(x, (int, float)) and not isinstance(x, bool)
            and 0 < x < 1 for x in delta
        )
        if not ok:
            _err(errs, "experiment.delta", "must be a list of numbers in (0, 1)")
    return ["membership advantage from KL", "delta at each eps", "eps at each delta",
            "privacy.json"]


def _r_privacy_translate(p, ctx):
    cp = ConcentrationParams(lsi_const=p["lsi_const"], lip=p["lip"], kl=p["kl"])
    doc = {
        "membership_advantage": membership_advantage(p["kl"]),
        "delta_from_eps": [[float(e), delta_from_eps(float(e), cp)]
                           for e in p.get("eps", [])],
        "eps_from_delta": [[float(d), eps_from_delta(float(d), cp)]
                           for d in p.get("delta", [])],
    }
    with open(os.path.join(ctx["outdir"], "privacy.json"), "w") as fh:
        json.dump(doc, fh, indent=2)


_VALIDATORS = {
    "simulate": _v_simulate, "ou-exact": _v_ou_exact, "kl-bound": _v_kl_bound,
    "closed-bounds": _v_closed_bounds, "optimize-cov": _v_optimize_cov,
    "grid-surface": _v_grid_surface, "quad-tradeoff": _v_quad_tradeoff,
    "dp-audit": _v_dp_audit, "membership": _v_membership,
    "privacy-translate": _v_privacy_translate,
}

_RUNNERS = {
    "simulate": _r_simulate, "ou-exact": _r_ou_exact, "kl-bound": _r_kl_bound,
    "closed-bounds": _r_closed_bounds, "optimize-cov": _r_optimize_cov,
    "grid-surface": _r_grid_surface, "quad-tradeoff": _r_quad_tradeoff,
    "dp-audit": _r_dp_audit, "membership": _r_membership,
    "privacy-translate": _r_privacy_translate,
}


# ---------------------------------------------------------------------------
# top-level config handling


def _validate_document(doc, base_dir):
    errs: list = []
    derived: list = []
    if not isinstance(doc, dict):
        _err(errs, "", "config must be a JSON object")
        return errs, derived
    _reject_unknown(doc, {"schema_version", "seed", "output_dir", "experiment"}, "$", errs)
    sv = _get(doc, "schema_version", "$", errs, required=False, default=SCHEMA_VERSION)
    if sv != SCHEMA_VERSION:
        _err(errs, "$.schema_version", f"unsupported schema version {sv!r}")
    seed = _get(doc, "seed", "$", errs, required=False, default=0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed < 2**64):
        _err(errs, "$.seed", "must be an unsigned 64-bit integer")
    out = _get(doc, "output_dir", "$", errs, required=False, default="out")
    if not isinstance(out, str) or not out:
        _err(errs, "$.output_dir", "must be a nonempty string")
    exp = _get(doc, "experiment", "$", errs)
    if exp is None:
        return errs, derived
    if not isinstance(exp, dict):
        _err(errs, "experiment", "must be an object")
        return errs, derived
    kind = _string(exp, "kind", "experiment", errs, choices=set(EXPERIMENT_KINDS))
    if kind is None:
        return errs, derived
    derived = _VALIDATORS[kind](exp, errs, base_dir)
    return errs, derived


def _config_hash(doc) -> str:
    semantic = {
        "schema_version": doc.get("schema_version", SCHEMA_VERSION),
        "seed": doc.get("seed", 0),
        "experiment": doc["experiment"],
    }
    blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _load_config(path, errs):
    if not os.path.isfile(path):
        _err(errs, "$", f"config file not found: {path}")
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        _err(errs, "$", f"invalid JSON: {exc}")
        return None


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_validate(path) -> int:
    errs: list = []
    doc = _load_config(path, errs)
    derived: list = []
    if doc is not None:
        base_dir = os.path.dirname(os.path.abspath(path))
        more, derived = _validate_document(doc, base_dir)
        errs.extend(more)
    if errs:
        _emit({"ok": False, "errors": errs})
        return 1
    _emit({
        "ok": True,
        "experiment": doc["experiment"]["kind"],
        "config_hash": _config_hash(doc),
        "derived": derived,
    })
    return 0


def _cmd_run(path) -> int:
    errs: list = []
    doc = _load_config(path, errs)
    if doc is not None:
        base_dir = os.path.dirname(os.path.abspath(path))
        more, _ = _validate_document(doc, base_dir)
        errs.extend(more)
    if errs:
        _emit({"ok": False, "errors": errs})
        return 1

    outdir = doc.get("output_dir", "out")
    if not os.path.isabs(outdir):
        outdir = os.path.join(base_dir, outdir)
    os.makedirs(outdir, exist_ok=True)
    ctx = {"outdir": outdir, "seed": doc.get("seed", 0), "base_dir": base_dir}
    kind = doc["experiment"]["kind"]
    started = time.perf_counter()
    try:
        _RUNNERS[kind](doc["experiment"], ctx)
    except AnisoError as exc:
        _emit({"ok": False, "operation": exc.operation, "message": str(exc)})
        return 2
    except (np.linalg.LinAlgError, ValueError, FloatingPointError) as exc:
        _emit({"ok": False, "operation": kind, "message": str(exc)})
        return 2
    manifest = {
        "config_hash": _config_hash(doc),
        "seed": doc.get("seed", 0),
        "experiment": kind,
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
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    _emit({"ok": True, "output_dir": outdir, "experiment": kind,
           "config_hash": manifest["config_hash"]})
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
    if args.command == "validate":
        return _cmd_validate(args.config)
    return _cmd_run(args.config)


if __name__ == "__main__":
    sys.exit(main())
