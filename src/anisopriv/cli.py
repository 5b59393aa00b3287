"""Config-driven command line: run / validate / version.

Configs are JSON documents shaped as

    {"schema_version": 1, "seed": 7, "output_dir": "out",
     "experiment": {"kind": "<experiment>", ...parameters...}}

Relative paths (output_dir, dataset CSVs) resolve against the config file's
directory, and no subcommand writes outside output_dir. `run` emits the
experiment's files plus a manifest.json recording the semantic-config hash,
seed, and versions; reruns of an identical config are byte-identical except
the manifest's "timestamp" object, which holds the seconds spent reading,
parsing and building the config (load_seconds) and running it
(wall_clock_seconds). Exit codes: 0 success, 1 invalid config, 2 numerical
failure (the error JSON names the offending operation).

Each JSON object of a config is read through one _Reader, whose typed getters
check JSON types, finite numbers and int64 counts. A parser's reads are its
schema: a key that no getter names is an "unknown key" error, a key set to null
counts as absent, and both seeds ($.seed, dataset.synth.seed) follow one rule.

Each kind's parser builds every library object its run(outdir) closure uses,
and those objects state the value rules (dp-audit and membership, for one,
build a models.Training and an AuditConfig or MembershipConfig; grid-surface
and quad-tradeoff build a tradeoff.NoiseGrid, and quad-tradeoff also its
covariance stack, which both QuadraticProblems carry): a
constructor's FieldErrors is one exit-1 entry per failing field, at
path.field; any other ValueError (a noise covariance that is not positive
definite, say) is one at the key it was built from. An object is not built,
nor its value rules checked, while one of its fields fails its type read.
A config whose run would hold an array of more than MAX_ELEMENTS elements is
refused at the key of that array's largest factor. kl-bound refuses a
sigma_prime other than sigma: its laws start at the point x0, so the second
has no score at time 0. Its bound curve is bounds.euler_kl_bound, exact on
the Euler grid, so it draws no normals; it reads paths, which sets no work,
only to keep configs that give it valid. The closure only computes and
writes.

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
from .audit import AuditConfig, MembershipConfig, estimate_delta, membership_experiment
from .bounds import (
    RegularityParams,
    euler_kl_bound,
    klbound_closed,
    klbound_stationary,
    lsi_constant,
    lsi_rate,
    mc_kl_bound,  # noqa: F401  - called by no kind; perfbench's tracer wraps this name
)
from .errors import AnisoError, FieldErrors
from .linalg import SpdMatrix
from .models import (
    AnisotropicPerParam,
    IsotropicPerLayer,
    NO_NOISE,
    Training,
    read_dataset_csv,
    synth_blobs,
)
from .ou import QuadraticProblem, exact_state, gaussian_kl
from .sde import ConstantSpd, QuadraticDrift, SimConfig, simulate
from .tradeoff import (GradientGap, NoiseGrid, _check_time, grid_surface, optimal_diag_cov,
                       quadratic_tradeoff)
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
# schema: a _Reader per JSON object; every error is a {"path", "message"} dict


def _err(errs, path, message):
    errs.append({"path": path, "message": message})


def _finite(x):
    """x is a finite number; bools do not count, nor ints beyond the float range."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


class _Reader:
    """One JSON object of a config, at path, read through typed getters that
    check and convert a value, or record its error at path.key in errs and
    return None, so that no object is built from a failed read (seed returns
    its default instead; see _document). A getter's reads are the object's
    schema: every key a getter names is known, and read() makes each key that
    none named an "unknown key" error. A key set to null counts as absent."""

    def __init__(self, obj, path, errs):
        self.obj, self.path, self.errs = obj, path, errs
        self.named = set()

    def read(self, parse, *args):
        """parse(self, *args), then one "unknown key" error per key no getter
        named, inserted where this object's errors begin, so they come first."""
        start = len(self.errs)
        out = parse(self, *args)
        self.errs[start:start] = [{"path": self._at(k), "message": "unknown key"}
                                  for k in self.obj if k not in self.named]
        return out

    def _at(self, key):
        return self.path if key is None else f"{self.path}.{key}"

    def err(self, key, message):
        _err(self.errs, self._at(key), message)

    def has(self, key):
        """Whether key is present and not null."""
        return self.get(key, required=False) is not None

    def get(self, key, *, required=True, default=None):
        """The raw value at key, or default when it is absent."""
        self.named.add(key)
        v = self.obj.get(key)
        if v is None:
            if required:
                self.err(key, "missing required field")
            return default
        return v

    def built(self, key, make, /, *args, **kw):
        """make(*args, **kw), or None after recording each (field, message) of
        its FieldErrors at path.field, or its other ValueError at key (the
        object itself when key is None), once: a defaulted design_prime repeats
        the design's error. None, without a call, when an argument is None."""
        if any(a is None for a in (*args, *kw.values())):
            return None
        try:
            return make(*args, **kw)
        except ValueError as exc:
            failed = exc.fields if isinstance(exc, FieldErrors) else [(key, str(exc))]
        for field, message in failed:
            if {"path": self._at(field), "message": message} not in self.errs:
                self.err(field, message)
        return None

    def object(self, key, parse, *args):
        """The required object at key read with parse (see read), or None after
        an error. Its path, which its own errors also use, is path.key, or the
        key alone under the document ($)."""
        path = key if self.path == "$" else self._at(key)
        v = self.get(key, required=False)
        if v is None:
            _err(self.errs, path, "missing required field")
            return None
        if not isinstance(v, dict):
            _err(self.errs, path, "must be an object")
            return None
        return _Reader(v, path, self.errs).read(parse, *args)

    def seed(self, key, *, required=True, default=None):
        v = self.get(key, required=required)
        if v is None:
            return default
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < 2**64:
            self.err(key, "must be an unsigned 64-bit integer")
            return default
        return v

    def number(self, key):
        v = self.get(key)
        if v is None:
            return None
        if not _finite(v):
            self.err(key, "must be a finite number")
            return None
        return float(v)

    def integer(self, key, *, required=True, default=None):
        v = self.get(key, required=required)
        if v is None:
            return default
        if isinstance(v, bool) or not isinstance(v, int):
            self.err(key, "must be an integer")
            return None
        if not -2**63 <= v < 2**63:
            self.err(key, "must be a signed 64-bit integer")
            return None
        return v

    def string(self, key, *, required=True, default=None, choices=None):
        v = self.get(key, required=required)
        if v is None:
            return default
        if not isinstance(v, str):
            self.err(key, "must be a string")
            return None
        if choices is not None and v not in choices:
            self.err(key, f"must be one of {sorted(choices)}")
            return None
        return v

    def boolean(self, key, *, default=False):
        v = self.get(key, required=False)
        if v is None:
            return default
        if not isinstance(v, bool):
            self.err(key, "must be a boolean")
            return None
        return v

    def vector(self, key, *, required=True, default=None, length=None, positive=False,
               nonneg=False):
        v = self.get(key, required=required)
        if v is None:
            return default
        if not (isinstance(v, list) and v and all(_finite(x) for x in v)):
            self.err(key, "must be a nonempty list of finite numbers")
            return None
        if length is not None and len(v) != length:
            self.err(key, f"must have length {length}")
            return None
        if positive and any(x <= 0 for x in v):
            self.err(key, "entries must be positive")
            return None
        if nonneg and any(x < 0 for x in v):
            self.err(key, "entries must be nonnegative")
            return None
        return np.asarray(v, dtype=float)

    def matrix(self, key, *, required=True):
        v = self.get(key, required=required)
        if v is None:
            return None
        ok = (
            isinstance(v, list) and v and all(isinstance(r, list) and r for r in v)
            and len({len(r) for r in v}) == 1
            and all(_finite(x) for r in v for x in r)
        )
        if not ok:
            self.err(key, "must be a rectangular matrix of finite numbers")
            return None
        return np.asarray(v, dtype=float)

    def time(self, key):
        v = self.get(key)
        if v is None:
            return None
        if v == "inf":
            return math.inf
        if not _finite(v) or v < 0:
            self.err(key, 'must be a nonnegative number or "inf"')
            return None
        return float(v)


def _cov_matrix(p, dim):
    """The SpdMatrix of `sigma` (full matrix) or `sigma_diag` (positive diagonal)."""
    has_full, has_diag = p.has("sigma"), p.has("sigma_diag")
    if has_full and has_diag:
        p.err("sigma", "give either sigma or sigma_diag, not both")
        return None
    if not has_full and not has_diag:
        p.err("sigma", "missing: provide sigma or sigma_diag")
        return None
    if has_diag:
        d = p.vector("sigma_diag", length=dim, positive=True)
        return p.built("sigma_diag", SpdMatrix, None if d is None else np.diag(d))
    m = p.matrix("sigma")
    if m is not None and (m.shape[0] != m.shape[1] or (dim is not None and m.shape[0] != dim)):
        p.err("sigma", "must be square" + (f" with dimension {dim}" if dim else ""))
        return None
    return p.built("sigma", SpdMatrix, m)


def _problems(p, *, primed, dim=None):
    """x0 and (design key, design, target) of a quadratic problem and, when
    primed, of its partner, whose design_prime (key and all) defaults to
    design. Each design needs one row per target entry and one column per x0
    entry, and dim fixes the length of x0; where a rule fails, design is None.
    Building a QuadraticProblem at the design key checks its rank."""
    design = p.matrix("design")
    pairs = [("design", design, "target", p.vector("target"))]
    if primed:
        design_p = p.matrix("design_prime", required=False)
        given = p.has("design_prime")
        pairs.append(("design_prime" if given else "design", design_p if given else design,
                      "target_prime", p.vector("target_prime")))
    x0 = p.vector("x0", length=dim)
    cols = dim if x0 is None else x0.shape[0]
    bad = set()
    for b_key, b, y_key, y in pairs:
        if b is not None and y is not None and y.shape[0] != b.shape[0]:
            p.err(y_key, f"length must match {b_key} rows")
            bad.add(y_key)
    for b_key, b in {b_key: b for b_key, b, _, _ in pairs}.items():
        if b is not None and cols is not None and b.shape[1] != cols:
            p.err(b_key, f"must have {cols} columns")
            bad.add(b_key)
    return x0, [(b_key, None if bad & {b_key, y_key} else b, y)
                for b_key, b, y_key, y in pairs]


def _sim_config(p, seed, **paths):
    """The SimConfig of step, horizon, paths (read with the keywords paths) and
    record_stride."""
    return p.built(None, SimConfig, p.number("step"), p.number("horizon"),
                   p.integer("paths", **paths), seed,
                   record_stride=p.integer("record_stride", required=False, default=1))


# The most elements that one array of a run may hold: 2**27 float64 values, or
# 1 GiB. validate refuses a config that asks for more, so that a count that
# fits in int64 but not in memory is an invalid config and not a MemoryError
# in run. The cap is fixed, so validate stays a function of the config alone.
MAX_ELEMENTS = 2**27


def _capped(p, what, elements, sizes):
    """Whether elements, the size of the run's largest array (what), is within
    MAX_ELEMENTS; if not, an error at the key of the largest of sizes
    ({key: size})."""
    if elements <= MAX_ELEMENTS:
        return True
    p.err(max(sizes, key=sizes.get), f"{what} would hold {elements} elements, "
          f"above the {MAX_ELEMENTS} that one array of a run may hold")
    return False


# ---------------------------------------------------------------------------
# dataset and noise-scheme sub-schemas (dp-audit, membership)


_NOISY_SCHEMES = {"isotropic-layer": IsotropicPerLayer, "anisotropic-param": AnisotropicPerParam}


def _scheme(sch):
    kind = sch.string("kind", choices={"none", *_NOISY_SCHEMES})
    if kind == "none":
        if sch.has("sigma2"):
            sch.err("sigma2", 'not allowed when kind is "none"')
        return NO_NOISE
    sigma2 = sch.number("sigma2")
    return None if kind is None else sch.built(None, _NOISY_SCHEMES[kind], sigma2)


def _dataset(ds, base_dir):
    """The Dataset, read from a CSV file or drawn by synth_blobs."""
    has_csv = ds.has("csv")
    if has_csv == ds.has("synth"):
        ds.err(None, "provide exactly one of csv or synth")
        return None
    if not has_csv:
        return ds.object("synth", _synth)
    rel = ds.string("csv")
    if rel is None:
        return None
    full = os.path.join(base_dir, rel)
    if not os.path.isfile(full):
        ds.err("csv", f"file not found: {rel}")
        return None
    return ds.built("csv", read_dataset_csv, full)


def _synth(sub):
    return sub.built(None, synth_blobs, sub.integer("classes"), sub.integer("per_class"),
                     sub.integer("dim"), sub.number("separation"), sub.seed("seed"))


def _check_training(p, base_dir):
    """Noise scheme, dataset and Training of dp-audit and membership."""
    scheme = p.object("scheme", _scheme)
    dataset = p.object("dataset", _dataset, base_dir)
    training = p.built(None, Training, p.number("lr"), p.integer("iters"), p.integer("batch"),
                       p.integer("hidden"), p.string("activation", required=False, default="relu"))
    return scheme, dataset, training


def _training_capped(p, runs, sizes, dataset, training):
    """_capped for runs models trained as one stack: each holds its
    (features + 1) hidden + (hidden + 1) classes parameters and, on the
    dataset, records x (hidden + classes) activations and probabilities.
    sizes ({key: size}) holds the keys that set runs."""
    h, k = training.hidden, dataset.n_classes
    per_run = (dataset.n_features + 1) * h + (h + 1) * k + dataset.size * (h + k)
    return _capped(p, "the training stack (runs x (parameters + records x (hidden + classes)))",
                   runs * per_run,
                   {**sizes, "hidden": h, "dataset": max(dataset.size, dataset.n_features, k)})


# ---------------------------------------------------------------------------
# per-experiment parsers: each checks and converts its fields once and returns
# the derived-quantity names and run(outdir), called only if errs stays empty


def _simulate(p, base_dir, seed):
    x0, [(key, design, target)] = _problems(p, primed=False)
    sigma = _cov_matrix(p, None if x0 is None else x0.shape[0])
    cfg = _sim_config(p, seed)
    cov = p.built("sigma", ConstantSpd, sigma)
    drift = p.built(key, QuadraticDrift, design, target)
    if cfg is not None and x0 is not None:
        _capped(p, "the ensemble (paths x records x dim)", cfg.paths * cfg.n_records * x0.shape[0],
                {"paths": cfg.paths, "horizon": cfg.n_records, "x0": x0.shape[0]})

    def run(outdir):
        ens = simulate(drift, cov, x0, cfg)
        _write_csv(os.path.join(outdir, "ensemble.csv"),
                   ["path", "time", *[f"x{i}" for i in range(ens.dim)]],
                   ([p, t, *ens.states[p, j]] for p in range(ens.paths)
                    for j, t in enumerate(ens.times)))

    return ["trajectory ensemble (ensemble.csv)"], run


def _ou_exact(p, base_dir, seed):
    x0, [(key, design, target)] = _problems(p, primed=False)
    dim = None if x0 is None else x0.shape[0]
    sigma = _cov_matrix(p, dim)
    v0_diag = p.vector("v0_diag", required=False, length=dim, nonneg=True)
    v0 = None if v0_diag is None else p.built("v0_diag", SpdMatrix, np.diag(v0_diag),
                                              allow_semidefinite=True)
    t = p.time("time")
    problem = p.built(key, functools.partial(QuadraticProblem, v0=v0), design, target, sigma, x0)

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


def _kl_bound(p, base_dir, seed):
    x0, pairs = _problems(p, primed=True)
    dim = None if x0 is None else x0.shape[0]
    sigma = _cov_matrix(p, dim)
    sigma_p = p.built("sigma_prime", SpdMatrix, p.matrix("sigma_prime", required=False))
    if None not in (sigma, sigma_p) and not np.array_equal(sigma_p.entries, sigma.entries):
        p.err("sigma_prime", "must equal sigma: unequal diffusions need the second law's "
              "score from time 0, and a law started at the point x0 has none")
    # the curve is exact on the Euler grid, so paths sizes no work; it keeps
    # its rules, since configs written for the Monte Carlo bound still set it
    ignored = ["paths ignored: the bound is exact on the Euler grid"] if p.has("paths") else []
    cfg = _sim_config(p, seed, required=False, default=1)
    prob_a, prob_b = (p.built(key, QuadraticProblem, design, target, sigma, x0)
                      for key, design, target in pairs)
    if None not in (cfg, dim):
        _capped(p, "the chain's covariances (records x dim x dim)", cfg.n_records * dim * dim,
                {"horizon": cfg.n_records, "x0": dim})

    def run(outdir):
        curve = euler_kl_bound(prob_a, prob_b, cfg)
        write_bound_csv(curve, os.path.join(outdir, "bound_curve.csv"))
        kls = [gaussian_kl(exact_state(prob_a, float(t)), exact_state(prob_b, float(t)))
               if t > 0.0 else 0.0 for t in curve.times]
        _write_csv(os.path.join(outdir, "exact_kl.csv"), ["time", "kl"], zip(curve.times, kls))

    return ["KL bound curve, exact on the Euler grid (bound_curve.csv)",
            "exact Gaussian KL curve (exact_kl.csv)", *ignored,
            "drift-gap mismatch (shared diffusion)"], run


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


def _closed_bounds(p, base_dir, seed):
    scalars = {key: p.number(key) for key in ("kappa", "grad_lip", "kappa_prime",
                                              "grad_lip_prime", "sigma", "sigma_prime", "lsi0")}
    xs = p.vector("xstar")
    xsp = p.vector("xstar_prime")
    rp = p.built(None, RegularityParams, **scalars, xstar=xs, xstar_prime=xsp)
    times = p.vector("times", required=False, default=[0.0, 1.0, 10.0, 100.0], nonneg=True)
    doc = None
    if rp is not None and times is not None:
        try:
            doc = _closed_bounds_doc(rp, times)
        except (ArithmeticError, ValueError) as exc:
            # blame the value farthest from 1 in scale, the likeliest cause
            scale = {k: abs(math.log(v)) for k, v in scalars.items()}
            scale["xstar_prime"] = math.log(max(1.0, np.abs(xsp - xs).max(initial=0.0)))
            key = max(scale, key=scale.get)
            p.err(key, "the closed-form bounds are not finite at these values, and this "
                  f"is the most extreme one ({exc})")

    def run(outdir):
        _write_json(os.path.join(outdir, "closed_bounds.json"), doc)

    return ["time-uniform KL bound", "time-uniform KL bound (stationary-start variant)",
            "stationary KL bound", "log-Sobolev constant curve"], run


def _optimize_cov(p, base_dir, seed):
    gap = p.built("gaps", GradientGap, p.vector("gaps"))
    zetas = p.vector("zetas", positive=True)

    def run(outdir):
        points = [optimal_diag_cov(gap, float(z)) for z in zetas]
        _write_csv(os.path.join(outdir, "optimal_cov.csv"),
                   ["zeta", *[f"sigma{i}" for i in range(gap.dim)], "kl_term"],
                   ([z, *pt.diag_sigma, pt.kl_term] for z, pt in zip(zetas, points)))

    return ["optimal diagonal covariance per zeta", "kl_term at each optimum",
            "optimal_cov.csv"], run


def _noise_grid(p):
    """The NoiseGrid of x_range, y_range and resolution, whose G =
    resolution**2 points, four values each (a 2 x 2 covariance or a surface
    row), count against MAX_ELEMENTS."""
    grid = p.built(None, NoiseGrid, p.vector("x_range"), p.vector("y_range"),
                   p.integer("resolution"))
    ok = grid is not None and _capped(p, "the noise grid (resolution**2 points x 4 values)",
                                      4 * grid.resolution**2, {"resolution": grid.resolution})
    return grid if ok else None


def _grid_surface(p, base_dir, seed):
    gap = p.built("gaps", GradientGap, p.vector("gaps", length=2))
    grid = _noise_grid(p)

    def run(outdir):
        rows = grid_surface(gap, grid)
        write_grid_csv(rows, os.path.join(outdir, "grid.csv"),
                       header=("x", "y", "kl_term", "trace"))

    return ["kl_term surface over the noise grid", "trace surface", "grid.csv"], run


def _quad_tradeoff(p, base_dir, seed):
    x0, pairs = _problems(p, primed=True, dim=2)
    t = p.time("time")
    grid = _noise_grid(p)
    cov = p.built(None, getattr, grid, "covariances")
    pa, pb = (p.built(key, QuadraticProblem, design, target, cov, x0)
              for key, design, target in pairs)
    p.built("time", _check_time, t, pa, pb, grid)

    def run(outdir):
        rows = quadratic_tradeoff(pa, pb, t, grid)
        write_grid_csv(rows, os.path.join(outdir, "tradeoff.csv"),
                       header=("x", "y", "exact_kl", "error"))

    return ["exact KL over the noise grid", "accumulated-noise error over the grid",
            "tradeoff.csv"], run


def _dp_audit(p, base_dir, seed):
    epsilon = p.number("epsilon")
    outer = p.integer("outer_rounds")
    inner = p.integer("inner_rounds")
    adjacency = p.string("adjacency", required=False, default="replace")
    scheme, dataset, training = _check_training(p, base_dir)
    cfg = p.built(None, AuditConfig, epsilon, outer, inner, scheme, training, dataset,
                  adjacency, seed)
    if cfg is not None:
        _training_capped(p, 2 * outer * inner, {"outer_rounds": outer, "inner_rounds": inner},
                         dataset, training)

    def run(outdir):
        write_audit_json(estimate_delta(cfg), os.path.join(outdir, "audit_report.json"))

    return ["empirical delta (max over outer rounds)", "per-outer-round deltas",
            "worst training loss", "audit_report.json"], run


def _membership(p, base_dir, seed):
    target = p.integer("target_index")
    runs = p.integer("runs")
    null_control = p.boolean("null_control")
    scheme, dataset, training = _check_training(p, base_dir)
    cfg = p.built(None, MembershipConfig, dataset, target, runs, scheme, training, null_control,
                  seed)
    if cfg is not None:
        _training_capped(p, 2 * runs, {"runs": runs}, dataset, training)

    def run(outdir):
        report = membership_experiment(cfg)
        arms = (("D", report.losses_with), ("Dprime", report.losses_without))
        _write_csv(os.path.join(outdir, "membership_hist.csv"), ["run", "arm", "loss_on_target"],
                   ([r, arm, v] for arm, losses in arms for r, v in enumerate(losses)))
        _write_json(os.path.join(outdir, "membership_report.json"), {
            "mean_gap": report.mean_gap,
            "worst_loss": report.worst_loss,
            "mean_loss_with": float(report.losses_with.mean()),
            "mean_loss_without": float(report.losses_without.mean()),
            "runs": cfg.runs,
        })

    return ["per-run target losses, both arms (membership_hist.csv)",
            "mean loss gap", "worst training loss", "membership_report.json"], run


def _privacy_translate(p, base_dir, seed):
    kl = p.number("kl")
    lsi_const = p.number("lsi_const")
    lip = p.number("lip")
    eps = p.vector("eps", required=False, default=[], positive=True)
    delta = p.get("delta", required=False)
    if delta is not None and not (
            isinstance(delta, list) and delta and all(_finite(x) and 0 < x < 1 for x in delta)):
        p.err("delta", "must be a list of numbers in (0, 1)")
    cp = p.built(None, ConcentrationParams, lsi_const=lsi_const, lip=lip, kl=kl)

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
    return _Reader(doc, "$", errs).read(_document, base_dir)


def _document(top, base_dir):
    sv = top.get("schema_version", required=False, default=SCHEMA_VERSION)
    if sv != SCHEMA_VERSION:
        top.err("schema_version", f"unsupported schema version {sv!r}")
    # a bad seed's stand-in is 0, so that the experiment's own checks still run
    seed = top.seed("seed", required=False, default=0)
    out = top.get("output_dir", required=False, default="out")
    if isinstance(out, str) and out:
        out = os.path.join(base_dir, out)
    else:
        top.err("output_dir", "must be a nonempty string")
    return top.object("experiment", _experiment, base_dir, seed, out)


def _experiment(p, base_dir, seed, out):
    """The _Config, or None when the kind is not known; its other keys then
    count as named, since no parser's reads say which are known."""
    kind = p.string("kind", choices=set(_PARSERS))
    if kind is None:
        p.named.update(p.obj)
        return None
    return _Config(kind, seed, out, _config_hash(seed, p.obj), *_PARSERS[kind](p, base_dir, seed))


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
    loading = time.perf_counter()
    cfg = _load(path)
    loaded = time.perf_counter()
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
            "load_seconds": loaded - loading,
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
