"""Benchmark workloads: input generation, one repetition, output checks.

Each workload's inputs are a pure function of the workload seed. Only
values that do not change the amount of work (targets, starting points,
data values) depend on the seed; sizes, step counts and the noise grids are
fixed, so run time is comparable across seeds.

A workload object has:

* ``generate(seed, workdir)`` -> ``Prepared``: writes the inputs (a CLI
  config, or nothing for library workloads) and returns what ``run`` needs.
* ``run(prep)`` -> outputs: one repetition.
* ``check(prep, outputs)`` -> list of failure messages (empty when correct).
* ``digest(prep, outputs)`` -> bytes identifying the outputs, for the
  determinism check. For CLI outputs the manifest's ``timestamp`` block and
  the audit report's ``runtime_seconds`` are excluded.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import anisopriv.cli
import anisopriv.rng
import anisopriv.sde

# Workload tags keep the seed streams of the workloads apart.
_TAGS = {"mc-bound": 1, "exact-tradeoff": 2, "audit": 3, "sgd-diffusion": 4}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_TAGS[name], int(seed)])


@dataclass
class Prepared:
    """Generated inputs of one workload at one seed."""

    name: str
    seed: int
    workdir: Path
    config_path: Path | None = None
    inputs: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    work: int = 0  # work items per repetition, the numerator of work_per_s
    work_unit: str = ""


# ---------------------------------------------------------------------------
# CLI workloads


def _write_config(workdir: Path, doc: dict) -> Path:
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "config.json"
    path.write_text(json.dumps(doc, indent=1))
    return path


def cli_call(argv: list[str]) -> tuple[int, str]:
    """anisopriv.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = anisopriv.cli.main(argv)
    return code, buf.getvalue()


def validate(prep: Prepared) -> None:
    """One `anisopriv validate` of the generated config; raises if rejected."""
    if prep.config_path is None:
        return
    code, out = cli_call(["validate", str(prep.config_path)])
    if code != 0:
        raise RuntimeError(f"generated config rejected by validate: {out.strip()}")


def _run_cli(prep: Prepared) -> Path:
    code, out = cli_call(["run", str(prep.config_path)])
    if code != 0:
        raise RuntimeError(f"anisopriv run exited {code}: {out.strip()}")
    return prep.workdir / "out"


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.asarray(rows[1:], dtype=float)


def _cli_digest(outdir: Path) -> bytes:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            doc = json.loads(data)
            doc.pop("timestamp", None)
            data = json.dumps(doc, sort_keys=True).encode()
        elif path.name == "audit_report.json":
            doc = json.loads(data)
            doc.pop("runtime_seconds", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.digest()


class McBound:
    """kl-bound with d = 8, 1e4 paths and a shared full sigma commuting with
    both Gram matrices. The arms differ in one record, design row and
    target, and the design row is replaced along an eigenvector of sigma, so
    the mismatch field depends on the state and the bound curve is checked
    against the exact moments of the simulated scheme."""

    name = "mc-bound"
    dim, rows, paths, step, horizon, stride = 8, 12, 10_000, 0.01, 2.0, 10
    # Allowed distance of the bound curve from its expectation, in Monte
    # Carlo standard errors; the relative floor covers t = 0.1, where the
    # curve has no Monte Carlo error.
    z_tol, rel_floor = 5.0, 1e-9

    def generate(self, seed: int, workdir: Path) -> Prepared:
        rng = _rng(self.name, seed)
        d = self.dim
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        u, _ = np.linalg.qr(rng.standard_normal((self.rows - 1, d)))
        others = (u * np.sqrt(rng.uniform(0.5, 3.0, d))) @ q.T
        # The replaced record lies along eigenvector k, so both Gram
        # matrices keep the eigenvectors q and ou takes its closed form.
        k = int(rng.integers(d))
        a, b = rng.uniform(1.2, 1.8), rng.uniform(0.25, 0.5)
        design = np.vstack([others, a * q[:, k]])
        design_prime = np.vstack([others, b * q[:, k]])
        sigma = (q * rng.uniform(0.2, 1.0, d)) @ q.T
        sigma = (sigma + sigma.T) / 2.0
        target = rng.standard_normal(self.rows)
        # The mismatch drift_a - drift_b is (a^2 - b^2) (root - q_k'x) q_k,
        # with root = (a y - b y') / (a^2 - b^2) for the replaced record's
        # targets y and y'. y' puts the root within 0.3 of arm a's optimum,
        # so that late in the run the bound grows mostly with the spread of
        # the paths, and the check sees the simulated noise.
        opt = q[:, k] @ np.linalg.solve(design.T @ design, design.T @ target)
        root = opt + rng.uniform(-0.3, 0.3)
        target_prime = target.copy()
        target_prime[-1] = (a * target[-1] - (a * a - b * b) * root) / b
        # x0 starts 0.5 to 1 beyond both the root and the optimum, so the
        # mismatch first shrinks as the paths move toward the optimum. With
        # a mismatch near 0 at x0, the left-endpoint Riemann sum over the
        # first 0.1 of time sees almost none and falls below the exact KL
        # there (measured with a random x0: 0.0046 against 0.0132).
        side = rng.choice([-1.0, 1.0])
        start = side * max(side * root, side * opt) + side * rng.uniform(0.5, 1.0)
        x0 = rng.standard_normal(d)
        x0 += (start - q[:, k] @ x0) * q[:, k]
        doc = {
            "schema_version": 1,
            "seed": int(seed),
            "output_dir": "out",
            "experiment": {
                "kind": "kl-bound",
                "design": design.tolist(),
                "target": target.tolist(),
                "design_prime": design_prime.tolist(),
                "target_prime": target_prime.tolist(),
                "sigma": sigma.tolist(),
                "x0": x0.tolist(),
                "step": self.step,
                "horizon": self.horizon,
                "paths": self.paths,
                "record_stride": self.stride,
            },
        }
        n_steps = round(self.horizon / self.step)
        return Prepared(
            self.name, seed, workdir, _write_config(workdir, doc),
            inputs={"design": design, "target": target, "design_prime": design_prime,
                    "target_prime": target_prime, "sigma": sigma, "x0": x0},
            sizes={"paths": self.paths, "d": d, "steps": n_steps,
                   "recorded_times": n_steps // self.stride + 1},
            work=self.paths * n_steps, work_unit="path_steps",
        )

    run = staticmethod(_run_cli)

    def expected_bound(self, prep: Prepared) -> tuple[np.ndarray, np.ndarray]:
        """Mean and standard error of the Monte Carlo bound curve.

        The Euler-Maruyama scheme of a linear SDE keeps its states jointly
        Gaussian, with moments m' = F m + h b, P' = F P F' + h S and
        Cov(x_{n+j}, x_n) = F^j P_n, where F = I - h G. Each path's bound at
        recorded time t_k is the quadratic form 1/2 sum_{i<k} dt u_i' S^-1 u_i
        of the mismatch u = M x + c; its mean and variance follow from the
        Gaussian moments of u.
        """
        inp = prep.inputs
        b, b2 = inp["design"], inp["design_prime"]
        sigma, h = inp["sigma"], self.step
        d = self.dim
        gram, pull = b.T @ b, b.T @ inp["target"]
        mis_m = b2.T @ b2 - gram
        mis_c = pull - b2.T @ inp["target_prime"]
        f = np.eye(d) - h * gram
        f_stride = np.linalg.matrix_power(f, self.stride)
        n_rec = round(self.horizon / self.step) // self.stride + 1
        mean, cov = inp["x0"].copy(), np.zeros((d, d))
        means, covs = [], []
        for n in range(round(self.horizon / self.step) + 1):
            if n % self.stride == 0:
                means.append(mean)
                covs.append(cov)
            mean = f @ mean + h * pull
            cov = f @ cov @ f.T + h * sigma
        # joint covariance of the recorded states, then of u = M x + c
        joint = np.zeros((n_rec * d, n_rec * d))
        for i in range(n_rec):
            block = covs[i]
            for j in range(i, n_rec):
                joint[j * d:(j + 1) * d, i * d:(i + 1) * d] = block
                joint[i * d:(i + 1) * d, j * d:(j + 1) * d] = block.T
                block = f_stride @ block
        lift = np.kron(np.eye(n_rec), mis_m)
        u_cov = lift @ joint @ lift.T
        u_mean = np.concatenate([mis_m @ m + mis_c for m in means])
        dt = self.step * self.stride
        weight = np.kron(np.eye(n_rec), np.linalg.inv(sigma)) * (0.5 * dt)
        expect, stderr = np.zeros(n_rec), np.zeros(n_rec)
        for k in range(1, n_rec):
            sl = slice(0, k * d)
            wt, c, mu = weight[sl, sl], u_cov[sl, sl], u_mean[sl]
            wc = wt @ c
            expect[k] = np.trace(wc) + mu @ wt @ mu
            var = 2.0 * np.sum(wc * wc.T) + 4.0 * mu @ wt @ c @ wt @ mu
            stderr[k] = np.sqrt(max(var, 0.0) / self.paths)
        return expect, stderr

    def check(self, prep: Prepared, outdir: Path) -> list[str]:
        _, bound = _read_csv(outdir / "bound_curve.csv")
        _, exact = _read_csv(outdir / "exact_kl.csv")
        errs = []
        if bound.shape != exact.shape or not np.array_equal(bound[:, 0], exact[:, 0]):
            return ["bound_curve.csv and exact_kl.csv have different time grids"]
        if bound[0, 1] != 0.0:
            errs.append(f"bound at t=0 is {bound[0, 1]!r}, not 0")
        if np.any(np.diff(bound[:, 1]) < 0.0):
            errs.append("bound curve decreases")
        later = bound[:, 0] > 0.0
        short = bound[later, 1] < exact[later, 1]
        if np.any(short):
            t = bound[later, 0][short][0]
            errs.append(f"bound below exact KL at t={t!r}")
        expect, stderr = self.expected_bound(prep)
        if expect.shape != bound[:, 1].shape:
            return errs + [f"bound curve has {bound.shape[0]} rows, expected {expect.shape[0]}"]
        dev = np.abs(bound[:, 1] - expect)
        off = dev > self.z_tol * stderr + self.rel_floor * np.abs(expect)
        if np.any(off):
            i = int(np.argmax(off))
            errs.append(f"bound at t={bound[i, 0]!r} is {bound[i, 1]!r}, expected "
                        f"{expect[i]!r} +- {stderr[i]:.3g} (1 s.e.)")
        return errs

    def digest(self, prep: Prepared, outdir: Path) -> bytes:
        return _cli_digest(outdir)


class ExactTradeoff:
    """quad-tradeoff with a fixed non-commuting 2-d design at t = 10 on a
    2x2 noise grid, checked against the eigenbasis closed forms."""

    name = "exact-tradeoff"
    design = [[1.0, 0.4], [0.0, 2.0]]
    time, resolution = 10.0, 2
    x_range, y_range = [0.5, 1.5], [0.7, 2.0]
    # Simpson panel doubling stops at a 1e-8 relative change; the error
    # against the closed forms measured at most 1e-9 relative over 15 seeds.
    rtol = 1e-8

    def generate(self, seed: int, workdir: Path) -> Prepared:
        rng = _rng(self.name, seed)
        target = rng.standard_normal(2)
        target_prime = target.copy()
        target_prime[rng.integers(2)] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
        x0 = rng.standard_normal(2)
        doc = {
            "schema_version": 1,
            "seed": int(seed),
            "output_dir": "out",
            "experiment": {
                "kind": "quad-tradeoff",
                "design": self.design,
                "target": target.tolist(),
                "target_prime": target_prime.tolist(),
                "x0": x0.tolist(),
                "time": self.time,
                "x_range": self.x_range,
                "y_range": self.y_range,
                "resolution": self.resolution,
            },
        }
        points = self.resolution**2
        return Prepared(
            self.name, seed, workdir, _write_config(workdir, doc),
            inputs={"target": target, "target_prime": target_prime, "x0": x0},
            sizes={"d": 2, "grid_points": points},
            work=points, work_unit="grid_points",
        )

    run = staticmethod(_run_cli)

    def closed_form(self, prep: Prepared) -> np.ndarray:
        """Rows (x, y, exact_kl, error) from the eigenbasis closed forms."""
        b = np.asarray(self.design)
        t = self.time
        w, q = np.linalg.eigh(b.T @ b)
        decay = np.exp(-w * t)
        prop = (q * decay) @ q.T
        opt_a = np.linalg.solve(b.T @ b, b.T @ prep.inputs["target"])
        opt_b = np.linalg.solve(b.T @ b, b.T @ prep.inputs["target_prime"])
        dmean = (np.eye(2) - prop) @ (opt_a - opt_b)
        wsum = np.add.outer(w, w)
        rows = []
        for x in np.linspace(*self.x_range, self.resolution):
            for y in np.linspace(*self.y_range, self.resolution):
                s_rot = q.T @ np.diag([x * x, y * y]) @ q
                cov = q @ (s_rot * -np.expm1(-wsum * t) / wsum) @ q.T
                kl = 0.5 * float(dmean @ np.linalg.solve(cov, dmean))
                err = 0.5 * float(np.sum(np.diag(s_rot) * -np.expm1(-2.0 * w * t) / w))
                rows.append((x, y, kl, err))
        return np.asarray(rows)

    def check(self, prep: Prepared, outdir: Path) -> list[str]:
        header, got = _read_csv(outdir / "tradeoff.csv")
        if header != ["x", "y", "exact_kl", "error"]:
            return [f"unexpected tradeoff.csv header {header}"]
        want = self.closed_form(prep)
        if got.shape != want.shape:
            return [f"tradeoff.csv has shape {got.shape}, expected {want.shape}"]
        errs = []
        if not np.array_equal(got[:, :2], want[:, :2]):
            errs.append("grid coordinates differ from the configured grid")
        for col, name in ((2, "exact_kl"), (3, "error")):
            rel = np.abs(got[:, col] - want[:, col]) / np.abs(want[:, col])
            if not np.all(rel <= self.rtol):
                errs.append(f"{name} off the closed form by {rel.max():.3e} relative")
        return errs

    def digest(self, prep: Prepared, outdir: Path) -> bytes:
        return _cli_digest(outdir)


class Audit:
    """dp-audit: replace adjacency, anisotropic-param noise, 3-class blobs,
    hidden 16, 300 iterations, batch 32, 4 outer x 8 inner rounds."""

    name = "audit"
    classes, per_class, feat_dim = 3, 50, 4
    hidden, iters, batch, outer, inner = 16, 300, 32, 4, 8
    # At epsilon = 0.05 the mean delta over outer rounds measured 0.011 to
    # 0.076 over 40 seeds. Training both models of a pair on the same data
    # gives 0, and training them with different seeds gave 0.14 to 0.21, so
    # the range below separates both from correct training.
    epsilon = 0.05
    mean_delta_range = (0.002, 0.12)

    def generate(self, seed: int, workdir: Path) -> Prepared:
        rng = _rng(self.name, seed)
        doc = {
            "schema_version": 1,
            "seed": int(seed),
            "output_dir": "out",
            "experiment": {
                "kind": "dp-audit",
                "epsilon": self.epsilon,
                "outer_rounds": self.outer,
                "inner_rounds": self.inner,
                "adjacency": "replace",
                "scheme": {"kind": "anisotropic-param", "sigma2": 0.01},
                "lr": 0.1,
                "iters": self.iters,
                "batch": self.batch,
                "hidden": self.hidden,
                "dataset": {"synth": {
                    "classes": self.classes, "per_class": self.per_class,
                    "dim": self.feat_dim, "separation": 3.0,
                    "seed": int(rng.integers(2**31)),
                }},
            },
        }
        trainings = 2 * self.outer * self.inner
        return Prepared(
            self.name, seed, workdir, _write_config(workdir, doc),
            sizes={"records": self.classes * self.per_class, "dim": self.feat_dim,
                   "trainings": trainings, "iterations": self.iters},
            work=trainings * self.iters, work_unit="train_steps",
        )

    run = staticmethod(_run_cli)

    def check(self, prep: Prepared, outdir: Path) -> list[str]:
        rep = json.loads((outdir / "audit_report.json").read_text())
        n = self.classes * self.per_class
        errs = []
        want = [c / (self.inner * n) for c in rep["counts_per_outer"]]
        if len(want) != self.outer or rep["delta_per_outer"] != want:
            errs.append("delta_per_outer != counts / (inner * N)")
        if rep["total_comparisons"] != self.outer * self.inner * n:
            errs.append(f"total_comparisons is {rep['total_comparisons']}")
        if rep["excluded_rounds"] != 0:
            errs.append(f"{rep['excluded_rounds']} rounds excluded")
        if rep["delta"] != max(rep["delta_per_outer"], default=None):
            errs.append("delta is not the max over outer rounds")
        lo, hi = self.mean_delta_range
        mean = sum(rep["delta_per_outer"]) / max(len(rep["delta_per_outer"]), 1)
        if not lo <= mean <= hi:
            errs.append(f"mean delta over outer rounds {mean!r} is outside [{lo}, {hi}]")
        return errs

    def digest(self, prep: Prepared, outdir: Path) -> bytes:
        return _cli_digest(outdir)


# ---------------------------------------------------------------------------
# library workload


class LeastSquares:
    """Mean least-squares loss with mean-scaled per-example gradients."""

    def __init__(self, features: np.ndarray, targets: np.ndarray):
        self.features = features
        self.targets = targets

    def per_example(self, x: np.ndarray) -> np.ndarray:
        r = self.features @ x - self.targets
        return self.features * (r / self.features.shape[0])[:, None]

    def full(self, x: np.ndarray, ds: "LeastSquares") -> np.ndarray:
        return ds.per_example(x).sum(axis=0)


class SgdDiffusion:
    """paired_simulate of a least-squares problem (d = 5, N = 64, one record
    replaced) under DatasetGradientDrift and MinibatchSgd noise, batch 32,
    from the optimum, 100 paths x 50 steps of 0.005."""

    name = "sgd-diffusion"
    # Steps of 0.05 send the paths to |x - x0| ~ 1e3 by step 50, where the
    # projected covariance (condition number up to 1e16) is too
    # ill-conditioned for the noise check below.
    dim, records, batch, paths, steps, step = 5, 64, 32, 100, 50, 0.005
    psd_floor = 1e-10  # MinibatchSgd's default
    checked_paths = (0, 49, 99)
    noise_rtol = 1e-4

    def generate(self, seed: int, workdir: Path) -> Prepared:
        rng = _rng(self.name, seed)
        feats = rng.standard_normal((self.records, self.dim))
        x_true = rng.standard_normal(self.dim)
        targets = feats @ x_true + 0.5 * rng.standard_normal(self.records)
        j = int(rng.integers(self.records))
        feats_b, targets_b = feats.copy(), targets.copy()
        feats_b[j] = rng.standard_normal(self.dim)
        targets_b[j] = feats_b[j] @ x_true + 0.5 * rng.standard_normal()
        x0 = np.linalg.lstsq(feats, targets, rcond=None)[0]
        work = 2 * self.paths * self.steps
        return Prepared(
            self.name, seed, workdir,
            inputs={"a": LeastSquares(feats, targets), "b": LeastSquares(feats_b, targets_b),
                    "x0": x0},
            sizes={"paths": self.paths, "d": self.dim, "records": self.records,
                   "steps": self.steps, "arms": 2},
            work=work, work_unit="path_steps",
        )

    def run(self, prep: Prepared):
        a, b = prep.inputs["a"], prep.inputs["b"]
        sde = anisopriv.sde
        drift_a = sde.DatasetGradientDrift(a.full, a)
        drift_b = sde.DatasetGradientDrift(a.full, b)
        cov = sde.MinibatchSgd(a.per_example, self.batch, replacement=True)
        cfg = sde.SimConfig(self.step, self.step * self.steps, self.paths, prep.seed)
        return sde.paired_simulate(drift_a, drift_b, cov, prep.inputs["x0"], cfg)

    def noise_mismatch(self, prep: Prepared, outputs) -> float:
        """Largest relative gap, over the checked increments, between the
        squared Mahalanobis norm of an increment's noise part and |z|^2.

        An increment is x' = x + h drift(x) + sqrt(h) R z with R R' = C(x),
        so (x' - x - h drift(x)) / sqrt(h) has Mahalanobis norm |z| under
        C(x) whichever square root R the code takes. C is computed here
        from its definition: the minibatch covariance of arm a's per-example
        gradients, eigenvalues clamped at the projection floor.
        """
        a = prep.inputs["a"]
        n, h = self.records, self.step
        alpha = n * n / self.batch * (1.0 - 1.0 / n)
        worst = 0.0
        for k in range(self.steps):
            z = anisopriv.rng.step_normals(prep.seed, k, (self.paths, self.dim))
            for arm, ens in zip("ab", outputs):
                ds = prep.inputs[arm]
                for p in self.checked_paths:
                    x, x_next = ens.states[p, k], ens.states[p, k + 1]
                    drift = -ds.features.T @ (ds.features @ x - ds.targets) / n
                    noise = (x_next - x - h * drift) / np.sqrt(h)
                    grads = a.features * ((a.features @ x - a.targets) / n)[:, None]
                    full = grads.sum(axis=0)
                    w, q = np.linalg.eigh(alpha * (grads.T @ grads - np.outer(full, full)))
                    cov = (q * np.maximum(w, self.psd_floor)) @ q.T
                    norm2 = noise @ np.linalg.solve(cov, noise)
                    worst = max(worst, abs(norm2 / (z[p] @ z[p]) - 1.0))
        return worst

    def check(self, prep: Prepared, outputs) -> list[str]:
        ens_a, ens_b = outputs
        errs = []
        for arm, ens in (("a", ens_a), ("b", ens_b)):
            if ens.states.shape != (self.paths, self.steps + 1, self.dim):
                return [f"arm {arm} has states of shape {ens.states.shape}"]
            if not np.all(np.isfinite(ens.states)):
                errs.append(f"arm {arm} has non-finite states")
        if not np.array_equal(ens_a.states[:, 0, :], ens_b.states[:, 0, :]):
            errs.append("arms differ at t = 0")
        if not errs:
            gap = self.noise_mismatch(prep, outputs)
            if not gap <= self.noise_rtol:
                errs.append(f"increment noise off its covariance by {gap:.3e} relative")
        return errs

    def digest(self, prep: Prepared, outputs) -> bytes:
        h = hashlib.sha256()
        for ens in outputs:
            h.update(np.ascontiguousarray(ens.times).tobytes())
            h.update(np.ascontiguousarray(ens.states).tobytes())
        return h.digest()


WORKLOADS = {w.name: w for w in (McBound(), ExactTradeoff(), Audit(), SgdDiffusion())}
