#!/usr/bin/env python3
"""Monte-Carlo KL bound vs exact Gaussian KL for an adjacent quadratic pair.

Writes bound_curve.csv and exact_kl.csv and prints the closed-form bound
values for the matching regularity parameters.
"""

import argparse
import csv
import pathlib
import sys

import numpy as np

from anisopriv.bounds import (
    RegularityParams,
    klbound_closed,
    klbound_stationary,
    mc_kl_bound,
    write_bound_csv,
)
from anisopriv.linalg import SpdMatrix
from anisopriv.ou import QuadraticProblem, exact_state, gaussian_kl
from anisopriv.sde import ConstantSpd, QuadraticDrift, SimConfig


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--target-gap", type=float, default=0.1)
    p.add_argument("--horizon", type=float, default=2.0)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out/bounds"))
    return p.parse_args(argv)


def run(argv=None) -> int:
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    design = np.array([[1.0]])
    sigma = SpdMatrix([[1.0]])
    drift_a = QuadraticDrift(design, np.array([0.0]))
    drift_b = QuadraticDrift(design, np.array([args.target_gap]))
    prob_a = QuadraticProblem(design, [0.0], sigma, [0.0])
    prob_b = QuadraticProblem(design, [args.target_gap], sigma, [0.0])
    cov = ConstantSpd(sigma)

    cfg = SimConfig(0.01, args.horizon, args.paths, args.seed, record_stride=10)
    curve = mc_kl_bound(drift_a, drift_b, cov, cov, [0.0], cfg)
    write_bound_csv(curve, args.out / "bound_curve.csv")

    with open(args.out / "exact_kl.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "kl"])
        for t in curve.times:
            kl = 0.0 if t == 0.0 else gaussian_kl(
                exact_state(prob_a, float(t)), exact_state(prob_b, float(t))
            )
            w.writerow([f"{t:.17g}", f"{kl:.17g}"])

    final_kl = gaussian_kl(
        exact_state(prob_a, args.horizon), exact_state(prob_b, args.horizon)
    )
    print(f"bound({args.horizon}) = {curve.bounds[-1]:.6g} "
          f">= exact kl {final_kl:.6g}")

    params = RegularityParams(
        kappa=1.0, grad_lip=1.0, kappa_prime=1.0, grad_lip_prime=1.0,
        sigma=1.0, sigma_prime=1.0, lsi0=2.0,
        xstar=np.array([0.0]), xstar_prime=np.array([args.target_gap]),
    )
    print(f"time-uniform closed bound  {klbound_closed(params):.6g}")
    print(f"stationary-start variant   {klbound_closed(params, stationary_limit=True):.6g}")
    print(f"stationary-pair bound      {klbound_stationary(params):.6g}")
    print(f"wrote {args.out}/bound_curve.csv and exact_kl.csv")
    return 0


if __name__ == "__main__":
    sys.exit(run())
