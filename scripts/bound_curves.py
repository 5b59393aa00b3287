#!/usr/bin/env python3
"""KL bound vs exact Gaussian KL for an adjacent quadratic pair.

Runs the kl-bound experiment, which writes bound_curve.csv (the bound, exact
on the Euler grid, so it takes no path count or seed) and exact_kl.csv (with
its config and manifest) into --out, and prints the closed-form bound values
for the matching regularity parameters.
"""

import argparse
import json
import pathlib
import sys

import numpy as np

from anisopriv.bounds import RegularityParams, klbound_closed, klbound_stationary
from anisopriv.cli import main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--target-gap", type=float, default=0.1)
    p.add_argument("--horizon", type=float, default=2.0)
    p.add_argument("--out", type=pathlib.Path, default=pathlib.Path("out/bounds"))
    return p.parse_args(argv)


def run(argv=None) -> int:
    args = parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    cfg = args.out / "kl-bound.json"
    cfg.write_text(json.dumps({
        "output_dir": ".",
        "experiment": {
            "kind": "kl-bound", "design": [[1.0]], "target": [0.0],
            "target_prime": [args.target_gap], "sigma_diag": [1.0], "x0": [0.0],
            "step": 0.01, "horizon": args.horizon, "record_stride": 10,
        },
    }, indent=2))
    code = main(["run", str(cfg)])
    if code:
        return code

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
