#!/usr/bin/env python3
"""Empirical delta across a noise-variance sweep, with the D = D' control.

Defaults reproduce the shipped regression regime: two tanh-separable blobs,
per-parameter noise, full-size bootstrap batches. Expect a few seconds per
sigma2 value at the default training length.
"""

import argparse
import sys
import time

from anisopriv.audit import AuditConfig, estimate_delta
from anisopriv.models import AnisotropicPerParam, Training, synth_blobs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sigma2", type=float, nargs="+", default=[1e-3, 1e-2, 1e-1])
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--rounds", type=int, default=5, help="outer and inner rounds")
    p.add_argument("--lr", type=float, default=1.5)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--hidden", type=int, default=10)
    p.add_argument("--per-class", type=int, default=100)
    p.add_argument("--separation", type=float, default=3.5)
    p.add_argument("--seed", type=int, default=7)
    return p.parse_args(argv)


def run(argv=None) -> int:
    args = parse_args(argv)
    blobs = synth_blobs(2, args.per_class, 2, args.separation, seed=20)
    shared = dict(
        epsilon=args.epsilon, outer_rounds=args.rounds, inner_rounds=args.rounds,
        training=Training(args.lr, args.iters, blobs.size, args.hidden, "tanh"),
        dataset=blobs, seed=args.seed,
    )

    t0 = time.perf_counter()
    control = estimate_delta(
        AuditConfig(scheme=AnisotropicPerParam(args.sigma2[0]), adjacency="null", **shared)
    )
    print(f"control (identical pair): delta={control.delta} "
          f"[{time.perf_counter() - t0:.1f}s]")

    print(f"{'sigma2':>10} {'delta':>10} {'worst outer counts':>20}")
    for s2 in args.sigma2:
        t0 = time.perf_counter()
        rep = estimate_delta(AuditConfig(scheme=AnisotropicPerParam(s2), **shared))
        print(f"{s2:>10g} {rep.delta:>10.4f} {str(list(rep.counts_per_outer)):>20} "
              f"[{time.perf_counter() - t0:.1f}s]")
        if rep.excluded_rounds:
            print(f"  ({rep.excluded_rounds} diverged rounds excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
