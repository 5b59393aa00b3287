"""Traced runs: spans around the calls into each anisopriv module.

Each traced function is replaced, for the duration of the traced run, at the
module or class attribute where its callers look it up, for example
``anisopriv.sde.step_normals`` (used by ``sde.simulate``) and
``anisopriv.cli.simulate`` (used by the kl-bound runner). No file of the
package changes. A span is ``[name, start, end, parent]`` with ``parent``
the index of the enclosing span or -1; spans stay in memory until the
benchmark writes them out.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans, summed over the layer's spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
from collections import Counter, defaultdict

LAYERS = ("rng", "sde", "linalg", "ou", "bounds", "tradeoff", "models", "audit", "cli")


def _normals(args, kwargs, result) -> int:
    return math.prod(result.shape)


def _bytes_written(args, kwargs, result) -> int:
    return os.path.getsize(args[1])


# (span name, "module[:Class]", attribute, (counter name, count function) or None)
SITES = (
    ("rng.step_normals", "anisopriv.sde", "step_normals", ("rng.normals_drawn", _normals)),
    ("rng.tagged_stream", "anisopriv.models", "tagged_stream", None),
    ("rng.tagged_stream", "anisopriv.audit", "tagged_stream", None),
    ("rng.derive_seed", "anisopriv.audit", "derive_seed", None),
    ("sde.simulate", "anisopriv.cli", "simulate", None),
    ("sde.paired_simulate", "anisopriv.sde", "paired_simulate", None),
    ("sde.drift", "anisopriv.sde:QuadraticDrift", "evaluate", None),
    ("sde.drift", "anisopriv.sde:DatasetGradientDrift", "evaluate", None),
    ("sde.apply_sqrt", "anisopriv.sde:ConstantSpd", "apply_sqrt", None),
    ("sde.apply_sqrt", "anisopriv.sde:MinibatchSgd", "apply_sqrt", None),
    ("sde.whiten", "anisopriv.sde:ConstantSpd", "whiten", None),
    ("sde.minibatch_covariance", "anisopriv.sde", "minibatch_covariance", None),
    ("sde.psd_project", "anisopriv.sde", "psd_project", None),
    ("linalg.spd_init", "anisopriv.linalg:SpdMatrix", "__post_init__", None),
    ("linalg.cholesky", "anisopriv.linalg:SpdMatrix", "chol_lower", None),
    ("ou.exact_state", "anisopriv.cli", "exact_state", None),
    ("ou.exact_state", "anisopriv.tradeoff", "exact_state", None),
    ("ou.error_to_opt", "anisopriv.tradeoff", "error_to_opt", None),
    ("ou.gaussian_kl", "anisopriv.cli", "gaussian_kl", None),
    ("ou.gaussian_kl", "anisopriv.tradeoff", "gaussian_kl", None),
    ("bounds.mc_kl_bound", "anisopriv.cli", "mc_kl_bound", None),
    ("bounds.phi", "anisopriv.bounds", "phi", None),
    ("tradeoff.quadratic_tradeoff", "anisopriv.cli", "quadratic_tradeoff", None),
    ("models.train", "anisopriv.audit", "train", None),
    ("models.loss_and_grad", "anisopriv.models", "loss_and_grad", None),
    ("models.forward", "anisopriv.audit", "forward", None),
    ("audit.estimate_delta", "anisopriv.cli", "estimate_delta", None),
    ("cli.run", "anisopriv.cli", "main", None),
    ("cli.write", "anisopriv.cli", "write_bound_csv", ("cli.write.bytes", _bytes_written)),
    ("cli.write", "anisopriv.cli", "write_grid_csv", ("cli.write.bytes", _bytes_written)),
    ("cli.write", "anisopriv.cli", "write_audit_json", ("cli.write.bytes", _bytes_written)),
    # The benchmark's own gradient callbacks (sgd-diffusion), kept out of sde.
    ("user.grad_fn", "workloads:LeastSquares", "per_example", None),
    ("user.grad_fn", "workloads:LeastSquares", "full", None),
)

_COUNTERS = {counter[0] for *_, counter in SITES if counter}

# Per-layer metrics of a traced run: (name, unit). ".calls" counts spans,
# ".s" sums their durations per repetition.
METRICS = (
    ("rng.step_normals.calls", "count"), ("rng.step_normals.s", "s"),
    ("rng.normals_drawn", "count"), ("rng.tagged_stream.calls", "count"),
    ("rng.derive_seed.calls", "count"),
    ("sde.simulate.s", "s"), ("sde.paired_simulate.s", "s"),
    ("sde.drift.calls", "count"), ("sde.drift.s", "s"),
    ("sde.apply_sqrt.calls", "count"), ("sde.apply_sqrt.s", "s"),
    ("sde.whiten.calls", "count"), ("sde.whiten.s", "s"),
    ("sde.minibatch_covariance.calls", "count"), ("sde.minibatch_covariance.s", "s"),
    ("sde.psd_project.calls", "count"), ("sde.psd_project.s", "s"),
    ("linalg.spd_init.calls", "count"), ("linalg.spd_init.s", "s"),
    ("linalg.cholesky.calls", "count"), ("linalg.cholesky.s", "s"),
    ("ou.exact_state.calls", "count"), ("ou.exact_state.s", "s"),
    ("ou.error_to_opt.calls", "count"), ("ou.error_to_opt.s", "s"),
    ("ou.gaussian_kl.calls", "count"), ("ou.gaussian_kl.s", "s"),
    ("bounds.mc_kl_bound.s", "s"), ("bounds.phi.calls", "count"), ("bounds.phi.s", "s"),
    ("tradeoff.quadratic_tradeoff.s", "s"),
    ("models.train.calls", "count"), ("models.train.s", "s"),
    ("models.loss_and_grad.calls", "count"), ("models.loss_and_grad.s", "s"),
    ("models.forward.calls", "count"), ("models.forward.s", "s"),
    ("audit.estimate_delta.s", "s"),
    ("cli.run.s", "s"), ("cli.write.s", "s"), ("cli.write.bytes", "bytes"),
    ("user.grad_fn.calls", "count"), ("user.grad_fn.s", "s"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Installs span-recording wrappers at SITES and undoes them on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for name, path, attr, counter in SITES:
            owner = _owner(path)
            orig = vars(owner)[attr]
            if isinstance(orig, functools.cached_property):
                new = functools.cached_property(self.wrap(name, orig.func, counter))
                new.__set_name__(owner, attr)
            else:
                new = self.wrap(name, orig, counter)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counts recorded since the last take, then clear them."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one repetition (all METRICS but the overhead)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        busy[name] += end - start
        calls[name] += 1
        self_s[name.split(".")[0]] += end - start - covered[i]
    out = {}
    for metric, _ in METRICS:
        stem, _, kind = metric.rpartition(".")
        if metric in _COUNTERS:
            out[metric] = counts[metric]
        elif kind == "calls":
            out[metric] = calls[stem]
        elif kind == "s":
            out[metric] = busy[stem]
        elif kind == "self_s":
            out[metric] = self_s[stem]
    return out
