"""Counter-based random streams.

All stochastic code draws from Philox, keyed so every value is a pure
function of (seed, logical position). Execution order, worker count, and
chunking can then never change a result.
"""

from __future__ import annotations

import numpy as np

# Disjoint 2^128-wide counter windows per step; no draw can cross windows.
_STEP_STRIDE_BITS = 128


def step_normals(seed: int, step: int, shape: tuple[int, ...]) -> np.ndarray:
    """Standard-normal block for one time step, row-major (path, coordinate)."""
    bitgen = np.random.Philox(key=np.uint64(seed), counter=int(step) << _STEP_STRIDE_BITS)
    return np.random.Generator(bitgen).standard_normal(shape)


# The tagged_stream tag of each use, named here so that no two uses share one:
# MLP init, minibatch indices, gradient noise, synth_blobs, audit adjacency.
INIT_TAG, BATCH_TAG, NOISE_TAG, SYNTH_TAG, ADJACENCY_TAG = 1, 2, 3, 4, 5


def tagged_stream(seed: int, tag: int) -> np.random.Generator:
    """Independent named stream: same seed + different tag never collide."""
    return np.random.Generator(np.random.Philox(key=(np.uint64(seed), np.uint64(tag))))


def derive_seed(master: int, *indices: int) -> int:
    """Collision-resistant 64-bit child seed for (master, index path)."""
    words = np.random.SeedSequence([int(master), *[int(i) for i in indices]]).generate_state(2)
    return int(words[0]) << 32 | int(words[1])
