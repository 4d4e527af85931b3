"""Seed splitting and small Monte Carlo plumbing shared across modules."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")


def split_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit seed of stream `index` from a master seed.

    The rule is fixed so any sampled object can be regenerated from the pair
    (master seed, index) alone: the pair is fed to numpy's SeedSequence and
    the first 64-bit word of its state is kept.
    """
    ss = np.random.SeedSequence((int(master_seed) & 0xFFFFFFFFFFFFFFFF, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def map_indexed(fn: Callable[[int], T], n: int, threads: int = 1) -> list[T]:
    """Evaluate fn(0), ..., fn(n-1), optionally on a thread pool.

    Results come back in index order, so output is independent of scheduling;
    callers keep determinism by seeding each index through split_seed.
    """
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


def format_float(x: float) -> str:
    """Shortest exact decimal form of a float, for diffable text outputs."""
    return repr(float(x))


def format_csv_float(x: float) -> str:
    """Full double precision (17 significant digits) for CSV cells."""
    return format(float(x), ".17g")


def arrays_equal(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.all(a == b))

