"""Seed splitting and small Monte Carlo plumbing shared across modules."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
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


def map_indexed(fn: Callable[[int], T], n: int, workers: int = 1) -> list[T]:
    """Evaluate fn(0), ..., fn(n-1), on a thread pool when workers > 1.

    Results come back in index order, so output is independent of scheduling;
    callers keep determinism by seeding each index through split_seed.
    """
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n)))
    return [fn(i) for i in range(n)]


def weighted_sum(weights, terms, total):
    """total + sum of w * t over paired weights and terms.

    None propagates: the result is None as soon as a term is None (an
    infinite moment stays infinite under positive weights).
    """
    for w, t in zip(weights, terms):
        if t is None:
            return None
        total = total + w * t
    return total


def check_finite(values: np.ndarray, what: str) -> None:
    """FloatingPointError when values hold an inf or a nan: never a silent value."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} overflowed: it holds inf or nan")


def format_float(x: float) -> str:
    """Shortest exact decimal form of a float, for diffable text outputs."""
    return repr(float(x))


# rows formatted per %-operation by format_csv: bounds its format string
CSV_CHUNK_ROWS = 4096


def format_csv(header: str, columns, int_columns: int = 0) -> str:
    """CSV text: the header line, then row i of the equal-length columns.

    The first int_columns columns are written as integers, the others in
    full double precision, 17 significant digits ("%.17g" % x, the same text
    as format(x, ".17g")).
    Rows are formatted a chunk at a time by one %-operation on a repeated
    row template.
    """
    row = ",".join(["%d"] * int_columns + ["%.17g"] * (len(columns) - int_columns)) + "\n"
    table = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    parts = [header + "\n"]
    for lo in range(0, table.shape[0], CSV_CHUNK_ROWS):
        chunk = table[lo : lo + CSV_CHUNK_ROWS]
        parts.append(row * chunk.shape[0] % tuple(chunk.ravel().tolist()))
    return "".join(parts)


def arrays_equal(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and bool(np.all(a == b))


class FieldEq:
    """Equality of frozen dataclasses: the same type and equal fields, arrays entry by entry."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return False
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(arrays_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)
