"""Seed splitting, input checks and small Monte Carlo plumbing shared across modules.

Each input rule is written once here, as a check_* function that the
modules and the config reader call.

Reproducibility: every random stream is numpy's PCG64 seeded through
SeedSequence, the generator np.random.default_rng(seed) returns.  Stream i
of a master seed has the seed split_seed(master, i), the first 64-bit word
of SeedSequence((master, i)).  An ensemble derives the split seeds and the
PCG64 states of all its members at once: stream_states ports SeedSequence's
hash (O'Neill's seed_seq_fe) to uint32 array arithmetic over the members and
runs PCG64's seeding step (pcg_setseq_128_srandom_r) on Python integers, bit
for bit what numpy computes one member at a time.  That relies on numpy's
stream-compatibility policy (NEP 19), which fixes SeedSequence and PCG64
across numpy versions.  Seeds and stream indices lie in [0, 2**64).
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from typing import Callable, Iterable, TypeVar

import numpy as np

T = TypeVar("T")

# seeds and stream indices lie in [0, SEED_BOUND): at most two 32-bit words
SEED_BOUND = 1 << 64

# most values one sampling call may hold (1 GiB of float64); check_size
# compares the sizes with it before any grid, seed list or array is built
MAX_VALUES = 1 << 27

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# 0-d arrays: numpy applies them to small arrays faster than scalars
_MIX_L, _MIX_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)
_SHIFT = np.array(16, np.uint32)
_POOL = 4  # SeedSequence's default pool size, in 32-bit words

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """(2, n, 1) uint32: the xor and the multiplier of n successive hashmix calls."""
    out, h = [], init
    for _ in range(n):
        nxt = h * mult & 0xFFFFFFFF
        out.append((h, nxt))
        h = nxt
    return np.array(out, dtype=np.uint32).T[..., None]


# mix_entropy runs one hashmix per pool word, then one for each (source,
# destination) pair of distinct words, source-major.  Round s holds a
# constant for every row; the source row's is a 0 that is never used, since
# that word is kept.
_MIX = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_FILL_XOR, _FILL_MULT = _MIX[:, :_POOL]
_ROUNDS = [
    tuple(np.insert(_MIX[:, _POOL + (_POOL - 1) * s : _POOL + (_POOL - 1) * (s + 1)], s, 0, axis=1))
    for s in range(_POOL)
]
# generate_state runs one hash per output word, cycling through the pool
_OUT_XOR, _OUT_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _seed_words(values: Iterable, what: str) -> np.ndarray:
    """(2, n) uint32: the low and high words of integers in [0, SEED_BOUND).

    ValueError for a value outside that range, TypeError for a non-integer,
    before any array is built.
    """
    values = list(map(operator.index, values))
    if values and not (min(values) >= 0 and max(values) < SEED_BOUND):
        raise ValueError(f"{what} must be in [0, 2**64)")
    # '<' pins the word order: SeedSequence splits integers little-endian
    return np.array(values, dtype="<u8").view("<u4").reshape(-1, 2).T


def _seed_sequence(entropy: np.ndarray, n_words64: int) -> np.ndarray:
    """SeedSequence(entropy_j).generate_state(n_words64, uint64) for every column j.

    entropy is (4, n) uint32, one entropy word list per column, zero-padded
    to the pool size: SeedSequence hashes missing pool words as zeros, so the
    padding is exact.  Each mixing round is one array operation over all
    columns.  Returns (n, n_words64) uint64.
    """
    pool = entropy ^ _FILL_XOR
    pool *= _FILL_MULT
    pool ^= pool >> _SHIFT
    for s, (xor, mult) in enumerate(_ROUNDS):
        hashed = pool[s] ^ xor
        hashed *= mult
        hashed ^= hashed >> _SHIFT
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        mixed[s] = pool[s]
        pool = mixed
    n32 = 2 * n_words64
    words = np.concatenate((pool, pool))[:n32] ^ _OUT_XOR[:n32]
    words *= _OUT_MULT[:n32]
    words ^= words >> _SHIFT
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8")


def split_seeds(master_seed: int, indices: Iterable) -> list[int]:
    """split_seed(master_seed, i) for every i in indices, from one array hash.

    The master is an integer reduced mod 2**64; each index must be an
    integer in [0, 2**64).
    """
    master = operator.index(master_seed) & (SEED_BOUND - 1)
    index = _seed_words(indices, "stream index")
    # SeedSequence((master, i)) hashes master's words (one below 2**32),
    # then i's; a high word of 0 equals the zero padding
    at = 1 if master < 1 << 32 else 2
    entropy = np.zeros((_POOL, index.shape[1]), dtype=np.uint32)
    entropy[:at] = _seed_words([master], "master seed")[:at]
    entropy[at : at + 2] = index
    return _seed_sequence(entropy, 1)[:, 0].tolist()


def split_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit seed of stream `index` from a master seed.

    The rule is fixed so any sampled object can be regenerated from the pair
    (master seed, index) alone: the pair is fed to numpy's SeedSequence and
    the first 64-bit word of its state is kept.  The one-element split_seeds.
    """
    return split_seeds(master_seed, [index])[0]


def stream_states(seeds: Iterable) -> list[dict]:
    """bit_generator.state of np.random.default_rng(seed) for every seed.

    One array hash gives each seed's four PCG64 seeding words; PCG64's
    seeding step then runs per seed on Python integers.  Each seed must lie
    in [0, 2**64).
    """
    words = _seed_words(seeds, "seed")
    entropy = np.zeros((_POOL, words.shape[1]), dtype=np.uint32)
    entropy[:2] = words
    states = []
    for s_hi, s_lo, i_hi, i_lo in _seed_sequence(entropy, 4).tolist():
        # pcg64_set_seed: state 0, inc = 2 initseq + 1, step, add initstate, step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append(
            {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
        )
    return states


def map_indexed(fn: Callable[[int], T], n: int, workers: int = 1) -> list[T]:
    """Evaluate fn(0), ..., fn(n-1), on a thread pool when workers > 1.

    Results come back in index order, so output is independent of scheduling;
    callers keep determinism by seeding each index through split_seeds.
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


def check_positive(**values: float) -> None:
    """ValueError unless every value is positive and finite, naming the first that is not."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_counts(least: int = 0, **counts) -> None:
    """ValueError unless every count is an integer of at least `least`, naming the first that is not."""
    for name, value in counts.items():
        if not (isinstance(value, numbers.Integral) and value >= least):
            raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def check_size(**sizes: float) -> None:
    """ValueError when one sampling call of these named sizes would hold more than MAX_VALUES values.

    The sizes are compared as floats, a count past the float range as inf,
    so no count is too large to check; the message names every factor.
    """
    floats = {name: float(size) if size <= sys.float_info.max else math.inf for name, size in sizes.items()}
    values = math.prod(floats.values())
    if values > MAX_VALUES:
        factors = " x ".join(f"{name} {size:.6g}" for name, size in floats.items())
        raise ValueError(
            f"one sampling call would hold {values:.3g} values ({factors}), more than the bound of {MAX_VALUES}"
        )


def check_increasing(times, name: str, least: int = 1) -> np.ndarray:
    """times as a 1-d float array of at least `least` positive, finite, strictly increasing values."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < least:
        raise ValueError(f"{name} must be a 1-d sequence of at least {least} values")
    if not (t[0] > 0.0 and t[-1] < math.inf and (np.diff(t) > 0.0).all()):
        raise ValueError(f"{name} must be positive and finite, and strictly increasing")
    return t


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
