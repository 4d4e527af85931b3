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

CSV text: csv_chunks yields the bytes of "%.17g" % x a chunk at a time;
write_csv writes each chunk to a file as it is made, so no file's text is
ever held whole, and format_csv joins the same chunks into a str.  Tables
of 500 values or more are formatted by array arithmetic: 17 correctly
rounded digits from a double-double product with a table of powers of ten,
laid out as ASCII by table lookups.  The % row template stays the exact
fallback for the rows it cannot round with certainty (near ties, values
next to a power of ten) and for nan and inf.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

A = TypeVar("A")
T = TypeVar("T")

# seeds and stream indices lie in [0, SEED_BOUND): at most two 32-bit words
SEED_BOUND = 1 << 64

# the one memory budget: most values one sampling call may hold at once (1 GiB of
# float64); check_size compares the sizes with it before anything it counts is made
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


def map_ahead(fn: Callable[[A], T], items: Iterable[A], ahead: bool) -> Iterator[T]:
    """fn(a) for each a of items, in order, as a generator: plain map unless ahead.

    With ahead, fn runs on one worker thread, one item ahead of the caller:
    fn of the next item is computed while the caller uses the current result,
    and fn is never called for an item past the last.  The calls keep their
    order and never overlap each other.  The thread starts at the first next()
    and is joined, after the call it is running, when the generator is
    exhausted, raises or is closed.
    """
    if not ahead:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for a in items:
            current, pending = pending, worker.submit(fn, a)
            if current is not None:
                yield current.result()
        if pending is not None:
            yield pending.result()


def check_positive(**values: float) -> None:
    """ValueError unless every value is positive and finite, naming the first that is not."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def check_counts(least: int = 0, **counts) -> None:
    """ValueError unless every count is an integer, not a bool, of at least `least`, naming the first that is not."""
    for name, value in counts.items():
        if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least):
            shown = value.item() if isinstance(value, np.generic) else value  # a numpy scalar as a plain number
            raise ValueError(f"{name} must be an integer of at least {least}, got {shown!r}")


def check_size(*terms: dict, **sizes: float) -> None:
    """ValueError when one sampling call would hold over MAX_VALUES values: the sizes' product, or the terms' sum.

    The sizes are compared as floats, a count past the float range as inf,
    so no count is too large to check; the message names every factor.
    """
    terms = [{name: float(size) if size <= sys.float_info.max else math.inf for name, size in term.items()}
             for term in terms or [sizes]]
    values = sum(math.prod(term.values()) for term in terms)
    if not values <= MAX_VALUES:
        factors = " + ".join(" x ".join(f"{name} {size:.6g}" for name, size in term.items()) for term in terms)
        raise ValueError(
            f"one sampling call would hold {values:.3g} values ({factors}), more than the bound of {MAX_VALUES}"
        )


def check_increasing(times, name: str, least: int = 1) -> np.ndarray:
    """times as a 1-d float array of at least `least` positive, finite, strictly increasing values."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < least:
        raise ValueError(f"{name} must be a 1-d sequence of at least {least} values")
    if not (np.isfinite(t).all() and t[0] > 0.0 and (np.diff(t) > 0.0).all()):
        raise ValueError(f"{name} must be positive and finite, and strictly increasing")
    return t


def check_finite(values: np.ndarray, what: str) -> None:
    """FloatingPointError when values hold an inf or a nan: never a silent value."""
    if not np.isfinite(values).all():
        raise FloatingPointError(f"{what} overflowed: it holds inf or nan")


def format_float(x: float) -> str:
    """Shortest exact decimal form of a float, for diffable text outputs."""
    return repr(float(x))


def format_value(v) -> str:
    """One value of a key=value line: a float in shortest exact form, an integer
    as one, a sequence's floats comma-joined, a string with its spaces as _."""
    if isinstance(v, str):
        return v.replace(" ", "_")
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, (tuple, list, np.ndarray)):
        return ",".join(format_float(x) for x in np.asarray(v).ravel())
    return str(v)


def render_line(pairs: Iterable) -> str:
    """`key=value ...` of (key, value) pairs in the order given, each value by format_value."""
    return " ".join(f"{key}={format_value(value)}" for key, value in pairs)


# values formatted per chunk by csv_chunks (whole rows, at least one): bounds
# its working set at about 250 bytes a value, 2 MB.  A 64,001-row, 2-column
# table took 25 ms at 8,192 on a 2-vCPU Xeon guest, 28-29 ms at 4,096 to
# 32,768 and 41 ms at 2,048
CSV_CHUNK_VALUES = 8192
# smaller tables take the row template alone: the array formatter's fixed
# cost (~0.15 ms a chunk) outweighs its gain below ~400 values
CSV_ARRAY_MIN_VALUES = 500
# p = 16 - floor(log10|x|) over the finite nonzero doubles, with a margin
_P_MIN, _P_MAX = -294, 342
_TENS = 10 ** np.arange(18, dtype=np.int64)


@functools.cache
def _csv_tables():
    """The array formatter's tables, from integer arithmetic on its first call (~8 ms).

    10**p = (h + l) * 2**t to 2**-106 with h = hh + hl in 26-bit halves; the
    rest are used and described in _csv_chunk.
    """
    rows = []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        t = num.bit_length() - den.bit_length()
        num, den = num << max(120 - t, 0), den << max(t - 120, 0)
        s = (2 * num + den) // (2 * den)  # round(10**p * 2**(120 - t))
        h = float(s)
        hh = 134217729.0 * h - (134217729.0 * h - h)
        rows.append([math.ldexp(v, -120) for v in (h, hh, h - hh, float(s - int(h)))] + [t])
    g, place, q = np.arange(10**4, dtype=np.int16)[:, None], np.arange(4), np.arange(21)[:, None]
    full = (g // _TENS[3::-1].astype(np.int16) % 10 + 48).astype(np.uint8)
    lead = place < 4 - np.maximum(np.searchsorted(_TENS, g, side="right"), 1)
    trail = place >= 4 - (g % _TENS[1:5].astype(np.int16) == 0).sum(axis=1, keepdims=True)
    dotted = np.where(place == 0, 46, full)[:1000]
    words = [a.view(np.uint32).ravel() for a in (
        0 * full, np.where(lead, 0, full), full, np.where(trail, 0, full), np.where(trail[:1000], 0, dotted), dotted)]
    exps = b"".join(f"\0e{k:+03d}".encode().ljust(8, b"\0") for k in range(-330, 331))
    scales = _TENS[np.concatenate([np.minimum(q, 17), np.maximum(q - 3, 0), np.minimum(20 - q, 17),
                                   np.maximum(3 - q, 0)], 1)]
    pow10 = np.array(rows)
    return (pow10[:, :4], pow10[:, 4].astype(np.int32), np.concatenate(words[:3]), np.concatenate(words[2:4][::-1]),
            np.concatenate(words[4:]), np.frombuffer(exps, np.uint32).reshape(-1, 2), scales)


def _digits(x, pow10, shift):
    """d, k, bad: x > 0 rounded to 17 digits, d * 10**(k - 16) with 10**16 <= d < 10**17.

    v = x * 10**(16 - k) is found to about 1e-13; bad flags v within 2**-30
    of a half, log10 rounded across a power of 10, and d rounded up to 10**17.
    """
    k = np.floor(np.log10(x)).astype(np.int32)
    i = 16 - k - _P_MIN
    h, hh, hl, l = np.take(pow10, i, axis=0).T
    y = np.ldexp(x, shift[i])  # exact; y * (h + l) = v to 2**-106
    c = y * 134217729.0
    yh = c - (c - y)
    yl = y - yh
    p = y * h
    q = ((yh * hh - p) + yh * hl + yl * hh) + yl * hl + y * l  # y * h - p exactly, + y * l
    whole = np.floor(p)  # p > 2**53 is whole unless k is off by one
    q += p - whole
    qf = np.floor(q)
    floor = whole.astype(np.int64) + qf.astype(np.int64)
    d = floor + (q - qf > 0.5)
    return d, k, (np.abs(q - qf - 0.5) < 2.0**-30) | (floor < 10**16) | (d >= 10**17)


def _csv_chunk(chunk: np.ndarray, int_columns: int, row: str) -> bytes:
    """The bytes of `row % values` for every row of chunk, from array arithmetic.

    chunk is the caller's own copy: its integer columns are truncated in
    place.  Each value fills 12 uint32 words at fixed places (sign and 17
    integer digits, '.' and 20 fraction digits, exponent, separator), NUL
    where nothing is printed.  Rows _digits flags, or with a nan, an inf or
    an integer of 10**17 or more, take `row %`.
    """
    pow10, shift, ints, fracs, dots, exps, scales = _csv_tables()
    r, c = chunk.shape
    chunk[:, :int_columns] = np.trunc(chunk[:, :int_columns]) + 0.0  # "%d": truncated, never -0
    neg = np.signbit(chunk).ravel()
    x = np.abs(chunk).ravel()
    zero = x == 0.0
    live = (x < np.inf) & ~zero
    d, k, bad = _digits(np.where(live, x, 1.0), pow10, shift)
    bad = (bad & live) | ~(live | zero)
    bad.reshape(r, c)[:, :int_columns] |= np.abs(chunk[:, :int_columns]) >= 1e17
    d[zero], k[zero] = 0, 0
    # the last q digits of d follow the point (16 - k in fixed form, 16 in
    # exponent form); the 20 fraction digits, left-aligned, are a (3) and b (17)
    expo = (k < -4) | (k > 16)
    unit, div, up_b, up_a = np.take(scales, np.where(expo, 16, 16 - k), axis=0).T
    whole = d // unit
    frac = d - whole * unit
    a = frac // div
    b = (frac - a * div) * up_b
    a *= up_a
    # ints[g + 10**4 * j]: 4-digit group g with all digits (j = 0), the leading
    # zeros but the units (1) or none (2) blanked; from the units up, and the
    # sign one word before the highest group any value of the chunk needs
    n_groups = next(j for j in range(1, 6) if whole.max() < 10 ** (4 * j))
    skip = max(4 - n_groups, 0)
    words = np.zeros((x.size, 12 - skip), np.uint32)
    rest = whole
    for j in range(n_groups):
        group = rest % 10**4
        rest = rest // 10**4
        shown = 1 + (whole >= 10 ** (4 * j + 4)) - ((whole < 10 ** (4 * j)) & (j > 0))
        words[:, 4 - j - skip] = ints[group + 10**4 * shown]
    words[:, 0] |= neg * np.uint32(ord("-"))
    # fracs[g + 10**4 * j] (dots: '.' and 3 digits) blanks the trailing zeros
    # (j = 0) or none (1): from the last digit up, until a digit is printed
    b16 = b // 10
    last = b - 10 * b16
    words[:, 10 - skip] = fracs[1000 * last]
    more = last != 0
    hi = b16 // 10**8
    for col, v in ((8, b16 - hi * 10**8), (6, hi)):
        upper = v // 10**4
        for col, group in ((col + 1, v - upper * 10**4), (col, upper)):
            words[:, col - skip] = fracs[group + 10**4 * more]
            more |= group != 0
    words[:, 5 - skip] = dots[a + 1000 * more]
    e = np.flatnonzero(expo)
    words[e, 10 - skip :] |= exps[k[e] + 330]  # from the byte after the last digit
    words.reshape(r, c, -1)[:, :, -1] |= np.array([ord(",")] * (c - 1) + [ord("\n")], np.uint32) << 16
    text = words.view(np.uint8).reshape(r, -1)
    if not bad.any():
        return text[text != 0].tobytes()
    fallback = bad.reshape(r, c).any(axis=1)
    text[fallback] = 0
    text[fallback, 0] = 1  # a marker where each fallback row goes
    pieces = text[text != 0].tobytes().split(b"\x01")
    # "%d" of a truncated value is that of the value
    return b"".join(p + (row % tuple(v)).encode() for p, v in zip(pieces, chunk[fallback].tolist())) + pieces[-1]


def csv_chunks(header: str, columns, int_columns: int = 0) -> Iterator[bytes]:
    """The ASCII bytes of a CSV table, a chunk at a time: the header line, then row i of
    the equal-length columns.

    The first int_columns columns are written as integers ("%d" % x), the
    others in full double precision, 17 significant digits ("%.17g" % x,
    the same text as format(x, ".17g")): the bytes of the row template
    `row % values`.  Tables of CSV_ARRAY_MIN_VALUES values or more are
    formatted CSV_CHUNK_VALUES values at a time by _csv_chunk, each chunk
    stacked from slices of the columns, so no more than one chunk's text
    and working set is made at once; smaller tables, and the rows
    _csv_chunk cannot round exactly, take the template.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["%d"] * int_columns + ["%.17g"] * (len(columns) - int_columns)) + "\n"
    n = columns[0].shape[0]
    yield (header + "\n").encode()
    if n * len(columns) < CSV_ARRAY_MIN_VALUES:  # fewer rows than a chunk
        yield (row * n % tuple(np.column_stack(columns).ravel().tolist())).encode()
        return
    rows = max(CSV_CHUNK_VALUES // len(columns), 1)
    for lo in range(0, n, rows):
        yield _csv_chunk(np.column_stack([c[lo : lo + rows] for c in columns]), int_columns, row)


def format_csv(header: str, columns, int_columns: int = 0) -> str:
    """CSV text of the table csv_chunks writes: its chunks joined."""
    return b"".join(csv_chunks(header, columns, int_columns)).decode("ascii")


def write_csv(path, header: str, columns, int_columns: int = 0) -> None:
    """Write the table csv_chunks writes to the file at path, each chunk as it is made."""
    with open(path, "wb") as out:
        out.writelines(csv_chunks(header, columns, int_columns))




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
