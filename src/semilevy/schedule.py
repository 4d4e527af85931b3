"""Periodic schedules of Levy segments and exact path sampling.

A schedule tiles one period [0, p) with Levy segments; repeating the tiling
gives an additive process whose increment laws are periodic in time.  The
two-segment splice alternates two independent processes and is the canonical
construction; a single-segment schedule degenerates to an ordinary Levy
process and doubles as a regression fixture.

All increment laws are computed through one primitive, the per-segment
occupancy of a time interval, which makes periodicity and additivity of the
log-characteristic function exact by construction.  Sampling draws each grid
cell's increment from the occupancy decomposition, so splicing introduces no
discretization bias.  The one-period moments are read off one
small-|z| expansion, `period_expansion`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .models import DimensionMismatch, LevyModel, SumModel, _moments, _repeated, _sample_pieces, _weighted_expansion
from .util import (
    FieldEq, check_counts, check_finite, check_positive, check_size, format_csv, map_indexed, split_seeds,
    stream_states,
)

__all__ = [
    "SemiLevySchedule",
    "PathSample",
    "make_splice",
    "single_segment",
    "increment_exponent",
    "period_exponent",
    "period_expansion",
    "period_mean",
    "period_covariance",
    "equivalent_levy_model",
    "sample_interval_increment",
    "sample_path",
    "sample_paths",
]

# relative tolerance when validating that segment durations tile the period,
# and when snapping times sitting on a period boundary
PERIOD_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SemiLevySchedule(FieldEq):
    """A period p > 0 tiled by an ordered list of (duration, model) segments.

    Segment k runs on (start_k + n p, start_k + duration_k + n p] for every
    period index n; boundary instants belong to the segment that ends there
    (left-open, right-closed convention).
    """

    period: float
    segments: tuple

    def __post_init__(self):
        p = float(self.period)
        check_positive(period=p)
        segs = tuple((float(d), m) for d, m in self.segments)
        if not segs:
            raise ValueError("schedule needs at least one segment")
        for d, m in segs:
            check_positive(duration=d)
            if not isinstance(m, LevyModel):
                raise TypeError("segment models must be LevyModel instances")
        dims = {m.dim for _, m in segs}
        if len(dims) != 1:
            raise DimensionMismatch(f"segment models disagree on dimension: {sorted(dims)}")
        total = math.fsum(d for d, _ in segs)
        if abs(total - p) > PERIOD_TOL * p:
            raise ValueError(
                f"segment durations sum to {total!r}, period is {p!r}; they must tile the period"
            )
        object.__setattr__(self, "period", p)
        object.__setattr__(self, "segments", segs)

    @property
    def dim(self) -> int:
        return self.segments[0][1].dim

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @cached_property
    def durations(self) -> np.ndarray:
        return np.array([d for d, _ in self.segments])

    @cached_property
    def starts(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.durations)[:-1]])

    @property
    def models(self) -> tuple:
        return tuple(m for _, m in self.segments)

    # -- time decomposition ------------------------------------------------

    def segment_occupancy(self, s: float, t: float) -> np.ndarray:
        """Time spent in each segment over [s, t]; entries sum to t - s."""
        if not 0 <= s <= t < math.inf:
            raise ValueError(f"need 0 <= s <= t < inf, got s={s!r}, t={t!r}")
        return _grid_occupancy(self, np.array([s, t], dtype=float))[:, 0]


@dataclass(frozen=True)
class PathSample:
    """Process values on a time grid, with the seed that produced them."""

    grid: np.ndarray
    values: np.ndarray
    seed: int

    def __post_init__(self):
        if self.grid.shape[0] != self.values.shape[0]:
            raise ValueError("grid and values must have the same length")
        # ndarray methods, not np.any wrappers: every path of an ensemble
        # runs these checks
        if self.grid[0] != 0.0 or (self.grid[1:] <= self.grid[:-1]).any():
            raise ValueError("grid must start at 0 and be strictly increasing")
        if self.values[0].any():
            raise ValueError("values[0] must be 0 (the process starts at the origin)")

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def csv_table(self) -> tuple:
        """(header, columns): header t,x1,...,xd then one row per grid point."""
        return "t," + ",".join(f"x{j + 1}" for j in range(self.dim)), [self.grid, *self.values.T]

    def to_csv(self) -> str:
        """CSV text of csv_table."""
        return format_csv(*self.csv_table())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def make_splice(model_y: LevyModel, model_z: LevyModel, q: float, p: float) -> SemiLevySchedule:
    """Two-segment schedule: Y-dynamics on (np, np+q], Z-dynamics on (np+q, (n+1)p]."""
    if not 0 < q < p:
        raise ValueError(f"need 0 < q < p, got q={q!r}, p={p!r}")
    if model_y.dim != model_z.dim:
        raise DimensionMismatch("splice models must share a dimension")
    return SemiLevySchedule(period=p, segments=((q, model_y), (p - q, model_z)))


def single_segment(model: LevyModel, p: float = 1.0) -> SemiLevySchedule:
    """Degenerate one-segment schedule: an ordinary Levy process."""
    return SemiLevySchedule(period=p, segments=((p, model),))


# ---------------------------------------------------------------------------
# increment laws
# ---------------------------------------------------------------------------


def increment_exponent(schedule: SemiLevySchedule, s: float, t: float, z):
    """log E[exp(i <z, X_t - X_s>)], exact via the occupancy decomposition."""
    return _weighted_exponent(schedule, schedule.segment_occupancy(s, t), z)


def period_exponent(schedule: SemiLevySchedule, z):
    """Log-characteristic function of the one-period increment.

    This is the exponent of the ordinary Levy process equivalent to the
    schedule (unit-time law = one-period increment law), the quantity the
    Chung-Fuchs classifier integrates against.
    """
    return _weighted_exponent(schedule, schedule.durations, z)


def _weighted_exponent(schedule: SemiLevySchedule, weights: np.ndarray, z):
    """Sum over segments of weight_k * psi_k(z): a complex scalar, or (m,) for (m, d) points."""
    return sum((w * model.char_exponent(z) for w, model in zip(weights, schedule.models)), 0j)


def period_expansion(schedule: SemiLevySchedule) -> tuple:
    """LevyModel.expansion of the one-period exponent, the segments' weighted by their
    durations; a sum that overflows holds inf or nan, which its readers refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _weighted_expansion(zip(schedule.durations, schedule.models), schedule.dim)


def period_mean(schedule: SemiLevySchedule) -> Optional[np.ndarray]:
    """Mean of the one-period increment, or None when it is infinite."""
    return _moments(period_expansion(schedule), 1.0)[0]


def period_covariance(schedule: SemiLevySchedule) -> Optional[np.ndarray]:
    """Covariance of the one-period increment, or None without second moments."""
    return _moments(period_expansion(schedule), 1.0)[1]


def equivalent_levy_model(schedule: SemiLevySchedule) -> LevyModel:
    """Levy model whose unit-time exponent is the schedule's per-period average.

    The one-period law of `single_segment(equivalent_levy_model(s), s.period)`
    coincides with the schedule's, so recurrence questions reduce to it.
    """
    p = schedule.period
    parts = tuple(model.scaled(dur / p) for dur, model in zip(schedule.durations, schedule.models))
    return parts[0] if len(parts) == 1 else SumModel(parts)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_interval_increment(
    schedule: SemiLevySchedule,
    s: float,
    t: float,
    rng: np.random.Generator,
    size: Optional[int] = None,
):
    """Exact draw(s) of X_t - X_s; a (d,) vector, or (size, d) when size is given."""
    return _sample_pieces(zip(schedule.segment_occupancy(s, t), schedule.models), schedule.dim, rng, size)


def _check_cells(schedule: SemiLevySchedule, cells: float) -> None:
    """Refuse a grid before it is built: per cell its time and 4 temporaries, per segment its row of
    occupancy and its plan."""
    check_size(cells=cells, **{"values per cell": 5 + schedule.n_segments * (2 * schedule.dim + 4)})


def _grid_times(schedule: SemiLevySchedule, horizon: float, step: float) -> np.ndarray:
    check_positive(horizon=horizon, step=step)
    if horizon < step:
        raise ValueError("horizon must be at least one step")
    _check_cells(schedule, horizon / step)
    n = int(math.floor(horizon / step + 1e-9))
    times = np.arange(n + 1) * step
    if horizon - times[-1] > 1e-9 * step:
        times = np.append(times, horizon)
    return times


# Dekker's splitter 2^27 + 1: x * _SPLIT - (x * _SPLIT - x) is x's high 26 bits
_SPLIT = 134217729.0
# periods and quotients within which _periods' remainder is exact: the split
# halves neither overflow nor underflow, and fl(t / p) is off by at most one
_EXACT_PERIODS = (2.0**-900, 2.0**900)
_EXACT_QUOTIENT = 2.0**50


def _periods(times: np.ndarray, p: float) -> tuple:
    """(n, r) with r = np.fmod(times, p) and n = np.rint((times - r) / p) bit for bit,
    for times >= 0 (at t = -0.0 both are zeros of the other sign; inf and nan give n nan).

    n = floor(fl(t / p)): rounding is monotone and whole numbers below 2^53
    are doubles, so n is the count of whole periods or, for r near p, one
    more.  n p = hi + lo exactly (Dekker's two-product), t - hi is exact
    (Sterbenz: hi lies in [t/2, 2t]), and so is (t - hi) - lo, which is r,
    or r - p; such an r < 0 takes p back, exactly.  np.fmod takes what
    this does not cover: quotients of 2^50 or more, inf and nan, and every
    time when p lies outside 2^±900.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the far times are redone below
        n = times / p
        np.floor(n, out=n)
        ph = _SPLIT * p
        ph -= ph - p
        pl = p - ph
        hi = n * p
        nh = n * _SPLIT
        nh -= nh - n
        nl = n - nh
        lo = nh * ph
        lo -= hi
        lo += nh * pl
        lo += nl * ph
        lo += nl * pl
        r = times - hi
        r -= lo
        under = r < 0.0
        if under.any():
            r[under] += p
            n[under] -= 1.0
        bound = _EXACT_QUOTIENT if _EXACT_PERIODS[0] <= p <= _EXACT_PERIODS[1] else 0.0
        far = np.flatnonzero(~(n < bound))
        if far.size:
            r[far] = np.fmod(times[far], p)
            n[far] = np.rint((times[far] - r[far]) / p)
    return n, r


def _grid_occupancy(schedule: SemiLevySchedule, times: np.ndarray) -> np.ndarray:
    # the remainder keeps the period arithmetic exact; instants within
    # PERIOD_TOL of a period boundary are snapped onto it
    p = schedule.period
    n, r = _periods(times, p)
    check_finite(n, "a time's count of periods")
    on_boundary = p - r <= PERIOD_TOL * p
    if on_boundary.any():
        n[on_boundary] += 1.0
        r[on_boundary] = 0.0
    return _occupancy(schedule, n, r)


def _occupancy(schedule: SemiLevySchedule, n: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Time each segment runs between successive instants n_i p + r_i (r_i in [0, p)).

    Shape (n_segments, len(n) - 1), one contiguous row per segment: the
    differences of the time spent in the segment up to each instant, with
    rounding below 0 raised to 0.
    """
    profiles = np.empty((schedule.n_segments, n.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # a time past the float range is refused next
        for row, start, duration in zip(profiles, schedule.starts, schedule.durations):
            np.subtract(r, start, out=row)
            np.maximum(row, 0.0, out=row)
            np.minimum(row, duration, out=row)
            row += n * duration
        occupancy = np.diff(profiles, axis=1)
        np.maximum(occupancy, 0.0, out=occupancy)
    check_finite(occupancy, "a cell's occupancy of its segments")
    return occupancy


# An ensemble finishes its members in blocks of about this many values
# (members x (cells + draws) x d).  It only has to be large enough that short
# members share each segment's numpy calls (10^4 paths of 32 cells take the
# same time at 2^12 to 2^20, and up to twice as long at 1); the bound keeps a
# block's draws small.  A member of more than half this many values is a
# block of its own, and only such blocks go to the thread pool: their numpy
# kernels release the interpreter lock for long enough to overlap, where
# shorter members cost more in pool start-up and hand-off than they gain.
# For 1-d Brownian members that is more than 2^14 cells.
_BLOCK_VALUES = 1 << 16


def _block_members(member_values: float) -> int:
    """Members per block when one member holds about member_values values."""
    return max(1, int(_BLOCK_VALUES // max(member_values, 1.0)))


# the values a member's seed and PCG64 state count as: about 770 bytes of Python objects (tracemalloc)
_MEMBER_VALUES = 100


def _ensemble(schedule: SemiLevySchedule, occupancy: np.ndarray, seed: int, n=None, reduce=None) -> tuple:
    """Cumulative sums of independent cell draws, shape (n, cells + 1, d), or their reductions,
    and the members' seeds.

    Member i starts at the origin and is drawn from default_rng(split_seed(seed, i))'s
    stream, or the one member from default_rng(seed)'s when n is None: its
    segments in order, each one _draw over the cells that spend time in it
    (occupancy holds a row of cell times per segment).  Before any seed is
    derived, one check_size counts what the call holds at once: every member's
    seed and state, the sums of every member (of those in flight with reduce),
    and the draws (_draw_values) of those in flight, a block or one per pool
    worker.  Every member's seed and PCG64 state is derived up front in one
    array pass (util.split_seeds, util.stream_states); each block of members
    then resets one Generator to each state in turn and draws, and each
    segment is finished for the whole block at once and written in place into
    the block's sums, at the segment's flat (cell, coordinate) columns: assigned
    when no earlier segment spends time in any of its cells, else added.  One
    in-place cumsum from the zero row then turns the increments into sums; it
    adds each cell to a sum that is never -0.0, so a cell assigned -0.0 gives
    the bits of one added to zero.  The columns, durations and duration
    coefficients (_coefficients) of each segment are found once per call;
    durations that are all equal are passed as a stride-0 view of the one
    value, which a sampler may draw with a scalar argument.  Member i
    therefore depends neither on the other members nor on the block or pool
    size.  Blocks of one member each run on a thread pool, one worker per
    CPU; larger blocks run in the calling thread.  A seed given alone must
    lie in [0, 2**64).
    With reduce, each block's (members, cells + 1, d) sums are checked and
    passed to it on the pool, and its rows are returned in member order.
    """
    cells, dim = occupancy.shape[1], schedule.dim
    plan = []
    draws = 0.0
    written = np.zeros(cells, bool)  # the cells an earlier segment spends time in
    for model, times in zip(schedule.models, occupancy):
        rows = np.flatnonzero(times > 0.0)
        if rows.size:
            dts = times[rows]
            draws += model._draw_values(dts)
            dts = _repeated(dts[0], dts.size) if (dts == dts[0]).all() else dts
            with np.errstate(all="ignore"):  # inf and nan are refused after the draws
                coefficients = model._coefficients(dts)
            add = written[rows].any()
            written[rows] = True
            plan.append((model, (rows[:, None] * dim + np.arange(dim)).ravel(), dts, coefficients, add))
    n_members = 1 if n is None else n
    size = _block_members(cells * dim + draws)
    n_blocks = -(-n_members // size)
    workers = min(os.cpu_count() or 1, n_blocks) if size == 1 else 1  # one per CPU, at most one per block
    flight = min(size * workers, n_members)
    check_size({"members": n_members, "seed and state each": _MEMBER_VALUES},
               {"sums held": n_members if reduce is None else flight, "values each": (cells + 1) * dim},
               {"members in flight": flight, "draws each": draws})
    seeds = [seed] if n is None else split_seeds(seed, range(n))
    states = stream_states(seeds)
    out = np.zeros((n_members, cells + 1, dim)) if reduce is None else None

    def block(b: int):
        lo = b * size
        members = states[lo : lo + size]
        raws = [[] for _ in plan]
        # one Generator per block; its state is set to each member's stream
        rng = np.random.Generator(np.random.PCG64(0))
        with np.errstate(all="ignore"):  # inf and nan are refused after the sums
            for state in members:
                rng.bit_generator.state = state
                for drawn, (model, _, dts, _, _) in zip(raws, plan):
                    drawn.append(model._draw(dts, rng))
        sums = out[lo : lo + len(members)] if reduce is None else np.zeros((len(members), cells + 1, dim))
        # the increments as (members, cells * d) columns of the sums: a view, the sums being C-ordered
        flat = sums[:, 1:].reshape(len(members), -1)
        with np.errstate(all="ignore"):  # inf and nan are refused next
            # a segment's columns never repeat; a segment none of whose cells an
            # earlier one wrote is assigned, any other is added (onto the zeros
            # of the cells it is the first in)
            for drawn, (model, cols, _, coefficients, add) in zip(raws, plan):
                increments = model._finish(coefficients, drawn).reshape(len(members), -1)
                if add:
                    flat[:, cols] += increments
                else:
                    flat[:, cols] = increments
            np.cumsum(sums, axis=1, out=sums)
        # a sum that meets inf or nan stays so: the last row shows any overflow
        check_finite(sums[:, -1], "a sampled path or walk")
        return None if reduce is None else reduce(sums)

    reduced = map_indexed(block, n_blocks, workers)
    # C order whatever reduce returns, so sums over the members keep one order
    return (out if reduce is None else np.ascontiguousarray(np.concatenate(reduced))), seeds


def sample_path(schedule: SemiLevySchedule, horizon: float, step: float, seed: int) -> PathSample:
    """Sample the process on the grid {0, step, 2 step, ...} up to the horizon.

    The grid gains a final shorter cell when the step does not divide the
    horizon.  Cell increments are exact in law: cells are split internally at
    segment boundaries, so no draw ever straddles two models.  The path draws
    from np.random.default_rng(seed)'s stream; the seed must lie in
    [0, 2**64) (ValueError otherwise).
    """
    times = _grid_times(schedule, horizon, step)
    values, _ = _ensemble(schedule, _grid_occupancy(schedule, times), seed)
    return PathSample(grid=times, values=values[0], seed=int(seed))


def sample_paths(
    schedule: SemiLevySchedule, horizon: float, step: float, n_paths: int, seed: int
) -> list[PathSample]:
    """Independent paths; path i is reproduced by sample_path with split_seed(seed, i)."""
    check_counts(n_paths=n_paths)
    times = _grid_times(schedule, horizon, step)
    values, seeds = _ensemble(schedule, _grid_occupancy(schedule, times), seed, n_paths)
    return [PathSample(grid=times, values=v, seed=s) for v, s in zip(values, seeds)]
