"""Discrete skeletons of periodic schedules and ball-visit statistics.

Sampling the process at step h = p * num / den produces a discrete-time walk
whose increment laws repeat with integer period den.  The step is kept as an
exact rational multiple of the period (a float step would silently break the
periodicity), and walk increments are composed from exact segment draws, not
read off a path grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import PathSample, SemiLevySchedule, _block_members, _check_cells, _ensemble, _occupancy
from .util import check_counts, check_positive, format_csv

__all__ = [
    "RationalStep",
    "WalkSample",
    "BallVisitCurve",
    "sample_walk",
    "sample_walks",
    "ball_visit_curve",
    "occupation_time",
    "occupations_table",
    "occupations_csv",
]


@dataclass(frozen=True)
class RationalStep:
    """Sampling step h = period * num / den, reduced to lowest terms, each below 2^63; walks repeat with period den."""

    num: int
    den: int

    def __post_init__(self):
        check_counts(least=1, num=self.num, den=self.den)
        g = math.gcd(self.num, self.den)
        object.__setattr__(self, "num", int(self.num) // g)
        object.__setattr__(self, "den", int(self.den) // g)
        if max(self.num, self.den) >= 2**63:
            raise ValueError(f"{self.num}/{self.den} reaches 2^63, past the int64 arithmetic of walk steps")

    def step(self, period: float) -> float:
        return period * self.num / self.den


@dataclass(frozen=True)
class WalkSample:
    """Walk values S_0 = 0, S_1, ..., with the step and seed that produced them."""

    steps: np.ndarray
    rational_step: RationalStep
    seed: int

    def __post_init__(self):
        if self.steps[0].any():  # as in PathSample
            raise ValueError("steps[0] must be 0")

    @property
    def n_steps(self) -> int:
        return self.steps.shape[0] - 1


def _walk_occupancy(schedule: SemiLevySchedule, rs: RationalStep, n_steps: int) -> np.ndarray:
    """Occupancy of each walk step, a row per segment, via exact integer period counts.

    Step k covers [k h, (k+1) h] with h = p num / den; the position of k h
    inside its period is p * ((k num) mod den) / den, an exact rational, so
    segment boundaries never drift no matter how long the walk is.
    """
    check_counts(least=1, n_steps=n_steps)
    _check_cells(schedule, n_steps)
    if n_steps * rs.num >= 2**63:
        raise ValueError(
            f"n_steps * num = {n_steps * rs.num} reaches 2^63, past the int64 arithmetic "
            "that keeps walk steps exact; lower n_steps or the step"
        )
    m = np.arange(n_steps + 1, dtype=np.int64) * rs.num
    rem = (m % rs.den).astype(float) * schedule.period / rs.den
    return _occupancy(schedule, (m // rs.den).astype(float), rem)


def sample_walk(
    schedule: SemiLevySchedule, rs: RationalStep, n_steps: int, seed: int
) -> WalkSample:
    """Exact draw of (X_0, X_h, ..., X_{n h}) at the rational step h; seed in [0, 2**64)."""
    steps, _ = _ensemble(schedule, _walk_occupancy(schedule, rs, n_steps), seed)
    return WalkSample(steps=steps[0], rational_step=rs, seed=int(seed))


def sample_walks(
    schedule: SemiLevySchedule, rs: RationalStep, n_steps: int, n_walks: int, seed: int
) -> list[WalkSample]:
    """Independent walks; walk i is reproduced by sample_walk with split_seed(seed, i)."""
    check_counts(n_walks=n_walks)
    steps, seeds = _ensemble(schedule, _walk_occupancy(schedule, rs, n_steps), seed, n_walks)
    return [WalkSample(steps=w, rational_step=rs, seed=s) for w, s in zip(steps, seeds)]


@dataclass(frozen=True)
class BallVisitCurve:
    """Estimated visit probabilities of the ball B_a along a walk ensemble.

    partial_sum[n] accumulates p_hat over 1 <= k <= n, the quantity whose
    divergence separates recurrent from transient walks; the n = 0 term
    (always 1) is reported but not accumulated.
    """

    n: np.ndarray
    p_hat: np.ndarray
    partial_sum: np.ndarray
    a: float
    n_walks: int

    def csv_table(self) -> tuple:
        """(header, columns, int_columns): n,p_hat,partial_sum, n an integer."""
        return "n,p_hat,partial_sum", [self.n, self.p_hat, self.partial_sum], 1

    def to_csv(self) -> str:
        """CSV text of csv_table."""
        return format_csv(*self.csv_table())


def ball_visit_curve(walks: list[WalkSample], a: float) -> BallVisitCurve:
    """Fraction of walks inside B_a at each step, with running partial sums.

    Estimates stabilize from roughly 30 walks; the curve is a Monte Carlo
    diagnostic for the sum criterion, not a proof of either alternative.
    """
    if not walks:
        raise ValueError("need at least one walk")
    check_positive(a=a)
    lengths = {w.steps.shape[0] for w in walks}
    if len(lengths) != 1:
        raise ValueError("walks must share a common length")
    # the walks are counted a block of about 2^16 values at a time, never stacked whole
    size = _block_members(walks[0].steps.size)
    blocks = (np.stack([w.steps for w in walks[lo : lo + size]]) for lo in range(0, len(walks), size))
    p_hat = sum(_inside(block, a).sum(axis=0) for block in blocks) / len(walks)
    partial = np.concatenate([[0.0], np.cumsum(p_hat[1:])])
    return BallVisitCurve(
        n=np.arange(p_hat.shape[0]),
        p_hat=p_hat,
        partial_sum=partial,
        a=float(a),
        n_walks=len(walks),
    )


def _occupation(values: np.ndarray, dt: np.ndarray, a: float) -> np.ndarray:
    """Cumulative left-endpoint time in B_a along the cell axis.

    values (..., cells + 1, d) on a grid with cell lengths dt (cells,);
    returns (..., cells + 1), starting at 0.
    """
    out = np.zeros(values.shape[:-1])
    np.cumsum(dt * _inside(values[..., :-1, :], a), axis=-1, out=out[..., 1:])
    return out


def _inside(values: np.ndarray, a: float) -> np.ndarray:
    """|x| < a for each point of values (..., d), as a boolean array (...)."""
    # squares summed one coordinate at a time: several times faster than a
    # reduction over the short last axis, and the same sums as
    # np.linalg.norm for d < 8 (from 8 on numpy sums in blocks).  A square
    # overflows only from |x| > 1e154 and underflows only below 1e-154, which
    # read right against an a in (1e-150, 1e150); any other a scales x first
    with np.errstate(over="ignore", under="ignore"):
        if not 1e-150 < a < 1e150:
            values, a = values / a, 1.0
        sq = values[..., 0] ** 2
        for j in range(1, values.shape[-1]):
            sq += values[..., j] ** 2
    return np.sqrt(sq) < a


def occupation_time(path: PathSample, a: float) -> float:
    """Left-endpoint Riemann estimate of the time spent in B_a up to the horizon.

    Bias is O(step); the grid step travels with the path, so callers can
    budget for it.  Monotone in both a and the horizon, bounded by the
    horizon.
    """
    check_positive(a=a)
    return float(_occupation(path.values, np.diff(path.grid), a)[-1])


def occupations_table(occupations: np.ndarray) -> tuple:
    """(header, columns, int_columns): `path_id,occupation` for a vector of per-path occupation times."""
    occupations = np.asarray(occupations, dtype=float)
    return "path_id,occupation", [np.arange(occupations.shape[0]), occupations], 1


def occupations_csv(occupations: np.ndarray) -> str:
    """CSV text of occupations_table."""
    return format_csv(*occupations_table(occupations))
