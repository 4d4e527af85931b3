"""Law-of-large-numbers verifiers for periodic Levy schedules.

With a finite one-period mean, X_t / t converges almost surely to the
per-period mean rate; with an infinite one-period absolute moment the ratio
|X_t| / t has unbounded upper limits instead.  One strong-law check reads
whichever of the two the one-period mean picks.  The weak law holds exactly
when the one-period law satisfies two tail conditions, which are estimated
here directly from draws of the one-period increment (no path grid involved,
the conditions concern that law alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .schedule import (
    SemiLevySchedule,
    _ensemble,
    _grid_occupancy,
    period_covariance,
    period_mean,
    sample_interval_increment,
)
from .util import check_counts, check_finite, check_increasing, check_size, format_csv, split_seeds

__all__ = ["LLNReport", "strong_law_check", "wlln_conditions"]

# fewest paths a law-of-large-numbers check, and fewest draws a weak-law estimate, accepts
MIN_PATHS = 50
MIN_SAMPLES = 10**4

FLAG_SLLN = "slln-consistent"
FLAG_DIVERGENCE = "divergence-consistent"
FLAG_TAIL_VANISHES = "tail-vanishes"
FLAG_TAIL_PERSISTS = "tail-persists"


@dataclass(frozen=True)
class LLNReport:
    """Results of a law-of-large-numbers check; unused blocks stay None.

    deviations block: per-horizon statistics of |X_T / T - c| (or of
    |X_T| / T when divergence is expected and no target c exists).
    conditions block: estimates of t * P(|X_p| > t) and of the truncated
    mean E[X_p 1{|X_p| <= t}] over a t-grid, with standard errors.
    """

    seed: int
    horizons: Optional[np.ndarray] = None
    mean_dev: Optional[np.ndarray] = None
    max_dev: Optional[np.ndarray] = None
    target: Optional[np.ndarray] = None
    divergence_expected: bool = False
    running_max_median: Optional[np.ndarray] = None
    tail_t: Optional[np.ndarray] = None
    tail: Optional[np.ndarray] = None
    tail_se: Optional[np.ndarray] = None
    trunc_mean: Optional[np.ndarray] = None
    trunc_se: Optional[np.ndarray] = None
    implied_c: Optional[np.ndarray] = None
    flag: Optional[str] = None

    def deviations_csv(self) -> str:
        """CSV block `T,mean_dev,max_dev`."""
        if self.horizons is None:
            raise ValueError("this report has no deviations block")
        return format_csv("T,mean_dev,max_dev", [self.horizons, self.mean_dev, self.max_dev])

    def conditions_csv(self) -> str:
        """CSV block `t,tail,tail_se,trunc_mean,trunc_se`.

        For dimension > 1 the truncated-mean columns report the Euclidean
        norm of the vector estimate.
        """
        if self.tail_t is None:
            raise ValueError("this report has no conditions block")
        tm = np.linalg.norm(np.atleast_2d(self.trunc_mean), axis=1)
        ts = np.linalg.norm(np.atleast_2d(self.trunc_se), axis=1)
        return format_csv("t,tail,tail_se,trunc_mean,trunc_se", [self.tail_t, self.tail, self.tail_se, tm, ts])


def _horizon_values(
    schedule: SemiLevySchedule, horizons: np.ndarray, n_paths: int, seed: int
) -> np.ndarray:
    """X at each horizon for each path, (paths, horizons, d), one exact cell per gap."""
    check_size(paths=n_paths, horizons=horizons.size, dim=schedule.dim)
    occupancy = _grid_occupancy(schedule, np.concatenate([[0.0], horizons]))
    seeds = split_seeds(seed, range(n_paths))
    return _ensemble(schedule, occupancy, seeds)[:, 1:]


def strong_law_horizons(schedule: SemiLevySchedule, horizons: Sequence[float]) -> np.ndarray:
    """The horizons of strong_law_check, strictly increasing: at least 1, or 2
    with an infinite one-period mean, whose reading compares the first with the last."""
    return check_increasing(horizons, "horizons", least=1 if period_mean(schedule) is not None else 2)


def strong_law_check(
    schedule: SemiLevySchedule,
    horizons: Sequence[float],
    n_paths: int,
    seed: int,
) -> LLNReport:
    """The strong law the one-period mean picks, read across horizons.

    With a finite mean, the deviation |X_T / T - c| from the per-period mean
    rate c = mean / p, flagged consistent when its path mean at the largest
    horizon falls below 3x the CLT scale sqrt(tr Cov(X_p) / (p T)), whenever
    the one-period covariance is finite.  With an infinite mean, the ratio
    |X_T| / T, flagged divergence-consistent when the median running maximum
    grows by at least 50% from the first to the last horizon (the per-path
    maxima of a heavy-tailed ratio accumulate roughly linearly in the number
    of horizon doublings, so the cumulative comparison is the stable reading).
    """
    h = strong_law_horizons(schedule, horizons)
    check_counts(least=MIN_PATHS, n_paths=n_paths)
    mu = period_mean(schedule)
    vals = _horizon_values(schedule, h, n_paths, seed)  # (paths, T, d)
    if mu is not None:
        c = mu / schedule.period
        dev = np.linalg.norm(vals / h[None, :, None] - c, axis=2)
    else:
        c = None
        dev = np.linalg.norm(vals, axis=2) / h[None, :]
    mean_dev, max_dev = dev.mean(axis=0), dev.max(axis=0)
    check_finite([mean_dev, max_dev], "an LLN deviation" if mu is not None else "an LLN ratio")
    flag = running = None
    if mu is not None:
        cov = period_covariance(schedule)
        if cov is not None and mean_dev[-1] <= 3.0 * math.sqrt(np.trace(cov) / (schedule.period * float(h[-1]))):
            flag = FLAG_SLLN
    else:
        running = np.median(np.maximum.accumulate(dev, axis=1), axis=0)
        flag = FLAG_DIVERGENCE if running[-1] >= 1.5 * running[0] else None
    return LLNReport(
        seed=int(seed),
        horizons=h,
        mean_dev=mean_dev,
        max_dev=max_dev,
        target=c,
        divergence_expected=mu is None,
        running_max_median=running,
        flag=flag,
    )


def wlln_conditions(
    schedule: SemiLevySchedule,
    t_grid: Sequence[float],
    n_samples: int,
    seed: int,
) -> LLNReport:
    """Monte Carlo estimates of the weak-law tail conditions on the one-period law.

    Estimates t * P(|X_p| > t) and E[X_p 1{|X_p| <= t}] over the t-grid with
    standard errors, from direct draws of the one-period increment.  When the
    tail estimate at the largest t is statistically indistinguishable from 0,
    the implied limit constant c = (truncated mean) / p is reported; a tail
    that persists means no constant exists and the weak law fails.
    """
    t = check_increasing(t_grid, "t_grid")
    check_counts(least=MIN_SAMPLES, n_samples=n_samples)
    check_size(samples=n_samples, dim=schedule.dim)
    rng = np.random.default_rng(seed)
    x = sample_interval_increment(schedule, 0.0, schedule.period, rng, size=n_samples)
    check_finite(x, "a one-period draw")
    r = np.linalg.norm(x, axis=1)

    tail = np.empty(t.size)
    tail_se = np.empty(t.size)
    trunc_mean = np.empty((t.size, schedule.dim))
    trunc_se = np.empty((t.size, schedule.dim))
    for j, tj in enumerate(t):
        p_hat = float(np.mean(r > tj))
        tail[j] = tj * p_hat
        tail_se[j] = tj * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_samples)
        w = x * (r <= tj)[:, None]
        trunc_mean[j] = w.mean(axis=0)
        trunc_se[j] = w.std(axis=0, ddof=1) / math.sqrt(n_samples)

    tail_gone = tail[-1] <= 3.0 * max(tail_se[-1], 1e-300) or tail[-1] == 0.0
    implied_c = trunc_mean[-1] / schedule.period if tail_gone else None
    flag = FLAG_TAIL_VANISHES if tail_gone else FLAG_TAIL_PERSISTS
    return LLNReport(
        seed=int(seed),
        tail_t=t,
        tail=tail,
        tail_se=tail_se,
        trunc_mean=trunc_mean,
        trunc_se=trunc_se,
        implied_c=implied_c,
        flag=flag,
    )
