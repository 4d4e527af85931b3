"""Law-of-large-numbers verifiers for periodic Levy schedules.

With a finite one-period mean, X_t / t converges almost surely to the
per-period mean rate; with an infinite one-period absolute moment the ratio
|X_t| / t has unbounded upper limits instead.  One strong-law check,
strong_law_check, reads whichever of the two the one-period mean picks and
returns an LLNReport.  The weak law holds exactly when the one-period law
satisfies two tail conditions, which wlln_conditions estimates directly from
draws of the one-period increment (no path grid involved, the conditions
concern that law alone) and returns as a WLLNReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .models import _sample_chunks
from .schedule import (
    SemiLevySchedule,
    _ensemble,
    _grid_occupancy,
    period_covariance,
    period_mean,
)
from .util import check_counts, check_finite, check_increasing, format_csv

__all__ = ["LLNReport", "WLLNReport", "strong_law_check", "wlln_conditions"]

# fewest paths a law-of-large-numbers check, and fewest draws a weak-law estimate, accepts
MIN_PATHS = 50
MIN_SAMPLES = 10**4

# the weak-law draws are taken and reduced in chunks of this many samples, so
# no array of all of them exists and each chunk reuses the memory the last one
# freed; 2^15 to 2^17 time alike, while 2^13 pays numpy's per-call costs.  A
# call of three chunks or more draws one chunk ahead on a worker thread
# (models._sample_chunks), so at most two chunks' draws are held at once
WLLN_CHUNK = 1 << 16

FLAG_SLLN = "slln-consistent"
FLAG_DIVERGENCE = "divergence-consistent"
FLAG_TAIL_VANISHES = "tail-vanishes"
FLAG_TAIL_PERSISTS = "tail-persists"


@dataclass(frozen=True)
class LLNReport:
    """The strong-law check: per-horizon statistics of |X_T / T - c| about the
    per-period mean rate c = target, or of |X_T| / T when the one-period mean
    is infinite, target is None and running_max_median holds the median
    running maximum of that ratio."""

    horizons: np.ndarray
    mean_dev: np.ndarray
    max_dev: np.ndarray
    target: Optional[np.ndarray]
    running_max_median: Optional[np.ndarray]
    flag: Optional[str]

    def deviations_table(self) -> tuple:
        """(header, columns): `T,mean_dev,max_dev`."""
        return "T,mean_dev,max_dev", [self.horizons, self.mean_dev, self.max_dev]

    def deviations_csv(self) -> str:
        """CSV text of deviations_table."""
        return format_csv(*self.deviations_table())


@dataclass(frozen=True)
class WLLNReport:
    """The weak-law tail conditions: estimates of t * P(|X_p| > t) and of the
    truncated mean E[X_p 1{|X_p| <= t}] over the t-grid tail_t, with standard
    errors; implied_c is None when the tail persists."""

    tail_t: np.ndarray
    tail: np.ndarray
    tail_se: np.ndarray
    trunc_mean: np.ndarray
    trunc_se: np.ndarray
    implied_c: Optional[np.ndarray]
    flag: str

    def conditions_table(self) -> tuple:
        """(header, columns): `t,tail,tail_se,trunc_mean,trunc_se`.

        For dimension > 1 the truncated-mean columns report the Euclidean
        norm of the vector estimate.
        """
        tm = _norms(np.atleast_2d(self.trunc_mean))
        ts = _norms(np.atleast_2d(self.trunc_se))
        return "t,tail,tail_se,trunc_mean,trunc_se", [self.tail_t, self.tail, self.tail_se, tm, ts]

    def conditions_csv(self) -> str:
        """CSV text of conditions_table."""
        return format_csv(*self.conditions_table())


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis, with no square that overflows or underflows.

    In d = 1 that is |x|: the bits of np.linalg.norm's root of the square wherever the
    square neither overflows nor underflows (|x| above about 1.5e-154), at a thirtieth of
    its cost.  Above d = 1, np.linalg.norm's root of the summed squares, except for norms
    beyond 1e150 or below 1e-150, which np.hypot takes without squaring.
    """
    if x.shape[-1] == 1:
        return np.abs(x[..., 0])
    with np.errstate(over="ignore", under="ignore"):
        r = np.linalg.norm(x, axis=-1)
    far = ~((r > 1e-150) & (r < 1e150))
    if far.any():
        r[far] = np.hypot.reduce(x[far], axis=-1)
    return r


def _horizon_values(
    schedule: SemiLevySchedule, horizons: np.ndarray, n_paths: int, seed: int
) -> np.ndarray:
    """X at each horizon for each path, (paths, horizons, d), one exact cell per gap."""
    return _ensemble(schedule, _grid_occupancy(schedule, np.concatenate([[0.0], horizons])), seed, n_paths)[0][:, 1:]


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
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are refused next
        if mu is not None:
            c = mu / schedule.period
            dev = _norms(vals / h[None, :, None] - c)
        else:
            c = None
            dev = _norms(vals) / h[None, :]
        mean_dev, max_dev = dev.mean(axis=0), dev.max(axis=0)
    check_finite([mean_dev, max_dev], "an LLN deviation" if mu is not None else "an LLN ratio")
    flag = running = None
    if mu is not None:
        cov = period_covariance(schedule)
        if cov is not None:
            # sqrt(tr Cov / (p T)) taken apart, so that neither the trace nor p T leaves the float
            # range where the scale does not; a diagonal rounded below 0 counts as 0
            scale = math.hypot(*(math.sqrt(max(v, 0.0)) for v in np.diag(cov).tolist()))
            scale = scale / math.sqrt(schedule.period) / math.sqrt(float(h[-1]))
            flag = FLAG_SLLN if mean_dev[-1] <= 3.0 * scale else None
    else:
        running = np.median(np.maximum.accumulate(dev, axis=1), axis=0)
        flag = FLAG_DIVERGENCE if running[-1] >= 1.5 * running[0] else None
    return LLNReport(horizons=h, mean_dev=mean_dev, max_dev=max_dev, target=c, running_max_median=running, flag=flag)


def wlln_conditions(
    schedule: SemiLevySchedule,
    t_grid: Sequence[float],
    n_samples: int,
    seed: int,
) -> WLLNReport:
    """Monte Carlo estimates of the weak-law tail conditions on the one-period law.

    Estimates t * P(|X_p| > t) and E[X_p 1{|X_p| <= t}] over the t-grid with
    standard errors, from direct draws of the one-period increment: n_samples
    of them from default_rng(seed), drawn and reduced WLLN_CHUNK at a time,
    with every bound checked for the whole call before the first.  From three
    chunks on, and with more than one CPU, the next chunk's Generator calls run
    on one worker thread while this one is finished and reduced; the calls and
    the estimates are the same either way.  An estimate that overflows is an
    error (FloatingPointError), never an inf in the report.  When the
    tail estimate at the largest t is statistically indistinguishable from 0,
    the implied limit constant c = (truncated mean) / p is reported; a tail
    that persists means no constant exists and the weak law fails.
    """
    t = check_increasing(t_grid, "t_grid")
    check_counts(least=MIN_SAMPLES, n_samples=n_samples)
    pieces = zip(schedule.segment_occupancy(0.0, schedule.period), schedule.models)
    chunks = _sample_chunks(pieces, schedule.dim, np.random.default_rng(seed), n_samples, WLLN_CHUNK)

    above = np.zeros(t.size, dtype=np.int64)
    trunc_mean = np.zeros((t.size, schedule.dim))
    sq_dev = np.zeros((t.size, schedule.dim))
    seen = 0
    with np.errstate(over="ignore", invalid="ignore"):  # an estimate that overflows is refused below
        for x in chunks:
            k = x.shape[0]
            r = _norms(x)
            for j, tj in enumerate(t):
                inside = r <= tj
                above[j] += k - np.count_nonzero(inside)
                w = x * inside[:, None]
                mean = w.mean(axis=0)
                w -= mean
                dev = (w * w).sum(axis=0)
                if seen:
                    # the chunk's mean and squared deviations merged into the running ones
                    # by the pairwise update of Chan, Golub & LeVeque (1979)
                    delta = mean - trunc_mean[j]
                    trunc_mean[j] += delta * (k / (seen + k))
                    sq_dev[j] += dev + delta * delta * (seen * k / (seen + k))
                else:
                    trunc_mean[j], sq_dev[j] = mean, dev
            seen += k
        trunc_se = np.sqrt(sq_dev / (n_samples - 1)) / math.sqrt(n_samples)
        implied_c = trunc_mean[-1] / schedule.period
    check_finite([trunc_mean, trunc_se], "a weak-law truncated mean")

    p_hat = above / n_samples
    tail = t * p_hat
    tail_se = t * np.sqrt(p_hat * (1.0 - p_hat) / n_samples)

    tail_gone = tail[-1] <= 3.0 * max(tail_se[-1], 1e-300) or tail[-1] == 0.0
    if tail_gone:
        check_finite(implied_c, "the implied weak-law constant")
    else:
        implied_c = None
    flag = FLAG_TAIL_VANISHES if tail_gone else FLAG_TAIL_PERSISTS
    return WLLNReport(
        tail_t=t,
        tail=tail,
        tail_se=tail_se,
        trunc_mean=trunc_mean,
        trunc_se=trunc_se,
        implied_c=implied_c,
        flag=flag,
    )
