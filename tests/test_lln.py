"""Law-of-large-numbers checks against CLT scales and stable-tail oracles."""

import re
import threading

import numpy as np
import pytest

from semilevy import models as models_module

from semilevy.classify import Decision, mean_criterion
from semilevy.lln import WLLN_CHUNK, strong_law_check, wlln_conditions
from semilevy.models import (
    BrownianDrift, CompoundPoisson, GaussianJump, LaplaceJump, PointMass, PureDrift,
    SymmetricStable, UniformJump,
)
from semilevy.schedule import SemiLevySchedule, make_splice, sample_interval_increment, single_segment
from semilevy.util import MAX_VALUES

BM = single_segment(BrownianDrift(0.0, 1.0), 1.0)
CAUCHY = single_segment(SymmetricStable(1.0, 1.0, 1), 1.0)


# ---------------------------------------------------------------------------
# strong law
# ---------------------------------------------------------------------------


def test_slln_pure_drift_exact():
    p, q = 2.0, 0.5
    sched = make_splice(PureDrift(p - q), PureDrift(-q), q, p)
    report = strong_law_check(sched, [float(2 * p), float(8 * p)], 50, seed=1)
    assert np.max(report.mean_dev) <= 1e-12
    assert np.max(report.max_dev) <= 1e-12


def test_slln_zero_mean_bm_splice():
    sched = make_splice(BrownianDrift(0.0, 1.0), BrownianDrift(0.0, 1.0), 1.0, 2.0)
    report = strong_law_check(sched, [10.0, 250.0, 1000.0], 100, seed=21)
    assert report.target == pytest.approx([0.0])
    assert report.mean_dev[-1] <= 3.0 / np.sqrt(1000.0)
    assert report.flag == "slln-consistent"
    # quadrupling the horizon shrinks the mean deviation (expected factor 0.5)
    assert report.mean_dev[2] <= 0.7 * report.mean_dev[1]


def test_slln_nonzero_target():
    sched = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(0.5, 1.0), 1.0, 3.0)
    report = strong_law_check(sched, [1000.0], 100, seed=22)
    assert report.target == pytest.approx([2.0 / 3.0])
    assert report.mean_dev[-1] <= 3.0 / np.sqrt(1000.0)


def test_strong_law_takes_the_law_from_the_mean():
    # a finite one-period mean reads the deviation from mean / p
    report = strong_law_check(BM, [10.0, 100.0, 1000.0], 100, seed=3)
    assert report.target == pytest.approx([0.0])
    assert report.target is not None
    assert report.flag == "slln-consistent"
    # an infinite one reads |X_T| / T and its running maxima, against no target
    report = strong_law_check(CAUCHY, [100.0 * 2.0**k for k in range(8)], 100, seed=24)
    assert report.target is None
    assert report.running_max_median.shape == (8,)
    # which compares the first horizon with the last, so one horizon is refused
    with pytest.raises(ValueError, match="^horizons must be a 1-d sequence of at least 2 values"):
        strong_law_check(CAUCHY, [10.0], 50, seed=0)


def test_slln_csv():
    sched = make_splice(BrownianDrift(0.0, 1.0), BrownianDrift(0.0, 1.0), 1.0, 2.0)
    report = strong_law_check(sched, [10.0, 40.0], 50, seed=4)
    lines = report.deviations_csv().strip().split("\n")
    assert lines[0] == "T,mean_dev,max_dev"
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# divergence of the normalized path
# ---------------------------------------------------------------------------


def test_divergence_cauchy():
    horizons = [100.0 * 2.0**k for k in range(8)]
    report = strong_law_check(CAUCHY, horizons, 100, seed=24)
    assert report.target is None
    assert report.flag == "divergence-consistent"
    assert report.running_max_median[-1] >= 1.5 * report.running_max_median[0]


def test_divergence_cauchy_splice_with_finite_mean_partner():
    sched = make_splice(SymmetricStable(1.0, 1.0, 1), BrownianDrift(0.3, 1.0), 0.5, 1.5)
    report = strong_law_check(sched, [100.0, 400.0, 1600.0, 6400.0], 100, seed=25)
    assert report.flag == "divergence-consistent"


# ---------------------------------------------------------------------------
# weak-law tail conditions
# ---------------------------------------------------------------------------


def test_wlln_cauchy_tail_persists():
    # t P(|X_p| > t) tends to 2 c / pi, so the weak law fails
    report = wlln_conditions(CAUCHY, [10.0, 30.0, 100.0], 10**5, seed=26)
    target = 2.0 / np.pi
    for tail, se in zip(report.tail, report.tail_se):
        assert abs(tail - target) <= 3.0 * se
    assert report.flag == "tail-persists"
    assert report.implied_c is None


def test_wlln_gaussian_tail_vanishes():
    report = wlln_conditions(BM, [1.0, 3.0, 10.0], 10**5, seed=27)
    assert report.tail[-1] <= 0.01
    assert report.flag == "tail-vanishes"
    assert abs(report.implied_c[0]) <= 3e-2
    # symmetric law: truncated means vanish within noise at every t
    assert np.all(np.abs(report.trunc_mean[:, 0]) <= 3.0 * report.trunc_se[:, 0])


def test_wlln_bounded_jumps_tail_exactly_zero():
    # compound Poisson with jumps in [0, 1]: |X_p| is capped by the jump count,
    # far below the probed t, and the truncated mean freezes at the full mean
    sched = single_segment(CompoundPoisson(1.0, UniformJump(0.0, 1.0)), 1.0)
    report = wlln_conditions(sched, [50.0, 100.0, 200.0], 10**4, seed=28)
    assert np.all(report.tail == 0.0)
    assert report.trunc_mean[0, 0] == pytest.approx(report.trunc_mean[-1, 0])
    assert report.implied_c[0] == pytest.approx(0.5, abs=0.05)


def test_wlln_validation():
    with pytest.raises(ValueError):
        wlln_conditions(BM, [1.0, 2.0], 100, seed=0)
    # an infinite t would read as t * P(|X_p| > t) = inf * 0; a count is never truncated
    with pytest.raises(ValueError, match="^t_grid must be positive and finite"):
        wlln_conditions(BM, [1.0, np.inf], 10**4, seed=0)
    with pytest.raises(ValueError, match="^n_samples must be an integer"):
        wlln_conditions(BM, [1.0, 2.0], 10**4 + 0.5, seed=0)
    with pytest.raises(ValueError, match="^n_samples must be an integer of at least 10000, got 100$"):
        wlln_conditions(BM, [1.0, 2.0], 100, seed=0)


def test_slln_validation():
    # horizons are finite: an infinite one would read as a deviation of 0
    for sched in (BM, CAUCHY):
        with pytest.raises(ValueError, match="^horizons must be positive and finite"):
            strong_law_check(sched, [10.0, np.inf], 50, seed=0)
        with pytest.raises(ValueError, match="^n_paths must be an integer"):
            strong_law_check(sched, [10.0, 20.0], 50.5, seed=0)
        # too few paths, or no count at all: one ValueError, never a TypeError from a comparison
        for bad in (10, None, "x"):
            with pytest.raises(ValueError, match="^n_paths must be an integer of at least 50, got"):
                strong_law_check(sched, [10.0, 20.0], bad, seed=0)


def test_wlln_consistent_with_mean_criterion():
    # implied c = 0 with a finite mean must match a Recurrent mean verdict
    sched = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(-0.5, 1.0), 1.0, 3.0)
    report = wlln_conditions(sched, [5.0, 20.0, 80.0], 10**5, seed=29)
    assert report.flag == "tail-vanishes"
    assert abs(report.implied_c[0]) <= 3.0 * np.linalg.norm(report.trunc_se[-1])
    assert mean_criterion(sched).decision is Decision.RECURRENT


def test_conditions_csv():
    report = wlln_conditions(BM, [1.0, 2.0], 10**4, seed=30)
    lines = report.conditions_csv().strip().split("\n")
    assert lines[0] == "t,tail,tail_se,trunc_mean,trunc_se"
    assert len(lines) == 3


def test_wlln_bounds_hold_for_the_whole_call():
    # a chunk of the draws alone would pass the budget; the whole call does not.  A sample of
    # uniform jumps at rate 1000 holds its value, its count and 1000 expected jumps, each with its slot
    assert WLLN_CHUNK * 2002 <= MAX_VALUES < 2 * 10**5 * 2002
    sched = single_segment(CompoundPoisson(1000.0, UniformJump(0.0, 1.0)))
    message = f"(samples 200000 x values per sample 2002), more than the bound of {MAX_VALUES}"
    with pytest.raises(ValueError, match=re.escape(message)):
        wlln_conditions(sched, [1.0], 2 * 10**5, 1)
    # nor does it look at one chunk of Brownian draws, d values and d normals a sample
    bm2 = single_segment(BrownianDrift([0.0, 0.0], 1.0))
    n = MAX_VALUES // 4 + 1
    message = f"(samples {n:.6g} x values per sample 4), more than the bound of {MAX_VALUES}"
    with pytest.raises(ValueError, match=re.escape(message)):
        wlln_conditions(bm2, [1.0], n, 1)


def _two_pass_conditions(x: np.ndarray, t: list) -> tuple:
    """(tail, tail_se, trunc_mean, trunc_se) of the samples x (n, d), each t in one pass over all
    of them.  Each coordinate is reduced as one contiguous row, which numpy sums pairwise."""
    n = x.shape[0]
    r = np.linalg.norm(x, axis=1)
    p_hat = np.array([np.mean(r > tj) for tj in t])
    w = [np.ascontiguousarray(x.T) * (r <= tj) for tj in t]
    return (
        np.array(t) * p_hat,
        np.array(t) * np.sqrt(p_hat * (1.0 - p_hat) / n),
        np.array([wj.mean(axis=1) for wj in w]),
        np.array([wj.std(axis=1, ddof=1) for wj in w]) / np.sqrt(n),
    )


# one- and two-dimensional laws whose batches make several Generator calls, across two segments
CHUNKED = {
    1: make_splice(BrownianDrift(0.5, 1.0), CompoundPoisson(2.0, LaplaceJump(-0.25, 0.5)), 1.0, 2.0),
    2: make_splice(
        SymmetricStable(1.5, 0.5, 2), CompoundPoisson(3.0, GaussianJump([0.5, -1.0], [[1.0, 0.3], [0.3, 0.5]])),
        0.5, 1.5,
    ),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [WLLN_CHUNK - 5000, WLLN_CHUNK, 2 * WLLN_CHUNK + 12345])
def test_wlln_chunks_merge_to_the_two_pass_estimates(dim, n):
    # the chunks are drawn by hand from the one stream, in turn, and reduced in one pass
    sched, t, seed = CHUNKED[dim], [0.5, 2.0, 8.0], 40 + n
    rng = np.random.default_rng(seed)
    sizes = [min(WLLN_CHUNK, n - lo) for lo in range(0, n, WLLN_CHUNK)]
    x = np.concatenate([sample_interval_increment(sched, 0.0, sched.period, rng, size=k) for k in sizes])
    tail, tail_se, trunc_mean, trunc_se = _two_pass_conditions(x, t)
    report = wlln_conditions(sched, t, n, seed)
    assert np.array_equal(report.tail, tail)
    assert np.array_equal(report.tail_se, tail_se)
    assert (trunc_mean != 0.0).all()
    np.testing.assert_allclose(report.trunc_mean, trunc_mean, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(report.trunc_se, trunc_se, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("sched", [BM, CAUCHY], ids=["brownian", "cauchy"])
def test_wlln_tail_of_one_call_laws_is_the_one_batch_tail(sched):
    # a law that makes one Generator call per batch reads the same stream in chunks as in
    # one batch of all the draws, so its tail counts are those of that one batch
    n, t, seed = 2 * WLLN_CHUNK + 12345, [0.5, 2.0, 8.0], 41
    x = sample_interval_increment(sched, 0.0, sched.period, np.random.default_rng(seed), size=n)
    tail, tail_se, _, _ = _two_pass_conditions(x, t)
    report = wlln_conditions(sched, t, n, seed)
    assert np.array_equal(report.tail, tail)
    assert np.array_equal(report.tail_se, tail_se)


@pytest.mark.parametrize("cpus, n, ahead", [
    (2, 2 * WLLN_CHUNK, False),  # two chunks: drawn in the calling thread
    (2, 2 * WLLN_CHUNK + 1, True),  # three: a chunk ahead on one worker
    (1, 3 * WLLN_CHUNK, False),  # one CPU: never a worker
])
def test_weak_law_draws_run_ahead_past_two_chunks_only(monkeypatch, cpus, n, ahead):
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: cpus)
    seen, draw = set(), BrownianDrift._draw

    def spy(self, dts, rng):
        seen.add(threading.get_ident())
        return draw(self, dts, rng)

    monkeypatch.setattr(BrownianDrift, "_draw", spy)
    before = threading.active_count()
    report = wlln_conditions(BM, [1.0, 2.0], n, 7)
    assert threading.active_count() == before
    assert len(seen) == 1 and (threading.get_ident() not in seen) == ahead
    # the same report either way
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: 3 - cpus)
    other = wlln_conditions(BM, [1.0, 2.0], n, 7)
    assert report.conditions_csv() == other.conditions_csv() and report.flag == other.flag


def test_weak_law_overflow_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: 2)
    before = threading.active_count()
    sched = single_segment(CompoundPoisson(1.0, LaplaceJump(0.0, 1e308)))
    with pytest.raises(FloatingPointError, match="^a sampled increment overflowed"):
        wlln_conditions(sched, [1.0], 3 * WLLN_CHUNK, 8)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# edge values: each failure the random lln configs of test_cli found, as a regression test
# ---------------------------------------------------------------------------


def test_strong_law_scale_of_a_degenerate_law_at_an_underflowing_horizon():
    # p T underflows to 0 and the trace of the covariance is 0: the CLT scale was 0 / 0
    # (a RuntimeWarning, then no flag); the deviation is exactly 0, within a scale of 0
    sched = single_segment(BrownianDrift(0.0, 0.0), 0.1)
    report = strong_law_check(sched, [5e-324], 50, 1)
    assert report.flag == "slln-consistent" and report.mean_dev[-1] == 0.0


def test_strong_law_scale_of_a_trace_beyond_the_float_range():
    # tr Cov = 3.6e308 overflowed (a RuntimeWarning); the scale, sqrt(tr Cov / (p T)) = 1.9e154, does not
    sched = single_segment(BrownianDrift([0.0, 0.0], 1.7976931348623157e308), 1.0)
    assert strong_law_check(sched, [1.0], 50, 2).flag == "slln-consistent"


def test_strong_law_deviations_do_not_square_past_the_float_range():
    # |X_T / T - c| is about 1e284 here, whose square overflowed into an inf deviation
    sched = single_segment(PureDrift(1e300), 0.1)
    report = strong_law_check(sched, [1e-300], 50, 1)
    assert np.isfinite(report.mean_dev).all()


@pytest.mark.parametrize(
    "gamma, t, tail",
    [
        # |x| = 1e160 lies inside t = 1e250; squared, it overflowed and counted as beyond
        (1e160, 1e250, 0.0),
        ([1e160, -1e160], 1e250, 0.0),
        # |x| = 1e-200 lies beyond t = 1e-250; squared, it underflowed to 0 and counted as inside
        (1e-200, 1e-250, 1e-250),
        ([1e-200, 0.0], 1e-250, 1e-250),
    ],
)
def test_weak_law_norms_neither_overflow_nor_underflow(gamma, t, tail):
    report = wlln_conditions(single_segment(PureDrift(gamma), 1.0), [t], 10**4, 1)
    assert report.tail.tolist() == [tail]
    assert report.flag == ("tail-vanishes" if tail == 0.0 else "tail-persists")
    if tail == 0.0:
        np.testing.assert_allclose(report.implied_c, np.broadcast_to(gamma, report.implied_c.shape), rtol=1e-12)


def test_conditions_csv_norms_do_not_overflow():
    # the truncated-mean column is a norm, whose square overflowed: inf where 1e299 belongs
    report = wlln_conditions(single_segment(PureDrift(1e300), 0.1), [1e300], 10**4, 1)
    row = report.conditions_csv().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1e299, rel=1e-12)


def test_weak_law_truncated_mean_that_overflows_is_refused():
    # every sample is 1e308 and inside t; their chunk sums overflow
    with pytest.raises(FloatingPointError, match="^a weak-law truncated mean overflowed"):
        wlln_conditions(single_segment(PureDrift(1e308), 1.0), [1.7976931348623157e308], 10**4, 1)


def test_implied_constant_that_overflows_is_refused():
    # a truncated mean of about 1e10 over a period of 1e-300, with no sample beyond t
    sched = single_segment(CompoundPoisson(1e300, PointMass(1e10)), 1e-300)
    with pytest.raises(FloatingPointError, match="^the implied weak-law constant overflowed"):
        wlln_conditions(sched, [1e20], 10**4, 1)


def test_stable_draw_that_divides_by_zero_is_refused():
    # a standard exponential w near 0 raised to a power of about 100 is 0, and the positive
    # stable variate divides by it: a RuntimeWarning came before the refusal
    sched = single_segment(SymmetricStable(0.01, 5e-324, 2), 1e300)
    with pytest.raises(FloatingPointError, match="^a sampled path or walk overflowed"):
        strong_law_check(sched, [1e-6, 10.0], 64, 715839)


def test_ensemble_draw_that_overflows_is_refused():
    # Laplace jumps of scale 1e308 overflow in the draw itself, which ran with numpy's
    # default errstate in an ensemble: a RuntimeWarning came before the refusal
    sched = single_segment(CompoundPoisson(5.0, LaplaceJump(0.0, 1e308)))
    with pytest.raises(FloatingPointError, match="^a sampled path or walk overflowed"):
        strong_law_check(sched, [1.0, 2.0], 50, 3)


def test_horizon_beyond_the_float_range_of_periods_is_refused():
    # 1.8e308 / 0.1 periods is no float
    sched = single_segment(BrownianDrift([0.0, 0.0], 1.0), 0.1)
    with pytest.raises(FloatingPointError, match="^a time's count of periods overflowed"):
        strong_law_check(sched, [1.7976931348623157e308], 64, 14)
