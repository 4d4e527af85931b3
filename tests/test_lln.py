"""Law-of-large-numbers checks against CLT scales and stable-tail oracles."""

import numpy as np
import pytest

from semilevy.classify import Decision, mean_criterion
from semilevy.lln import strong_law_check, wlln_conditions
from semilevy.models import BrownianDrift, CompoundPoisson, PureDrift, SymmetricStable, UniformJump
from semilevy.schedule import make_splice, single_segment

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
    assert not report.divergence_expected
    assert report.flag == "slln-consistent"
    # an infinite one reads |X_T| / T and its running maxima, against no target
    report = strong_law_check(CAUCHY, [100.0 * 2.0**k for k in range(8)], 100, seed=24)
    assert report.divergence_expected
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
    assert report.divergence_expected
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
    with pytest.raises(ValueError):
        report.deviations_csv()
