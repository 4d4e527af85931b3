"""Skeleton walks, ball-visit curves, and occupation times."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import integrate
from scipy.stats import ks_2samp, norm

from semilevy.models import BrownianDrift, CompoundPoisson, PointMass, PureDrift
from semilevy.schedule import PathSample, make_splice, period_exponent, sample_path, single_segment
from semilevy.skeleton import (
    BallVisitCurve,
    RationalStep,
    WalkSample,
    ball_visit_curve,
    occupation_time,
    sample_walk,
    sample_walks,
)
from semilevy.util import split_seed

BM = single_segment(BrownianDrift(0.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# rational steps
# ---------------------------------------------------------------------------


def test_skeleton_period():
    assert RationalStep(1, 1).den == 1  # X_{np}: an ordinary random walk
    assert RationalStep(3, 2).den == 2
    assert RationalStep(2, 5).den == 5


def test_rational_step_reduction():
    rs = RationalStep(4, 6)
    assert (rs.num, rs.den) == (2, 3)
    assert rs.step(3.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        RationalStep(0, 1)
    with pytest.raises(ValueError, match="^num must be an integer"):
        RationalStep(2.5, 3)  # not truncated to 2/3
    with pytest.raises(ValueError, match="^num must be an integer of at least 1, got -1"):
        RationalStep(-1, 2)
    with pytest.raises(ValueError, match="^den must be an integer of at least 1, got 0"):
        RationalStep(1, 0)
    # in lowest terms num and den stay below 2^63, where the walks' int64 arithmetic ends
    assert (RationalStep(2**70, 3 * 2**70).num, RationalStep(1, 2**63 - 1).den) == (1, 2**63 - 1)
    for num, den in ((1, 2**70), (2**63, 1), (2**63 + 1, 2)):
        with pytest.raises(ValueError, match=f"^{num}/{den} reaches 2\\^63, past the int64 arithmetic"):
            RationalStep(num, den)


# ---------------------------------------------------------------------------
# walk sampling
# ---------------------------------------------------------------------------


def test_drift_walk_exact():
    sched = single_segment(PureDrift(1.0), 1.0)
    walk = sample_walk(sched, RationalStep(1, 2), 4, seed=0)
    assert walk.steps[:, 0] == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])


def test_drift_splice_walk_all_zero():
    p, q = 2.0, 0.5
    sched = make_splice(PureDrift(p - q), PureDrift(-q), q, p)
    walk = sample_walk(sched, RationalStep(1, 1), 20, seed=3)
    assert np.max(np.abs(walk.steps)) <= 1e-12


def test_walk_occupancy_refuses_int64_overflow():
    # 10**6 steps of 10**13 / 3 periods pass 2**63 period fractions
    sched = make_splice(PureDrift(1.0), PureDrift(-1.0), 0.5, 1.0)
    with pytest.raises(ValueError, match="2\\^63"):
        sample_walks(sched, RationalStep(10**13, 3), 10**6, 1, seed=0)
    walk = sample_walk(sched, RationalStep(10**12, 3), 10**6, seed=0)
    assert walk.n_steps == 10**6


def test_walk_whose_time_passes_the_float_range_is_refused():
    # a step of 2^63 - 1 periods of 1e290 ends past the float range: its occupancy is an error,
    # never a silent nan that drops the cell from the walk
    sched = make_splice(PureDrift(1.0), BrownianDrift(0.0, 1.0), 0.1, 1e290)
    with pytest.raises(FloatingPointError, match="^a cell's occupancy of its segments overflowed"):
        sample_walk(sched, RationalStep(2**63 - 1, 1), 1, seed=0)


def test_walk_reproducibility_and_split():
    walks = sample_walks(BM, RationalStep(1, 2), 10, 5, seed=7)
    for i, w in enumerate(walks):
        assert w.seed == split_seed(7, i)
        again = sample_walk(BM, RationalStep(1, 2), 10, seed=w.seed)
        assert np.array_equal(again.steps, w.steps)


def test_single_step_matches_period_exponent():
    # (0, X_p) for rs = 1/1: ECF of the step against the one-period exponent
    sched = make_splice(BrownianDrift(0.3, 0.8), CompoundPoisson(2.0, PointMass(0.4)), 0.7, 1.9)
    n = 10**4
    walks = sample_walks(sched, RationalStep(1, 1), 1, n, seed=13)
    xp = np.array([w.steps[1, 0] for w in walks])
    for z in (0.4, 1.1, 2.3):
        ecf = np.exp(1j * z * xp).mean()
        target = np.exp(period_exponent(sched, float(z)))
        assert abs(ecf - target) < 4.0 / np.sqrt(n)


def test_walk_periodic_increments_in_law():
    # semi-random walk with period 2: steps shifted by the period share a law
    sched = make_splice(BrownianDrift(0.5, 1.0), BrownianDrift(-0.2, 0.6), 0.4, 1.0)
    rs = RationalStep(1, 2)
    assert rs.den == 2
    walks = sample_walks(sched, rs, 6, 10**4, seed=21)
    steps = np.stack([w.steps[:, 0] for w in walks])
    early = steps[:, 3] - steps[:, 1]
    late = steps[:, 5] - steps[:, 3]
    assert ks_2samp(early, late).pvalue > 0.01
    # and adjacent increments genuinely differ in law (different segments)
    odd = steps[:, 2] - steps[:, 1]
    even = steps[:, 1] - steps[:, 0]
    assert abs(odd.mean() - even.mean()) > 0.05


def test_unit_period_walk_is_iid():
    walks = sample_walks(BM, RationalStep(1, 1), 3, 4000, seed=31)
    steps = np.stack([w.steps[:, 0] for w in walks])
    lag1 = steps[:, 1] - steps[:, 0]
    lag2 = steps[:, 2] - steps[:, 1]
    assert ks_2samp(lag1, lag2).pvalue > 0.01


# ---------------------------------------------------------------------------
# ball-visit curves
# ---------------------------------------------------------------------------


def _walks_from_array(values):
    rs = RationalStep(1, 1)
    return [WalkSample(steps=row[:, None], rational_step=rs, seed=i) for i, row in enumerate(values)]


def test_ball_visits_all_zero_walks():
    walks = _walks_from_array(np.zeros((30, 11)))
    curve = ball_visit_curve(walks, 1.0)
    assert np.all(curve.p_hat == 1.0)
    assert curve.partial_sum == pytest.approx(np.arange(11, dtype=float))


def test_ball_visits_drift_walks():
    sched = single_segment(PureDrift(1.0), 1.0)
    walks = sample_walks(sched, RationalStep(1, 1), 10, 30, seed=0)
    curve = ball_visit_curve(walks, 0.5)
    assert np.all(curve.p_hat[1:] == 0.0)
    assert np.all(curve.partial_sum == 0.0)


def test_ball_visits_bm_gaussian_oracle():
    # P(S_n in B_1) = 2 Phi(1/sqrt(n)) - 1 for the standard BM skeleton
    n_walks = 5000
    walks = sample_walks(BM, RationalStep(1, 1), 100, n_walks, seed=42)
    curve = ball_visit_curve(walks, 1.0)
    for n in (1, 5, 20, 100):
        oracle = 2.0 * norm.cdf(1.0 / np.sqrt(n)) - 1.0
        se = np.sqrt(oracle * (1.0 - oracle) / n_walks)
        assert abs(curve.p_hat[n] - oracle) <= 3.0 * se


def test_ball_visits_count_blocks_of_walks_as_the_stacked_mean():
    # 4 walks of 10^4 steps fill a block of about 2^16 values, so 25 walks take 7 blocks; the
    # counts summed over them and divided by the walks are the mean over all walks stacked
    walks = sample_walks(BM, RationalStep(1, 3), 10**4, 25, seed=4)
    curve = ball_visit_curve(walks, 0.5)
    stacked = np.stack([w.steps for w in walks])
    assert np.array_equal(curve.p_hat, (np.linalg.norm(stacked, axis=-1) < 0.5).mean(axis=0))


def test_ball_visits_validation():
    with pytest.raises(ValueError):
        ball_visit_curve([], 1.0)
    walks = _walks_from_array(np.zeros((2, 5)))
    with pytest.raises(ValueError, match="^a must be positive and finite, got inf"):
        ball_visit_curve(walks, np.inf)  # not a p_hat of 1 at every step
    walks.append(WalkSample(np.zeros((3, 1)), RationalStep(1, 1), 0))
    with pytest.raises(ValueError):
        ball_visit_curve(walks, 1.0)


@settings(max_examples=30, deadline=None)
@given(
    values=arrays(np.float64, (31, 12), elements=st.floats(-5, 5)),
    a=st.floats(0.1, 4.0),
)
def test_ball_visits_properties(values, a):
    values[:, 0] = 0.0
    curve = ball_visit_curve(_walks_from_array(values), a)
    assert np.all((0.0 <= curve.p_hat) & (curve.p_hat <= 1.0))
    assert np.all(np.diff(curve.partial_sum) >= 0.0)
    # monotone in the radius
    wider = ball_visit_curve(_walks_from_array(values), 2.0 * a)
    assert np.all(wider.p_hat >= curve.p_hat)


def test_ball_visits_csv():
    curve = ball_visit_curve(_walks_from_array(np.zeros((30, 3))), 1.0)
    lines = curve.to_csv().strip().split("\n")
    assert lines[0] == "n,p_hat,partial_sum"
    assert lines[1].startswith("0,1,")


# ---------------------------------------------------------------------------
# occupation times
# ---------------------------------------------------------------------------


def test_occupation_zero_path():
    grid = np.linspace(0.0, 10.0, 101)
    path = PathSample(grid=grid, values=np.zeros((101, 1)), seed=0)
    assert occupation_time(path, 0.5) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="^a must be positive and finite, got inf"):
        occupation_time(path, np.inf)  # not the whole horizon


def test_occupation_drift_exit():
    # unit drift leaves B_2 at t = 2, up to one grid step
    sched = single_segment(PureDrift(1.0), 1.0)
    path = sample_path(sched, horizon=10.0, step=0.01, seed=0)
    assert occupation_time(path, 2.0) == pytest.approx(2.0, abs=0.011)


def test_occupation_bm_oracle():
    # mean occupation of B_1 matches the integral of 2 Phi(1/sqrt(t)) - 1
    horizon, n_paths = 100.0, 200
    occs = []
    for i in range(n_paths):
        path = sample_path(BM, horizon=horizon, step=0.05, seed=split_seed(60, i))
        occs.append(occupation_time(path, 1.0))
    occs = np.array(occs)
    oracle, _ = integrate.quad(lambda t: 2.0 * norm.cdf(1.0 / np.sqrt(t)) - 1.0, 0.0, horizon)
    se = occs.std(ddof=1) / np.sqrt(n_paths)
    assert abs(occs.mean() - oracle) <= 3.0 * se


@pytest.mark.parametrize("a", [1e200, 1e-170, 1e100])
def test_ball_tests_hold_where_squares_overflow_or_underflow(a):
    # points at 0.5, 0.99, 1.01, 2 and 1e100 times a: |x|^2 overflows from 1.3e154 on
    # (a = 1e200, and 1e200 against a = 1e100) and underflows below 1e-154 (a = 1e-170),
    # yet only the first three points lie inside B_a, and no warning is raised
    direction = np.array([0.6, 0.8])
    values = np.array([0.0, 0.5, 0.99, 1.01, 2.0, 1e100])[:, None] * (a * direction)
    grid = np.arange(6.0)
    assert occupation_time(PathSample(grid=grid, values=values, seed=0), a) == 3.0
    walks = [WalkSample(values, RationalStep(1, 1), 0), WalkSample(np.zeros((6, 2)), RationalStep(1, 1), 1)]
    curve = ball_visit_curve(walks, a)
    np.testing.assert_array_equal(curve.p_hat, [1.0, 1.0, 1.0, 0.5, 0.5, 0.5])


@settings(max_examples=30, deadline=None)
@given(
    values=arrays(np.float64, (41,), elements=st.floats(-10, 10)),
    a=st.floats(0.1, 5.0),
)
def test_occupation_monotonicity(values, a):
    values[0] = 0.0
    grid = np.linspace(0.0, 4.0, 41)
    path = PathSample(grid=grid, values=values[:, None], seed=0)
    occ = occupation_time(path, a)
    assert 0.0 <= occ <= 4.0
    assert occupation_time(path, 2.0 * a) >= occ
    shorter = PathSample(grid=grid[:21], values=values[:21, None], seed=0)
    assert occupation_time(shorter, a) <= occ
