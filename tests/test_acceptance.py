"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; the closed-form oracles
are written out next to the checks they guard.
"""

import time

import numpy as np
from scipy.stats import ks_2samp

from semilevy.classify import Decision, ball_integral_qmc, chung_fuchs_integral, chung_fuchs_verdict, mean_criterion
from semilevy.lln import strong_law_check, wlln_conditions
from semilevy.models import (
    BrownianDrift,
    CompoundPoisson,
    PointMass,
    PureDrift,
    SumModel,
    SymmetricStable,
    UniformJump,
)
from semilevy.schedule import (
    equivalent_levy_model,
    make_splice,
    period_exponent,
    sample_interval_increment,
    sample_paths,
    single_segment,
)
from semilevy.skeleton import RationalStep, ball_visit_curve, sample_walks

BM1 = single_segment(BrownianDrift(0.0, 1.0), 1.0)
BM3 = single_segment(BrownianDrift(np.zeros(3), np.eye(3)), 1.0)
CAUCHY = single_segment(SymmetricStable(1.0, 1.0, 1), 1.0)

Q_LADDER = 1e-2 * 4.0 ** (-np.arange(8, dtype=float))


def _finish(number, title, checks, t0, limit):
    elapsed = time.time() - t0
    checks = dict(checks)
    checks[f"runtime<{limit}s"] = elapsed < limit
    ok = all(checks.values())
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {title} ({elapsed:.1f}s)")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed: {failed}"


def test_criterion_01_chung_fuchs_bm1():
    t0 = time.time()
    a, q = 1.0, 1e-6
    value = chung_fuchs_integral(BM1, a, q)
    target = np.pi * np.sqrt(2.0)
    verdict = chung_fuchs_verdict(BM1, a=a)
    checks = {
        "I(q)*sqrt(q) within 1% of pi*sqrt(2)": abs(value * np.sqrt(q) - target) <= 0.01 * target,
        "oracle agreement": abs(value - 2.0 * np.sqrt(2.0 / q) * np.arctan(a / np.sqrt(2.0 * q)))
        <= 1e-6 * value,
        "verdict Recurrent": verdict.decision is Decision.RECURRENT,
        "beta in [0.45, 0.55]": 0.45 <= verdict.evidence["beta"] <= 0.55,
    }
    _finish(1, "Chung-Fuchs d=1 Brownian motion", checks, t0, 5.0)


def test_criterion_02_chung_fuchs_bm3():
    t0 = time.time()
    a = 1.0
    worst = 0.0
    for q in Q_LADDER:
        value, _ = ball_integral_qmc(BM3, a, float(q), seed=0)
        oracle = 8.0 * np.pi * (a - np.sqrt(2.0 * q) * np.arctan(a / np.sqrt(2.0 * q)))
        worst = max(worst, abs(value - oracle) / oracle)
    verdict = chung_fuchs_verdict(BM3, a=a, seed=0)
    checks = {
        "ladder within 2% of radial closed form": worst <= 0.02,
        "verdict Transient": verdict.decision is Decision.TRANSIENT,
    }
    _finish(2, "Chung-Fuchs d=3 Brownian motion (QMC)", checks, t0, 60.0)


def test_criterion_03_chung_fuchs_cauchy():
    t0 = time.time()
    a = 1.0
    worst = 0.0
    for q in list(Q_LADDER) + [1e-6]:
        value = chung_fuchs_integral(CAUCHY, a, float(q))
        oracle = 2.0 * np.log(1.0 + a / q)
        worst = max(worst, abs(value - oracle) / oracle)
    verdict = chung_fuchs_verdict(CAUCHY, a=a)
    checks = {
        "I(q) within 1% of 2 ln(1 + a/q)": worst <= 0.01,
        "verdict Recurrent": verdict.decision is Decision.RECURRENT,
        "via log fit": verdict.evidence["fit"] == "log",
    }
    _finish(3, "Chung-Fuchs d=1 symmetric Cauchy", checks, t0, 5.0)


def test_criterion_04_mean_criterion_fixtures():
    t0 = time.time()
    p, q = 2.0, 0.7
    recurrent = make_splice(PureDrift(p - q), PureDrift(-q), q, p)
    transient = make_splice(PureDrift(1.0), PureDrift(1.0), q, p)
    checks = {
        "compensating drift splice Recurrent": mean_criterion(recurrent).decision
        is Decision.RECURRENT,
        "common drift splice Transient": mean_criterion(transient).decision is Decision.TRANSIENT,
    }
    _finish(4, "mean criterion drift-splice fixtures", checks, t0, 1.0)


def test_criterion_05_equivalent_process_consistency():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    q, p = rng.uniform(0.3, 0.7), rng.uniform(1.5, 2.5)
    mu = rng.uniform(0.3, 1.0)
    lam, s = rng.uniform(1.0, 2.0), rng.uniform(0.5, 1.5)
    splices = [
        make_splice(
            BrownianDrift(mu, rng.uniform(0.5, 1.5)),
            BrownianDrift(-mu * q / (p - q), rng.uniform(0.5, 1.5)),
            q,
            p,
        ),
        make_splice(
            BrownianDrift(rng.uniform(0.5, 1.0), 1.0),
            BrownianDrift(rng.uniform(0.2, 0.6), 1.0),
            q,
            p,
        ),
        make_splice(
            SymmetricStable(1.0, rng.uniform(0.5, 1.5), 1),
            SymmetricStable(1.0, rng.uniform(0.5, 1.5), 1),
            q,
            p,
        ),
        make_splice(
            SymmetricStable(rng.uniform(1.2, 1.6), 1.0, 1),
            BrownianDrift(0.0, rng.uniform(0.5, 1.5)),
            q,
            p,
        ),
        make_splice(
            SumModel((CompoundPoisson(lam, PointMass(s)), PureDrift(-lam * s))),
            BrownianDrift(0.0, 1.0),
            q,
            p,
        ),
    ]
    checks = {}
    for i, splice in enumerate(splices):
        direct = chung_fuchs_verdict(splice)
        reduced = chung_fuchs_verdict(single_segment(equivalent_levy_model(splice), splice.period))
        checks[f"splice {i} conclusive"] = direct.decision is not Decision.INCONCLUSIVE
        checks[f"splice {i} match ({direct.decision.value})"] = direct.decision == reduced.decision
    _finish(5, "splice verdict equals equivalent-process verdict", checks, t0, 60.0)


def test_criterion_06_periodicity_ks():
    t0 = time.time()
    splice = make_splice(
        BrownianDrift(0.2, 1.0), CompoundPoisson(1.5, UniformJump(-0.5, 1.0)), 1.0, 2.5
    )
    p = splice.period
    step = p / 16.0
    n = 10**4
    rng = np.random.default_rng(77)
    rejections = 0
    tests = 0
    for trial in range(3):
        i0, i1 = sorted(rng.choice(np.arange(1, 32), size=2, replace=False))
        s, t = i0 * step, i1 * step
        base = sample_interval_increment(
            splice, s, t, np.random.default_rng(1000 + trial), size=n
        )[:, 0]
        for k in (1, 2, 3):
            # the shifted increments come off sampled path grids, so this also
            # exercises the boundary-splitting machinery end to end
            paths = sample_paths(splice, horizon=t + k * p, step=step, n_paths=n, seed=500 + 10 * trial + k)
            grid = paths[0].grid
            ia = int(np.argmin(np.abs(grid - (s + k * p))))
            ib = int(np.argmin(np.abs(grid - (t + k * p))))
            shifted = np.array([path.values[ib, 0] - path.values[ia, 0] for path in paths])
            rejections += ks_2samp(base, shifted).pvalue < 0.01
            tests += 1
    checks = {"9 KS tests": tests == 9, "at most 1 rejection at alpha=0.01": rejections <= 1}
    _finish(6, "periodic increment law (two-sample KS)", checks, t0, 30.0)


def test_criterion_07_exponent_identity():
    t0 = time.time()
    q, p = 0.9, 2.3
    model_y = BrownianDrift(0.4, 1.1)
    model_z = CompoundPoisson(1.5, UniformJump(-0.2, 0.7))
    splice = make_splice(model_y, model_z, q, p)
    z = np.random.default_rng(123).normal(size=(100, 1)) * 3.0
    got = period_exponent(splice, z)
    want = q * model_y.char_exponent(z) + (p - q) * model_z.char_exponent(z)
    err = np.abs(got - want).max()
    checks = {"q psi_Y + (p-q) psi_Z to 1e-12 at 100 random z": err <= 1e-12}
    _finish(7, "one-period exponent identity", checks, t0, 1.0)


def test_criterion_08_slln():
    t0 = time.time()
    zero_mean = make_splice(BrownianDrift(0.0, 1.0), BrownianDrift(0.0, 1.0), 1.0, 2.0)
    rep0 = strong_law_check(zero_mean, [1000.0], 100, seed=21)
    # E[X_p] = 1*1 + 2*(-0.5) + drift shift: target 2/3 here
    shifted = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(0.5, 1.0), 1.0, 3.0)
    rep1 = strong_law_check(shifted, [1000.0], 100, seed=22)
    checks = {
        "zero-mean: mean |X_T/T| <= 0.095": rep0.mean_dev[-1] <= 0.095,
        "shifted: target is 2/3": abs(rep1.target[0] - 2.0 / 3.0) <= 1e-12,
        "shifted: mean |X_T/T - c| <= 0.095": rep1.mean_dev[-1] <= 0.095,
    }
    _finish(8, "strong law of large numbers", checks, t0, 60.0)


def test_criterion_09_wlln_conditions():
    t0 = time.time()
    n = 10**5
    cauchy_rep = wlln_conditions(CAUCHY, [10.0, 30.0, 100.0], n, seed=26)
    target = 2.0 / np.pi  # Cauchy scale c = 1: t P(|X|>t) -> 2c/pi
    cauchy_ok = all(
        abs(tail - target) <= 3.0 * se for tail, se in zip(cauchy_rep.tail, cauchy_rep.tail_se)
    )
    gauss_rep = wlln_conditions(BM1, [1.0, 3.0, 10.0], n, seed=27)
    checks = {
        "Cauchy tails within 3 se of 2c/pi": cauchy_ok,
        "Cauchy: no constant c implied": cauchy_rep.implied_c is None,
        "Gaussian tail at t=10 below 0.01": gauss_rep.tail[-1] <= 0.01,
    }
    _finish(9, "weak-law tail conditions", checks, t0, 30.0)


def test_criterion_10_skeleton_sums():
    t0 = time.time()
    n_walks = 10**4
    bm_walks = sample_walks(BM1, RationalStep(1, 1), 1000, n_walks, seed=42)
    bm_curve = ball_visit_curve(bm_walks, 1.0)
    drift_walks = sample_walks(single_segment(PureDrift(1.0), 1.0), RationalStep(1, 1), 1000, n_walks, seed=43)
    drift_curve = ball_visit_curve(drift_walks, 1.0)
    checks = {
        "BM partial sum at N=1000 exceeds 10": bm_curve.partial_sum[1000] > 10.0,
        "BM growth 500 -> 1000 at least 25%": bm_curve.partial_sum[1000]
        >= 1.25 * bm_curve.partial_sum[500],
        "drift partial sum at most 2": drift_curve.partial_sum[1000] <= 2.0,
        "drift flat after n=3": drift_curve.partial_sum[1000] == drift_curve.partial_sum[3],
    }
    _finish(10, "skeleton sum-criterion directions", checks, t0, 60.0)
