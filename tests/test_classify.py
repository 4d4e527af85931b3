"""Classification: quadrature against closed forms, verdicts on known fixtures."""

import time

import numpy as np
import pytest
from scipy import integrate

from semilevy import classify
from semilevy.classify import (
    MAX_LEVELS,
    Criterion,
    Decision,
    QuadratureError,
    Verdict,
    ball_integral_qmc,
    chung_fuchs_integral,
    chung_fuchs_verdict,
    drift_test,
    empirical_diagnostic,
    empirical_verdict,
    mean_criterion,
    radius_sweep,
)
from semilevy.models import (
    BrownianDrift,
    CompoundPoisson,
    DimensionMismatch,
    GaussianJump,
    PointMass,
    PureDrift,
    SumModel,
    SymmetricStable,
)
from semilevy.schedule import SemiLevySchedule, make_splice, period_exponent, sample_path, single_segment
from semilevy.skeleton import occupation_time
from semilevy.util import split_seed

BM1 = single_segment(BrownianDrift(0.0, 1.0), 1.0)
BM3 = single_segment(BrownianDrift(np.zeros(3), np.eye(3)), 1.0)
CAUCHY = single_segment(SymmetricStable(1.0, 1.0, 1), 1.0)


def bm1_oracle(a, q):
    return 2.0 * np.sqrt(2.0 / q) * np.arctan(a / np.sqrt(2.0 * q))


def cauchy_oracle(a, q):
    return 2.0 * np.log(1.0 + a / q)


def bm3_oracle(a, q):
    return 8.0 * np.pi * (a - np.sqrt(2.0 * q) * np.arctan(a / np.sqrt(2.0 * q)))


def bm2_drift_oracle(m, a, q):
    # BrownianDrift(m, I) in d = 2; m = 0 gives 2 pi ln(1 + a^2 / (2q))
    m2, h = m * m, 0.5 * a * a
    return 2.0 * np.pi * np.log((np.sqrt((q + h) ** 2 + m2 * a * a) + h + q + m2) / (2.0 * q + m2))


# ---------------------------------------------------------------------------
# integrals against closed-form antiderivatives
# ---------------------------------------------------------------------------


def test_integral_bm1_closed_form():
    for q in (1e-2, 1e-4, 1e-6):
        got = chung_fuchs_integral(BM1, 1.0, q)
        assert got == pytest.approx(bm1_oracle(1.0, q), rel=1e-8)
    scaled = chung_fuchs_integral(BM1, 1.0, 1e-6) * np.sqrt(1e-6)
    assert abs(scaled - np.pi * np.sqrt(2.0)) <= 0.01 * np.pi * np.sqrt(2.0)


def test_integral_cauchy_closed_form():
    for q in (1e-2, 1e-4, 1e-6):
        got = chung_fuchs_integral(CAUCHY, 1.0, q)
        assert got == pytest.approx(cauchy_oracle(1.0, q), rel=1e-8)


def test_integral_pure_drift_closed_form():
    # psi = i gamma z: integrand q / (q^2 + gamma^2 z^2), antiderivative arctan
    sched = single_segment(PureDrift(1.0), 1.0)
    for q in (1e-2, 1e-6):
        got = chung_fuchs_integral(sched, 1.0, q)
        assert got == pytest.approx(2.0 * np.arctan(1.0 / q), rel=1e-8)


def test_integral_bm2_closed_form():
    sched = single_segment(BrownianDrift(np.zeros(2), np.eye(2)), 1.0)
    for q in (1e-2, 1e-5):
        got = chung_fuchs_integral(sched, 1.0, q)
        assert got == pytest.approx(2.0 * np.pi * np.log(1.0 + 1.0 / (2.0 * q)), rel=1e-6)


def test_integral_bm3_qmc():
    for q in (1e-2, 1e-4, 1e-6):
        value, se = ball_integral_qmc(BM3, 1.0, q, seed=0)
        oracle = bm3_oracle(1.0, q)
        assert abs(value - oracle) <= 0.02 * oracle
        assert se < 0.01 * oracle


def test_integrand_nonnegative_and_monotone_in_q():
    # symmetric exponent: I(q) nondecreasing as q decreases
    qs = 1e-2 * 4.0 ** (-np.arange(8, dtype=float))
    for sched in (BM1, CAUCHY):
        vals = np.array([chung_fuchs_integral(sched, 1.0, float(q)) for q in qs])
        assert np.all(vals >= 0.0)
        assert np.all(vals[1:] >= vals[:-1] * (1.0 - 1e-9))


def test_integral_validates_inputs():
    with pytest.raises(ValueError):
        chung_fuchs_integral(BM1, -1.0, 1e-3)
    with pytest.raises(ValueError):
        chung_fuchs_integral(BM1, 1.0, 0.0)
    # one positive-and-finite check for the radius and the q levels of every ladder entry point
    for bad in (-1.0, 0.0, np.inf, np.nan):
        for call, name in (
            (lambda x: chung_fuchs_integral(BM1, x, 1e-3), "a"),
            (lambda x: chung_fuchs_integral(BM2, 1.0, x), "q"),
            (lambda x: ball_integral_qmc(BM3, x, 1e-3), "a"),
            (lambda x: ball_integral_qmc(BM3, 1.0, x), "q"),
            (lambda x: chung_fuchs_verdict(BM1, a=x), "a"),
            (lambda x: chung_fuchs_verdict(BM1, q0=x), "q0"),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                call(bad)


def test_ball_integral_qmc_bounds_its_draws(monkeypatch):
    def no_draw(*args):
        raise AssertionError("Sobol points drawn before the checks")

    monkeypatch.setattr(classify, "_ball_points", no_draw)
    with pytest.raises(ValueError, match="replicates"):
        ball_integral_qmc(BM3, 1.0, 1e-3, replicates=1)
    # 2**40 nodes of 4 coordinates: refused from the sizes alone
    with pytest.raises(ValueError, match="more than the bound"):
        ball_integral_qmc(BM3, 1.0, 1e-3, n_log2=40)


def test_quadrature_failure_is_explicit():
    # characteristic function oscillating at frequency 1e6: no quadrature
    # budget reaches the tolerance, and the failure must be an error rather
    # than a silently wrong value
    from semilevy.classify import QuadratureError

    sched = single_segment(CompoundPoisson(1.0, PointMass(1.0e6)), 1.0)
    start = time.perf_counter()
    with pytest.raises(QuadratureError):
        chung_fuchs_integral(sched, 1.0, 1e-3)
    # the panel budget stops the bisection early: well under a second here
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# the vectorized ladder integrator
# ---------------------------------------------------------------------------

LADDER_QS = 1e-2 * 4.0 ** (-np.arange(8, dtype=float))
BM2 = single_segment(BrownianDrift(np.zeros(2), np.eye(2)), 1.0)


def test_gauss_kronrod_constants():
    # the odd positions are the 10-point Gauss-Legendre rule; G10 is exact to
    # degree 19 and K21 to degree 31
    x, w = np.polynomial.legendre.leggauss(10)
    assert classify._GK_NODES[1::2] == pytest.approx(x, abs=1e-15)
    assert classify._GK_GAUSS[1::2] == pytest.approx(w, abs=1e-15)
    for degree in range(32):
        exact = (1.0 + (-1.0) ** degree) / (degree + 1)
        values = classify._GK_NODES**degree
        assert values @ classify._GK_KRONROD == pytest.approx(exact, abs=1e-15)
        if degree < 20:
            assert values @ classify._GK_GAUSS == pytest.approx(exact, abs=1e-15)


@pytest.mark.parametrize(
    "sched, oracle, rel",
    [
        (BM1, lambda q: bm1_oracle(1.0, q), 1e-8),
        (CAUCHY, lambda q: cauchy_oracle(1.0, q), 1e-8),
        (single_segment(PureDrift(1.0), 1.0), lambda q: 2.0 * np.arctan(1.0 / q), 1e-8),
        (BM2, lambda q: 2.0 * np.pi * np.log(1.0 + 1.0 / (2.0 * q)), 1e-6),
        # 2-d drift 0.5 along (1, 0) and 5 along (0.6, 0.8): a sharp angular peak
        (
            single_segment(BrownianDrift(np.array([0.5, 0.0]), np.eye(2)), 1.0),
            lambda q: bm2_drift_oracle(0.5, 1.0, q),
            1e-8,
        ),
        (
            single_segment(BrownianDrift(np.array([3.0, 4.0]), np.eye(2)), 1.0),
            lambda q: bm2_drift_oracle(5.0, 1.0, q),
            1e-8,
        ),
    ],
)
def test_ladder_every_level_closed_form(sched, oracle, rel):
    values, errors, work = classify._ladder(sched, 1.0, LADDER_QS, seed=0)
    for q, value in zip(LADDER_QS, values):
        assert value == pytest.approx(oracle(q), rel=rel)
    assert np.all(errors <= classify.QUAD_REL_TOL * values)
    assert work["psi_points"] > 0


def _quad_reference(sched, a, q):
    # one q at a time with scalar callbacks, on the same origin breakpoints
    def f(z):
        return float(classify._cf_integrand(period_exponent(sched, np.array([[z]])), q)[0])

    def ring(r):
        def g(theta):
            pt = np.array([[r * np.cos(theta), r * np.sin(theta)]])
            return float(classify._cf_integrand(period_exponent(sched, pt), q)[0])

        return r * integrate.quad(g, 0.0, 2.0 * np.pi, epsabs=0.0, epsrel=1e-10, limit=200)[0]

    ladder = classify._origin_ladder(a)
    if sched.dim == 1:
        points = np.sort(np.concatenate([-ladder, [0.0], ladder]))
        return integrate.quad(f, -a, a, points=points, limit=800, epsabs=0.0, epsrel=1e-10)[0]
    return integrate.quad(ring, 0.0, a, points=ladder, limit=800, epsabs=0.0, epsrel=1e-9)[0]


@pytest.mark.parametrize(
    "sched, q",
    [
        (make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(-0.5, 1.0), 1.0, 3.0), 1e-5),
        (
            SemiLevySchedule(
                3.0,
                (
                    (1.0, BrownianDrift(-0.4, 1.0)),
                    (1.0, SymmetricStable(1.5, 0.5, 1)),
                    (1.0, CompoundPoisson(1.0, GaussianJump(0.2, 0.25))),
                ),
            ),
            1e-5,
        ),
        (single_segment(BrownianDrift(np.array([0.5, 0.0]), np.eye(2)), 1.0), 1e-2),
    ],
)
def test_ladder_matches_scipy_quad_reference(sched, q):
    values, _, _ = classify._ladder(sched, 1.0, [q], seed=0)
    assert values[0] == pytest.approx(_quad_reference(sched, 1.0, q), rel=1e-6)


def test_ladder_d3_equals_ball_integral_qmc():
    values, errors, work = classify._ladder(BM3, 1.0, LADDER_QS, seed=5)
    for q, value, error in zip(LADDER_QS, values, errors):
        assert (value, error) == ball_integral_qmc(BM3, 1.0, float(q), seed=5)
    assert work["psi_points"] == 2**20


def test_ladder_evaluates_psi_in_few_bounded_calls(monkeypatch):
    sizes = []

    def counting(schedule, z):
        sizes.append(len(z))
        return period_exponent(schedule, z)

    monkeypatch.setattr(classify, "period_exponent", counting)
    v = chung_fuchs_verdict(BM1)
    assert len(sizes) <= 24
    assert v.evidence["psi_points"] == sum(sizes)
    sizes.clear()
    v = chung_fuchs_verdict(single_segment(BrownianDrift(np.array([0.5, 0.0]), np.eye(2)), 1.0))
    assert max(sizes) <= classify.PSI_CHUNK
    assert v.evidence["psi_points"] == sum(sizes)


def test_ladder_point_budget_raises(monkeypatch):
    # the sharp angular peak of 2-d BM with drift needs far more than this
    monkeypatch.setattr(classify, "PSI_POINT_BUDGET", 100_000)
    sched = single_segment(BrownianDrift(np.array([0.5, 0.0]), np.eye(2)), 1.0)
    with pytest.raises(QuadratureError):
        chung_fuchs_verdict(sched)


def test_nan_exponent_raises_instead_of_refining(monkeypatch):
    monkeypatch.setattr(classify, "period_exponent", lambda schedule, z: np.full(len(z), np.nan + 0j))
    for sched in (BM1, BM2, BM3):
        with pytest.raises(QuadratureError):
            chung_fuchs_integral(sched, 1.0, 1e-2)


def test_overflowing_exponent_raises():
    # a Gaussian at scale 1e200 is recurrent; its exponent overflows the
    # integrand, which used to read as an all-zero, converged ladder
    sched = single_segment(SymmetricStable(2.0, 1e200, 1), 1.0)
    with pytest.raises(QuadratureError):
        chung_fuchs_integral(sched, 1.0, 1e-2)
    with pytest.raises(QuadratureError):
        chung_fuchs_verdict(sched)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_verdict_bm1_recurrent_power():
    v = chung_fuchs_verdict(BM1)
    assert v.decision is Decision.RECURRENT
    assert v.criterion is Criterion.CHUNG_FUCHS
    assert v.evidence["fit"] == "power"
    assert abs(v.evidence["beta"] - 0.5) <= 0.02 + 0.03  # fitted on finite q: 0.5 +- 0.02 plus ladder bias


def test_verdict_cauchy_recurrent_log():
    v = chung_fuchs_verdict(CAUCHY)
    assert v.decision is Decision.RECURRENT
    assert v.evidence["fit"] == "log"
    assert v.evidence["log_r2"] >= 0.99


def test_verdict_bm3_transient():
    v = chung_fuchs_verdict(BM3, seed=0)
    assert v.decision is Decision.TRANSIENT
    assert v.evidence["remaining_frac"] < 0.01
    assert v.evidence["psi_points"] == 2**20
    assert "quad_rel_err" not in v.evidence


def test_verdict_evidence_reports_work_and_error():
    for sched in (BM1, BM2):
        v = chung_fuchs_verdict(sched)
        assert 0 < v.evidence["psi_points"] < classify.PSI_POINT_BUDGET
        assert 0.0 < v.evidence["quad_rel_err"] <= classify.QUAD_REL_TOL
        assert "stderrs" not in v.evidence


def test_verdict_drifting_bm_transient():
    v = chung_fuchs_verdict(single_segment(BrownianDrift(1.0, 1.0), 1.0))
    assert v.decision is Decision.TRANSIENT


def test_verdict_levels_validation():
    with pytest.raises(ValueError):
        chung_fuchs_verdict(BM1, levels=5)
    with pytest.raises(ValueError, match="levels"):
        chung_fuchs_verdict(BM1, levels=MAX_LEVELS + 1)
    with pytest.raises(ValueError, match="levels"):
        radius_sweep(BM1, a_values=(), levels=MAX_LEVELS + 1)


def test_verdict_scale_invariance():
    # doubling the radius never flips a conclusive verdict
    for sched in (BM1, CAUCHY, single_segment(BrownianDrift(1.0, 1.0), 1.0)):
        v1 = chung_fuchs_verdict(sched, a=1.0)
        v2 = chung_fuchs_verdict(sched, a=2.0)
        assert v1.decision == v2.decision


def test_radius_sweep_agrees():
    sweep = radius_sweep(BM1)
    assert [a for a, _ in sweep] == [0.5, 1.0, 2.0]
    assert len({v.decision for _, v in sweep}) == 1


# ---------------------------------------------------------------------------
# mean criterion and drift test
# ---------------------------------------------------------------------------


def test_mean_criterion_drift_splice_fixtures():
    p, q = 2.0, 0.7
    recurrent = make_splice(PureDrift(p - q), PureDrift(-q), q, p)
    assert mean_criterion(recurrent).decision is Decision.RECURRENT
    transient = make_splice(PureDrift(1.0), PureDrift(1.0), q, p)
    assert mean_criterion(transient).decision is Decision.TRANSIENT


def test_mean_criterion_balanced_bm():
    sched = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(-0.5, 1.0), 1.0, 3.0)
    v = mean_criterion(sched)
    assert v.decision is Decision.RECURRENT
    assert v.evidence["period_mean"] == 0.0


def test_mean_criterion_infinite_mean_inconclusive():
    sched = make_splice(SymmetricStable(1.0, 1.0, 1), BrownianDrift(0.5, 1.0), 0.5, 1.5)
    v = mean_criterion(sched)
    assert v.decision is Decision.INCONCLUSIVE
    assert "infinite" in v.evidence["reason"]


def test_mean_criterion_dimension_error():
    sched = single_segment(BrownianDrift(np.zeros(2), np.eye(2)), 1.0)
    with pytest.raises(DimensionMismatch):
        mean_criterion(sched)


def test_drift_test():
    assert drift_test(PureDrift(0.0)).decision is Decision.RECURRENT
    assert drift_test(PureDrift(1.0)).decision is Decision.TRANSIENT
    assert drift_test(SymmetricStable(1.0, 1.0, 1)).decision is Decision.INCONCLUSIVE


def test_drift_test_matches_mean_criterion_on_splice():
    # time-scaled sum model carrying the splice's one-period mean rate
    q, p = 1.0, 3.0
    splice = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(-0.5, 1.0), q, p)
    equivalent = SumModel(
        (BrownianDrift(1.0, 1.0).scaled(q / p), BrownianDrift(-0.5, 1.0).scaled((p - q) / p))
    )
    assert drift_test(equivalent).decision == mean_criterion(splice).decision


def test_criterion_concordance():
    # fixtures where both analytic routes conclude must agree
    fixtures = [
        make_splice(PureDrift(1.5), PureDrift(-0.5 * 1.5 / 1.5), 1.0, 2.0),
        make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(-0.5, 1.0), 1.0, 3.0),
        make_splice(BrownianDrift(0.8, 1.0), BrownianDrift(0.3, 1.0), 1.0, 2.0),
        BM1,
    ]
    for sched in fixtures:
        mc = mean_criterion(sched)
        cf = chung_fuchs_verdict(sched)
        if Decision.INCONCLUSIVE in (mc.decision, cf.decision):
            continue
        assert mc.decision == cf.decision, period_exponent(sched, 0.1)


# ---------------------------------------------------------------------------
# verdict plumbing
# ---------------------------------------------------------------------------


def test_inconclusive_requires_reason():
    with pytest.raises(ValueError):
        Verdict(Decision.INCONCLUSIVE, Criterion.CHUNG_FUCHS, {})


def test_verdict_line_format():
    v = Verdict(
        Decision.RECURRENT,
        Criterion.CHUNG_FUCHS,
        {"beta": 0.5, "a": 1.0, "note": "two words"},
    )
    line = v.to_line()
    assert line.startswith("decision=Recurrent criterion=ChungFuchs ")
    assert "beta=0.5" in line and "note=two_words" in line
    # keys after the header are sorted
    keys = [tok.split("=")[0] for tok in line.split()[2:]]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# empirical diagnostic
# ---------------------------------------------------------------------------


def test_diagnostic_zero_schedule():
    sched = single_segment(PureDrift(0.0), 1.0)
    report = empirical_diagnostic(sched, 1.0, [10.0, 20.0, 40.0], 50, seed=1, step=0.1)
    assert report.mean == pytest.approx([10.0, 20.0, 40.0])
    assert report.flag == "growth-consistent-with-recurrence"


def test_diagnostic_drift_saturates():
    sched = single_segment(PureDrift(1.0), 1.0)
    report = empirical_diagnostic(sched, 1.0, [10.0, 20.0, 40.0], 50, seed=2, step=0.01)
    assert report.mean == pytest.approx([1.0, 1.0, 1.0])
    assert report.flag == "saturation-consistent-with-transience"


def test_diagnostic_bm_sqrt_growth():
    report = empirical_diagnostic(BM1, 1.0, [100.0, 200.0, 400.0], 200, seed=3, step=0.05)
    ratios = report.mean[1:] / report.mean[:-1]
    assert np.all((1.25 <= ratios) & (ratios <= 1.6))
    assert report.flag == "growth-consistent-with-recurrence"


@pytest.mark.parametrize(
    "sched", [BM1, single_segment(BrownianDrift([0.1, 0.0], np.eye(2)), 1.0)], ids=["d1", "d2"]
)
def test_diagnostic_rows_are_single_path_occupations(sched):
    # 50 paths span several chunks; each row is still path i of the seed contract
    seed, step, horizons = 8, 0.1, [4.0, 9.3]
    report = empirical_diagnostic(sched, 1.0, horizons, 50, seed=seed, step=step)
    for i in range(report.n_paths):
        path = sample_path(sched, horizons[-1], step, split_seed(seed, i))
        assert report.occupations[i, -1] == occupation_time(path, 1.0)


def test_diagnostic_validation_and_verdict():
    with pytest.raises(ValueError):
        empirical_diagnostic(BM1, 1.0, [10.0], 50, seed=0)
    with pytest.raises(ValueError):
        empirical_diagnostic(BM1, 1.0, [10.0, 20.0], 10, seed=0)
    report = empirical_diagnostic(BM1, 1.0, [5.0, 10.0], 50, seed=0, step=0.1)
    v = empirical_verdict(report)
    assert v.decision is Decision.INCONCLUSIVE
    assert v.criterion is Criterion.EMPIRICAL


def test_compound_poisson_lattice_verdicts():
    # unit point-mass jumps: transient as-is, recurrent once drift-compensated
    cp = CompoundPoisson(2.0, PointMass(1.0))
    assert chung_fuchs_verdict(single_segment(cp, 1.0)).decision is Decision.TRANSIENT
    balanced = SumModel((cp, PureDrift(-2.0)))
    v = chung_fuchs_verdict(single_segment(balanced, 1.0))
    assert v.decision is Decision.RECURRENT
    assert abs(v.evidence["beta"] - 0.5) < 0.05
