"""Classification: quadrature against closed forms, verdicts on known fixtures."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from semilevy import classify
from semilevy import schedule as schedule_module
from semilevy.classify import (
    MAX_LEVELS,
    Criterion,
    Decision,
    QuadratureError,
    Verdict,
    ball_integral_qmc,
    chung_fuchs_integral,
    chung_fuchs_verdict,
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
    LaplaceJump,
    PointMass,
    PureDrift,
    SumModel,
    SymmetricStable,
    UniformJump,
)
from semilevy.schedule import SemiLevySchedule, make_splice, period_exponent, sample_path, single_segment
from semilevy.skeleton import occupation_time
from semilevy.util import split_seed

BM1 = single_segment(BrownianDrift(0.0, 1.0), 1.0)
BM3 = single_segment(BrownianDrift(np.zeros(3), np.eye(3)), 1.0)
# d >= 4: the radial engine for rotation-invariant laws without a drift, QMC for every other law
BM4 = single_segment(BrownianDrift(np.zeros(4), np.eye(4)), 1.0)
BM4_ANISO = single_segment(BrownianDrift(np.zeros(4), np.diag([1.0, 2.0, 1.0, 1.0])), 1.0)
CAUCHY = single_segment(SymmetricStable(1.0, 1.0, 1), 1.0)


def bm1_oracle(a, q):
    return 2.0 * np.sqrt(2.0 / q) * np.arctan(a / np.sqrt(2.0 * q))


def cauchy_oracle(a, q):
    return 2.0 * np.log(1.0 + a / q)


def bm3_oracle(a, q):
    return 8.0 * np.pi * (a - np.sqrt(2.0 * q) * np.arctan(a / np.sqrt(2.0 * q)))


def radial_reference(integrand, a, q):
    # 4 pi times the integral over [0, a] of r^2 integrand(r, q), on the origin breakpoints
    def f(r):
        return 4.0 * np.pi * r * r * integrand(r, q)

    points = classify._origin_ladder(a)
    return integrate.quad(f, 0.0, a, points=points, limit=800, epsabs=0.0, epsrel=1e-11)[0]


def stable3_reference(alpha, a, q):
    # SymmetricStable(alpha, 1, 3): psi = -|z|^alpha is isotropic, so I(q) is radial
    return radial_reference(lambda r, q: 1.0 / (q + r**alpha), a, q)


def bm3_drift_reference(m, a, q):
    # BrownianDrift(m, I) in d = 3: the cos(theta) integral of Re 1/(q + r^2/2 - i |m| r u) over
    # [-1, 1] is 2 arctan(|m| r / (q + r^2/2)) / (|m| r)
    return radial_reference(lambda r, q: np.arctan(m * r / (q + 0.5 * r * r)) / (m * r), a, q)


def bm4_oracle(a, q):
    # 2 pi^2 times the integral over [0, a] of r^3 / (q + r^2 / 2)
    return np.pi**2 * (2.0 * a * a - 4.0 * q * np.log1p(a * a / (2.0 * q)))


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
    # 16 replicates of 2**16 nodes of 129 coordinates: refused from the sizes
    # alone, by the verdict's ladder as by the single integral; a drift keeps
    # the ladder on QMC, which a rotation-invariant law without one leaves
    bm128 = single_segment(BrownianDrift(np.zeros(128), 1.0), 1.0)
    drifting = single_segment(BrownianDrift(np.eye(1, 128)[0], 1.0), 1.0)
    for call in (lambda: ball_integral_qmc(bm128, 1.0, 1e-3), lambda: chung_fuchs_verdict(drifting)):
        with pytest.raises(ValueError, match="more than the bound") as refused:
            call()
        # the refusal names its factors: the dimension is the only one a user sets
        assert "(replicates 16 x nodes 65536 x coordinates 129)" in str(refused.value)


def test_radial_ladder_bounds_its_nodes(monkeypatch):
    def no_psi(*args):
        raise AssertionError("psi evaluated before the checks")

    # groups of GK_CHUNK = 2**14 radial nodes of 8193 coordinates each: refused before any psi
    monkeypatch.setattr(classify, "period_exponent", no_psi)
    with pytest.raises(ValueError, match=r"\(nodes 16384 x coordinates 8193\), more than the bound"):
        chung_fuchs_verdict(single_segment(SymmetricStable(1.5, 1.0, 8193), 1.0))
    monkeypatch.undo()
    # 128 coordinates, which QMC refuses, take the radial panels
    v = chung_fuchs_verdict(single_segment(BrownianDrift(np.zeros(128), 1.0), 1.0))
    assert v.decision is Decision.TRANSIENT
    assert 0.0 < v.evidence["quad_rel_err"] <= classify.QUAD_REL_TOL


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
# laws that are not rotation invariant keep the angular boxes in d = 2, 3
BM2_ANISO = single_segment(BrownianDrift(np.zeros(2), np.diag([1.0, 2.0])), 1.0)
BM3_ANISO = single_segment(BrownianDrift(np.zeros(3), np.diag([1.0, 1.0, 2.0])), 1.0)
BM2_DRIFT = single_segment(BrownianDrift(np.array([0.5, 0.0]), np.eye(2)), 1.0)
BM2_DRIFT_ANISO = single_segment(BrownianDrift(np.array([0.5, 0.0]), np.diag([1.0, 2.0])), 1.0)
BM3_DRIFT = single_segment(BrownianDrift(np.array([0.2, -0.4, 0.1]), np.eye(3)), 1.0)


def test_gauss_kronrod_constants():
    # the odd positions are the n-point Gauss-Legendre rule, exact to degree
    # 2n - 1: G10 to 19 and G7 to 13; K21 is exact to degree 31 and K15 to 23
    for points, n, kronrod_degree in ((21, 10, 31), (15, 7, 23)):
        nodes, kronrod, gauss = classify._GK_RULES[points]
        assert nodes.size == kronrod.size == gauss.size == points
        x, w = np.polynomial.legendre.leggauss(n)
        assert nodes[1::2] == pytest.approx(x, abs=1e-15)
        assert gauss[1::2] == pytest.approx(w, abs=1e-15)
        assert not gauss[::2].any()
        for degree in range(kronrod_degree + 1):
            exact = (1.0 + (-1.0) ** degree) / (degree + 1)
            values = nodes**degree
            assert values @ kronrod == pytest.approx(exact, abs=1e-15)
            if degree < 2 * n:
                assert values @ gauss == pytest.approx(exact, abs=1e-15)


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
        (BM3, lambda q: bm3_oracle(1.0, q), classify.QUAD_REL_TOL),
        (
            single_segment(SymmetricStable(1.5, 1.0, 3), 1.0),
            lambda q: stable3_reference(1.5, 1.0, q),
            classify.QUAD_REL_TOL,
        ),
        # the radial panels in d = 3 with a drift, and in d = 4
        (
            single_segment(BrownianDrift(np.array([0.0, 0.3, 0.4]), np.eye(3)), 1.0),
            lambda q: bm3_drift_reference(0.5, 1.0, q),
            classify.QUAD_REL_TOL,
        ),
        (BM4, lambda q: bm4_oracle(1.0, q), 1e-8),
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


def test_ladder_d4_equals_ball_integral_qmc():
    # a law that is not rotation invariant keeps QMC in d >= 4
    assert classify._invariant_drift(BM4_ANISO) is None
    values, errors, work = classify._ladder(BM4_ANISO, 1.0, LADDER_QS, seed=5)
    for q, value, error in zip(LADDER_QS, values, errors):
        assert (value, error) == ball_integral_qmc(BM4_ANISO, 1.0, float(q), seed=5)
    assert work["psi_points"] == 2**20


@pytest.mark.parametrize(
    "sched",
    [
        BM4,
        single_segment(BrownianDrift(np.zeros(6), 0.5 * np.eye(6)), 1.0),
        single_segment(SymmetricStable(1.5, 1.0, 4), 1.0),
        make_splice(SymmetricStable(0.8, 1.0, 5), CompoundPoisson(2.0, GaussianJump(np.zeros(5), 1.0)), 0.5, 1.0),
    ],
    ids=["bm4", "bm6", "stable15-d4", "stable08-splice-d5"],
)
def test_radial_ladder_d4_and_up_agrees_with_qmc(sched):
    # the radial panels times |S^(d-1)| against the 2**20 QMC nodes they replace, at one level
    q = float(LADDER_QS[-1])
    value, qmc_error = ball_integral_qmc(sched, 1.0, q, seed=3)
    values, errors, work = classify._ladder(sched, 1.0, [q], seed=3)
    assert abs(values[0] - value) <= 4.0 * qmc_error
    assert errors[0] <= classify.QUAD_REL_TOL * values[0]
    assert work["psi_points"] < 1000 and "stderrs" not in work


def test_sphere_area_from_lgamma():
    # |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2): 2 pi^2, 8 pi^2 / 3 and pi^3 in d = 4, 5, 6
    for dim, area in ((4, 2.0 * np.pi**2), (5, 8.0 * np.pi**2 / 3.0), (6, np.pi**3)):
        assert classify._sphere_area(dim) == pytest.approx(area, rel=1e-15)
    assert [classify._sphere_area(d) for d in (1, 2, 3)] == [2.0, 2.0 * np.pi, 4.0 * np.pi]


@pytest.mark.parametrize("direction", [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], np.ones(3) / np.sqrt(3.0)])
def test_ladder_d3_drift_direction_leaves_the_integral(direction):
    # any direction of the same drift gives the same I(q): on the radial panels, which read
    # only |m|, and on the angular boxes, whose pole follows the one-period mean
    sched = single_segment(BrownianDrift(0.5 * np.asarray(direction), np.eye(3)), 1.0)
    values, errors, _ = classify._ladder(sched, 1.0, LADDER_QS, seed=0)
    psi = classify._Psi(sched, LADDER_QS)
    lo, hi, rules, area = classify._gk_boxes(3, 1.0, radial=False)
    angular, angular_errors = (area * x for x in classify._gk_ladder(psi.sphere, psi, lo, hi, rules))
    for engine_values, engine_errors in ((values, errors), (angular, angular_errors)):
        for q, value in zip(LADDER_QS, engine_values):
            assert value == pytest.approx(bm3_drift_reference(0.5, 1.0, q), rel=classify.QUAD_REL_TOL)
        assert np.all(engine_errors <= classify.QUAD_REL_TOL * engine_values)


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
    # the angular d = 2 boxes of a drifting law that is not rotation invariant
    assert classify._invariant_drift(BM2_DRIFT_ANISO) is None
    v = chung_fuchs_verdict(BM2_DRIFT_ANISO)
    assert v.evidence["psi_points"] > classify.PSI_CHUNK
    assert max(sizes) <= classify.PSI_CHUNK
    assert v.evidence["psi_points"] == sum(sizes)
    sizes.clear()
    # the angular d = 3 boxes: more than PSI_CHUNK points, in bounded calls
    assert classify._invariant_drift(BM3_ANISO) is None
    v = chung_fuchs_verdict(BM3_ANISO)
    assert v.evidence["psi_points"] > classify.PSI_CHUNK
    assert max(sizes) <= classify.PSI_CHUNK
    assert v.evidence["psi_points"] == sum(sizes)


def test_ladder_point_budget_raises(monkeypatch):
    # the sharp angular peak of 2-d BM with drift and an anisotropic covariance needs far more than this
    monkeypatch.setattr(classify, "PSI_POINT_BUDGET", 100_000)
    with pytest.raises(QuadratureError):
        chung_fuchs_verdict(BM2_DRIFT_ANISO)


def _premise_schedules(dim):
    # every catalog kind in dimension dim, off the axes where it has a direction
    v = np.array([0.7, -0.4, 0.25])[:dim]
    cov = np.eye(dim) + 0.2
    models = [
        BrownianDrift(0.3 * v, cov),
        *(SymmetricStable(alpha, 0.8, dim) for alpha in (0.8, 1.0, 1.5)),
        PureDrift(-0.4 * v),
        CompoundPoisson(2.5, PointMass(v)),
        CompoundPoisson(2.5, UniformJump(v - 1.0, v + 0.5)),
        CompoundPoisson(2.5, GaussianJump(0.2 * v, 0.5 * cov)),
        CompoundPoisson(2.5, LaplaceJump(-0.1 * v, 0.7)),
    ]
    mix = SumModel((models[0], models[7], models[2], models[4]))
    return [single_segment(m, 1.0) for m in (*models, mix)] + [make_splice(models[3], models[8], 0.4, 1.5)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_integrand_is_even_in_z(dim):
    # the half ball's premise: psi(-z) is the conjugate of psi(z), so Re 1/(q - psi) takes
    # the same value at -z as at z, for every kind, splice and sum
    z = np.random.default_rng(dim).normal(size=(64, dim)) * np.geomspace(1e-3, 30.0, 64)[:, None]
    for sched in _premise_schedules(dim):
        for q in (1e-2, 1e-7):
            at_z = classify._cf_integrand(period_exponent(sched, z), q)
            np.testing.assert_allclose(classify._cf_integrand(period_exponent(sched, -z), q), at_z, rtol=1e-14, atol=0)


@pytest.mark.parametrize(
    "sched",
    [
        BM1,
        CAUCHY,
        make_splice(SymmetricStable(1.5, 0.5, 1), CompoundPoisson(1.0, LaplaceJump(0.3, 0.6)), 1.0, 3.0),
        BM2,
        single_segment(BrownianDrift(np.array([0.5, 0.0]), np.eye(2)), 1.0),
        single_segment(BrownianDrift(np.array([3.0, 4.0]), [[1.0, 0.3], [0.3, 0.5]]), 1.0),
        single_segment(SymmetricStable(1.9, 1.0, 2), 1.0),
        make_splice(
            BrownianDrift([0.2, -0.1], np.eye(2)), CompoundPoisson(2.0, GaussianJump([0.3, 0.1], np.eye(2))), 0.5, 1.0
        ),
    ],
)
def test_half_ball_ladder_matches_the_mirrored_full_ball(sched):
    # d <= 2 integrates r >= 0 (d = 1, and on the ray of an invariant law in d = 2) or
    # theta in [0, pi] (d = 2) and doubles; the reference adds the mirror image z -> -z
    # of every box and does not double
    values, errors, _ = classify._ladder(sched, 1.0, LADDER_QS, seed=0)
    psi = classify._Psi(sched, LADDER_QS)
    radii = np.concatenate([[0.0], classify._origin_ladder(1.0)[::-1], [1.0]])
    k21 = classify._GK_RULES[21]
    if sched.dim == 1:
        lo, hi = radii[:-1, None], radii[1:, None]
        f, rules, mirror_lo, mirror_hi = psi.integrand, [k21], -hi, -lo
    else:
        lo = np.column_stack([radii[:-1], np.zeros(radii.size - 1)])
        hi = np.column_stack([radii[1:], np.full(radii.size - 1, np.pi)])
        f, rules, mirror_lo, mirror_hi = psi.sphere, [k21, k21], lo + [0.0, np.pi], hi + [0.0, np.pi]
    boxes = np.concatenate([lo, mirror_lo]), np.concatenate([hi, mirror_hi])
    full, full_errors = classify._gk_ladder(f, psi, *boxes, rules)
    np.testing.assert_allclose(values, full, rtol=1e-13, atol=0)
    assert np.all(full_errors <= classify.QUAD_REL_TOL * full)


def _rotation(dim, rng):
    # a random rotation: the Q of a Gaussian matrix's QR, signs fixed, with determinant +1
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _invariant_models(draw, dim):
    # a model of one invariant kind, or a SumModel of two
    c = draw(st.floats(0.05, 20.0))
    kinds = [
        lambda: BrownianDrift(np.zeros(dim), c * np.eye(dim)),
        lambda: SymmetricStable(draw(st.floats(0.2, 2.0)), c, dim),
        lambda: CompoundPoisson(c, GaussianJump(np.zeros(dim), draw(st.floats(0.05, 5.0)) * np.eye(dim))),
        lambda: CompoundPoisson(c, PointMass(np.zeros(dim))),
        lambda: PureDrift(np.zeros(dim)),
    ]
    model = kinds[draw(st.integers(0, len(kinds) - 1))]()
    if draw(st.booleans()):
        model = SumModel((model, kinds[draw(st.integers(0, len(kinds) - 1))]()))
    return model


@st.composite
def invariant_schedules(draw):
    dim = draw(st.sampled_from([2, 3]))
    first = _invariant_models(draw, dim)
    if draw(st.booleans()):
        return single_segment(first, draw(st.floats(0.1, 3.0)))
    return make_splice(first, _invariant_models(draw, dim), draw(st.floats(0.1, 0.9)), 1.0)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sched=invariant_schedules(), seed=st.integers(0, 2**32 - 1))
def test_invariant_schedules_have_rotation_invariant_exponents(sched, seed):
    # the radial ladder's premise: a schedule whose every segment says it is invariant with
    # m = 0 has psi(R z) = psi(z) under rotations R, to rounding
    assert np.array_equal(classify._invariant_drift(sched), np.zeros(sched.dim))
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(64, sched.dim))
    z *= (np.geomspace(0.3, 30.0, 64) / np.linalg.norm(z, axis=1))[:, None]
    at_z = period_exponent(sched, z)
    for _ in range(3):
        np.testing.assert_allclose(period_exponent(sched, z @ _rotation(sched.dim, rng).T), at_z, rtol=1e-13, atol=0)


def _near_misses():
    # one exact change away from an invariant law: each must keep the angular boxes
    zero2, stable2 = np.zeros(2), SymmetricStable(1.5, 1.0, 2)
    return {
        "cov diag(1, 1 + 2^-52)": single_segment(BrownianDrift(zero2, np.diag([1.0, 1.0 + 2.0**-52])), 1.0),
        "cov with an off-diagonal 1e-300": single_segment(BrownianDrift(zero2, [[1.0, 1e-300], [1e-300, 1.0]]), 1.0),
        "Gaussian jump with mean": single_segment(CompoundPoisson(1.0, GaussianJump([0.0, 1e-300], np.eye(2))), 1.0),
        "Gaussian jump cov diag(1, 2)": single_segment(CompoundPoisson(1.0, GaussianJump(zero2, np.diag([1.0, 2.0]))), 1.0),
        "uniform jumps": single_segment(CompoundPoisson(1.0, UniformJump(-np.ones(2), np.ones(2))), 1.0),
        "Laplace jumps": single_segment(CompoundPoisson(1.0, LaplaceJump(zero2, 1.0)), 1.0),
        "point mass off 0": single_segment(CompoundPoisson(1.0, PointMass([0.0, 1e-300])), 1.0),
        "drifting BM with cov diag(1, 2)": single_segment(BrownianDrift([0.5, 0.0], np.diag([1.0, 2.0])), 1.0),
        "sum with one anisotropic part": single_segment(
            SumModel((stable2, PureDrift([0.0, 0.1]), BrownianDrift(zero2, np.diag([1.0, 2.0])))), 1.0
        ),
        "splice with one anisotropic part": make_splice(stable2, BrownianDrift(zero2, np.diag([1.0, 2.0])), 0.5, 1.0),
        "3-d splice with Laplace jumps": make_splice(
            SymmetricStable(0.8, 1.0, 3), CompoundPoisson(1.0, LaplaceJump(np.zeros(3), 1.0)), 0.5, 1.0
        ),
    }


@pytest.mark.parametrize("name", list(_near_misses()))
def test_near_invariant_schedules_are_refused(name):
    assert classify._invariant_drift(_near_misses()[name]) is None


def _drifts_accepted():
    # a drift is no near miss: psi(z) - i<m, z> stays rotation invariant, and the hook returns
    # m, the durations' weighted sum of the parts' m, however small, and read off the exact
    # parameters where the one-period mean is infinite
    bm2, stable2 = BrownianDrift(np.zeros(2), np.eye(2)), SymmetricStable(1.5, 1.0, 2)
    return {
        "BM drift 1e-300 on one axis": (single_segment(BrownianDrift([0.0, 1e-300], np.eye(2)), 1.0), [0.0, 1e-300]),
        "pure drift 1e-300 on one axis": (single_segment(PureDrift([1e-300, 0.0, 0.0]), 1.0), [1e-300, 0.0, 0.0]),
        "sum with one drift": (single_segment(SumModel((stable2, bm2, PureDrift([0.0, 0.1]))), 1.0), [0.0, 0.1]),
        "splice of drifts": (
            SemiLevySchedule(3.0, ((1.0, BrownianDrift([1.0, 2.0], 0.5)), (2.0, PureDrift([-0.25, 0.5])))),
            [0.5, 3.0],
        ),
        "Cauchy with a drift, no mean": (
            single_segment(SumModel((SymmetricStable(1.0, 1.0, 3), PureDrift([0.0, 0.0, 2.0]))), 0.5),
            [0.0, 0.0, 1.0],
        ),
    }


@pytest.mark.parametrize("name", list(_drifts_accepted()))
def test_invariant_laws_with_a_drift_return_it(name):
    sched, m = _drifts_accepted()[name]
    assert np.array_equal(classify._invariant_drift(sched), m)


def _drifting_invariant_models(draw, dim):
    # an invariant model, perhaps with a stable part of alpha <= 1, plus a drift of size
    # 1e-300 to about 5: a pure drift beside it in a SumModel, or a BM's own drift
    model = _invariant_models(draw, dim)
    if draw(st.booleans()):
        model = SumModel((model, SymmetricStable(draw(st.floats(0.2, 1.0)), draw(st.floats(0.05, 20.0)), dim)))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)))
    drift = direction * 10.0 ** draw(st.floats(-300.0, 0.5))
    if draw(st.booleans()):
        return SumModel((model, PureDrift(drift)))
    return SumModel((BrownianDrift(drift, draw(st.floats(0.05, 20.0)) * np.eye(dim)), model))


@st.composite
def drifting_invariant_schedules(draw):
    dim = draw(st.sampled_from([2, 3]))
    first = _drifting_invariant_models(draw, dim)
    if draw(st.booleans()):
        return single_segment(first, draw(st.floats(0.1, 3.0)))
    second = _drifting_invariant_models(draw, dim) if draw(st.booleans()) else _invariant_models(draw, dim)
    return make_splice(first, second, draw(st.floats(0.1, 0.9)), 1.0)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(sched=drifting_invariant_schedules())
def test_radial_ladder_with_a_drift_matches_the_angular_boxes(sched):
    # psi(z) = i<m, z> - phi(|z|): the radial panels on the closed-form angular mean and the
    # angular boxes they replace agree at every level and decide alike
    assert classify._invariant_drift(sched) is not None
    radial = chung_fuchs_verdict(sched)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify._Psi, "drift", None)  # every _Psi takes the angular boxes
        angular = chung_fuchs_verdict(sched)
    np.testing.assert_allclose(
        radial.evidence["integrals"], angular.evidence["integrals"], rtol=classify.QUAD_REL_TOL, atol=0
    )
    assert radial.evidence["quad_rel_err"] <= classify.QUAD_REL_TOL and "stderrs" not in radial.evidence
    assert radial.decision is angular.decision
    assert radial.evidence["psi_points"] < angular.evidence["psi_points"]


def _radial_laws(dim):
    # invariant laws of every kind the radial engine serves
    zero, eye = np.zeros(dim), np.eye(dim)
    return [
        single_segment(BrownianDrift(zero, 1.3 * eye), 1.0),
        *(single_segment(SymmetricStable(alpha, 1.0, dim), 1.0) for alpha in (0.8, 1.0, 1.5, 1.9)),
        single_segment(SumModel((SymmetricStable(1.5, 0.5, dim), BrownianDrift(zero, 0.7 * eye))), 1.0),
        single_segment(CompoundPoisson(2.0, GaussianJump(zero, 0.5 * eye)), 1.0),
        make_splice(SymmetricStable(1.2, 1.0, dim), CompoundPoisson(1.5, GaussianJump(zero, eye)), 0.4, 1.0),
    ]


@pytest.mark.parametrize("sched", [*_radial_laws(2), *_radial_laws(3)])
def test_radial_ladder_matches_the_angular_boxes(sched):
    # for an invariant law the angular integral is exact: the radial _ladder and the angular
    # boxes it replaces agree at every level, and the radial one costs fewer psi points
    assert not classify._invariant_drift(sched).any()
    values, errors, work = classify._ladder(sched, 1.0, LADDER_QS, seed=0)
    psi = classify._Psi(sched, LADDER_QS)
    lo, hi, rules, area = classify._gk_boxes(sched.dim, 1.0, radial=False)
    angular, angular_errors = (area * x for x in classify._gk_ladder(psi.sphere, psi, lo, hi, rules))
    np.testing.assert_allclose(values, angular, rtol=1e-12, atol=0)
    assert np.all(errors <= classify.QUAD_REL_TOL * values)
    assert np.all(angular_errors <= classify.QUAD_REL_TOL * angular)
    assert work["psi_points"] < psi.points


@pytest.mark.parametrize(
    "sched, points",
    [
        (BM1, 1_218 // 2),  # exactly half the whole line's panels
        (BM2, 609),  # radial: the panels of d = 1
        (BM2_ANISO, 19_845),
        (BM2_DRIFT, 567),  # radial: the drift enters the closed-form angular mean
        (BM2_DRIFT_ANISO, 116_865),
        (BM3, 483),
        (BM3_ANISO, 165_375),
        (BM4, 441),  # radial, in place of 2**20 QMC nodes
    ],
    ids=["bm1", "bm2", "bm2-aniso", "bm2-drift", "bm2-drift-aniso", "bm3", "bm3-aniso", "bm4"],
)
def test_ladder_psi_points_are_pinned(sched, points):
    # the work of the half ball in d <= 2, of the G7/K15 angle axes in d = 3 and of
    # the radial panels alone for invariant laws with or without a drift in d = 2, 3,
    # and without one from d = 4 on: a change that gives any of them back fails here
    assert chung_fuchs_verdict(sched).evidence["psi_points"] == points


def test_nan_exponent_raises_instead_of_refining(monkeypatch):
    monkeypatch.setattr(classify, "period_exponent", lambda schedule, z: np.full(len(z), np.nan + 0j))
    # both engines: radial (d = 1 and invariant laws, with a drift in d = 2, 3) and angular
    for sched in (BM1, BM2, BM2_DRIFT, BM2_ANISO, BM3, BM3_DRIFT, BM3_ANISO, BM4):
        # the value prints as a plain number
        with pytest.raises(QuadratureError, match=r"-d Chung-Fuchs integral is nan at q=0\.01, a=1$"):
            chung_fuchs_integral(sched, 1.0, 1e-2)


def test_underflowing_integral_raises():
    # on the smallest positive radius every I(q) rounds to 0: an error, not a
    # relative error estimate of 0/0
    for sched in (BM1, BM2, BM2_DRIFT, BM2_ANISO, BM3, BM3_DRIFT, BM3_ANISO, BM4):
        with pytest.raises(QuadratureError, match="Chung-Fuchs integral is"):
            chung_fuchs_integral(sched, 5e-324, 1e-2)


def test_overflowing_exponent_raises():
    # a Gaussian at scale 1e200 is recurrent; its exponent overflows the
    # integrand, which used to read as an all-zero, converged ladder
    sched = single_segment(SymmetricStable(2.0, 1e200, 1), 1.0)
    with pytest.raises(QuadratureError):
        chung_fuchs_integral(sched, 1.0, 1e-2)
    with pytest.raises(QuadratureError):
        chung_fuchs_verdict(sched)
    # the closed-form angular mean of the radial panels: an exponent whose square overflows,
    # in d = 2, 3 and 4, and a one-period drift of inf, whose mean would be a silent zero
    for dim in (2, 3, 4):
        with pytest.raises(QuadratureError, match="integrand out of range"):
            chung_fuchs_integral(single_segment(SymmetricStable(2.0, 1e200, dim), 1.0), 1.0, 1e-2)
    drift = PureDrift([1e308, 0.0, 0.0])
    with pytest.raises(QuadratureError, match="integrand out of range"):
        chung_fuchs_integral(SemiLevySchedule(2.0, ((1.0, drift), (1.0, drift))), 1.0, 1e-2)
    # drifts of 2e308 and -2e308 sum to a one-period m of nan, whose mean must not pass as 1/A
    for dim in (2, 3):
        up, down = PureDrift(1e308 * np.eye(1, dim)[0]), PureDrift(-1e308 * np.eye(1, dim)[0])
        sched = SemiLevySchedule(6.0, ((2.0, up), (2.0, down), (2.0, BrownianDrift(np.zeros(dim), 1.0))))
        with pytest.raises(QuadratureError, match="Chung-Fuchs integral is nan"):
            chung_fuchs_integral(sched, 1.0, 1e-2)


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
    # Gauss-Kronrod boxes: at least 4x fewer points than the 2**20 QMC nodes
    assert v.evidence["psi_points"] <= 2**18
    assert 0.0 < v.evidence["quad_rel_err"] <= classify.QUAD_REL_TOL
    assert "stderrs" not in v.evidence


def test_verdict_bm4_transient():
    # QMC for a 4-d law that is not rotation invariant
    v = chung_fuchs_verdict(BM4_ANISO, seed=0)
    assert v.decision is Decision.TRANSIENT
    assert v.evidence["remaining_frac"] < 0.01
    assert v.evidence["psi_points"] == 2**20
    assert "quad_rel_err" not in v.evidence


def test_verdict_invariant_bm4_radial_transient():
    v = chung_fuchs_verdict(BM4, seed=0)
    assert v.decision is Decision.TRANSIENT
    assert v.evidence["remaining_frac"] < 0.01
    assert 0.0 < v.evidence["quad_rel_err"] <= classify.QUAD_REL_TOL
    assert "stderrs" not in v.evidence


def test_verdict_evidence_reports_work_and_error():
    for sched in (BM1, BM2):
        v = chung_fuchs_verdict(sched)
        assert 0 < v.evidence["psi_points"] < classify.PSI_POINT_BUDGET
        assert 0.0 < v.evidence["quad_rel_err"] <= classify.QUAD_REL_TOL
        assert "stderrs" not in v.evidence


def test_verdict_drifting_bm_transient():
    v = chung_fuchs_verdict(single_segment(BrownianDrift(1.0, 1.0), 1.0))
    assert v.decision is Decision.TRANSIENT


def test_verdict_slow_transient_ladder_is_never_recurrent():
    # 1-d alpha = 0.8 is transient, yet its ladder converges too slowly to
    # settle and grows too little to fit: the verdict may decline, never err
    v = chung_fuchs_verdict(single_segment(SymmetricStable(0.8, 1.0, 1), 1.0))
    assert v.decision is not Decision.RECURRENT
    if v.decision is Decision.INCONCLUSIVE:
        assert v.evidence["reason"] == "ladder neither settles nor fits an unbounded growth model"
        assert {"beta", "power_r2", "log_r2"} <= v.evidence.keys()


def test_verdict_d3_strong_drift_transient():
    # a drift of 50 puts a sharp peak on the plane normal to it, which the closed-form
    # angular mean of the radial panels holds exactly
    v = chung_fuchs_verdict(single_segment(BrownianDrift([50.0, 0.0, 0.0], 1.0), 1.0))
    assert v.decision is Decision.TRANSIENT
    assert 0.0 < v.evidence["quad_rel_err"] <= classify.QUAD_REL_TOL


def test_verdict_d4_ladder_below_noise_floor_is_inconclusive():
    # a drift of 50 in 4-d: I(q) barely moves along the ladder, less than
    # the QMC noise, so no decision is read off it
    v = chung_fuchs_verdict(single_segment(BrownianDrift([50.0, 0.0, 0.0, 0.0], 1.0), 1.0))
    assert v.decision is Decision.INCONCLUSIVE
    assert v.evidence["reason"] == "ladder variation below the integration noise floor"
    spread = v.evidence["integrals"].max() - v.evidence["integrals"].min()
    assert 0.0 < spread < v.evidence["noise_floor"]


def test_verdict_d1_d2_ladder_below_noise_floor_is_inconclusive(monkeypatch):
    # the noise guard reads each engine's own error estimate: the box errors
    # of d <= 3 ladders are guarded like the QMC standard errors of d >= 4.
    # Their ladders move by about 1e12 (BM1) and 5e12 (BM2) times their
    # largest box error, so a factor of 1e15 puts both below the floor
    monkeypatch.setattr(classify, "SIGNAL_FACTOR", 1e15)
    for sched in (BM1, BM2):
        v = chung_fuchs_verdict(sched)
        assert v.decision is Decision.INCONCLUSIVE
        assert v.evidence["reason"] == "ladder variation below the integration noise floor"
        spread = v.evidence["integrals"].max() - v.evidence["integrals"].min()
        assert 0.0 < spread < v.evidence["noise_floor"]


@pytest.mark.parametrize("dim", [2, 3])
def test_verdict_settled_ladder_takes_the_converged_return(dim):
    # a pure drift of 3e10: I(q) moves by about 3e-13 of its value along the ladder, above
    # the noise floor of the exact radial panels and below 1e-12 at every step
    v = chung_fuchs_verdict(single_segment(PureDrift(3e10 * np.eye(1, dim)[0]), 1.0))
    assert v.decision is Decision.TRANSIENT
    assert v.evidence["fit"] == "converged" and v.evidence["remaining_frac"] == 0.0
    assert "rho" not in v.evidence
    steps = np.abs(np.diff(v.evidence["integrals"]))
    assert 0.0 < steps.max() <= 1e-12 * v.evidence["integrals"][-1]


def test_verdict_both_fits_pass_takes_the_better_r2():
    # Cauchy of scale 300: I(q) = (2/300) (ln(1/q) + ln 300) + o(1) is logarithmic, and its
    # offset also makes ln I(q) nearly linear, with beta >= 0.05 and R^2 >= 0.99
    v = chung_fuchs_verdict(single_segment(SymmetricStable(1.0, 300.0, 1), 1.0))
    e = v.evidence
    assert v.decision is Decision.RECURRENT
    assert e["beta"] >= classify.POWER_BETA_MIN and e["power_r2"] >= classify.FIT_R2_MIN
    assert e["log_slope"] > 0.0 and e["log_r2"] >= classify.FIT_R2_MIN
    assert e["log_r2"] > e["power_r2"] and e["fit"] == "log"


def test_line_fit_of_an_underflowing_spread_has_r2_zero():
    # over a ball of radius 1e-70, I(q) of 3-d BM is about 1e-205: the spread of the ladder
    # squares to 0, so the logarithmic fit has R^2 = 0 where a ratio would divide by zero
    v = chung_fuchs_verdict(BM3, a=1e-70)
    assert np.all(v.evidence["integrals"] < 1e-200)
    assert v.evidence["log_r2"] == 0.0 and v.evidence["log_slope"] > 0.0
    assert v.evidence["fit"] == "power"
    assert classify._line_fit(np.arange(4.0), np.full(4, 2.5)) == (pytest.approx(0.0, abs=1e-15), 0.0)


def test_verdict_levels_validation():
    with pytest.raises(ValueError):
        chung_fuchs_verdict(BM1, levels=5)
    # a fractional ladder length is refused, not rounded up to the next whole level
    for bad in (6.5, 8.25, np.nan, "8"):
        with pytest.raises(ValueError, match="^levels must be a whole number"):
            chung_fuchs_verdict(BM1, levels=bad)
    assert len(chung_fuchs_verdict(BM1, levels=6.0).evidence["integrals"]) == 6
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
# mean criterion
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


def test_mean_criterion_single_segments():
    assert mean_criterion(single_segment(PureDrift(0.0))).decision is Decision.RECURRENT
    assert mean_criterion(single_segment(PureDrift(1.0))).decision is Decision.TRANSIENT
    assert mean_criterion(single_segment(SymmetricStable(1.0, 1.0, 1))).decision is Decision.INCONCLUSIVE


def test_drift_test_matches_mean_criterion_on_splice():
    # time-scaled sum model carrying the splice's one-period mean rate, read as
    # a single segment: the same decision as the splice, drifting or not
    q, p = 1.0, 3.0
    for second_drift, decision in ((-0.5, Decision.RECURRENT), (-0.25, Decision.TRANSIENT)):
        splice = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(second_drift, 1.0), q, p)
        equivalent = SumModel(
            (BrownianDrift(1.0, 1.0).scaled(q / p), BrownianDrift(second_drift, 1.0).scaled((p - q) / p))
        )
        assert mean_criterion(splice).decision is decision
        assert mean_criterion(single_segment(equivalent)).decision is decision


# case -> (schedule with every drift scaled by c, decision): one-period means
# whose terms cancel exactly in decimal but not in floating point, and nonzero
# means, one of them tiny
ZERO_TESTS = {
    "decimal-segments": (
        lambda c: SemiLevySchedule(1.6, ((0.7, BrownianDrift(9e4 * c, 1.0)), (0.9, BrownianDrift(-7e4 * c, 1.0)))),
        Decision.RECURRENT,
    ),
    "splice": (
        lambda c: make_splice(BrownianDrift(1.4e5 * c, 1.0), BrownianDrift(-2e4 * c, 1.0), 0.1, 0.8),
        Decision.RECURRENT,
    ),
    # the components of a sum count on their own: 0.1 + 0.2 - 0.3 is 5.6e-17
    "sum": (
        lambda c: single_segment(SumModel((PureDrift(0.1 * c), PureDrift(0.2 * c), PureDrift(-0.3 * c)))),
        Decision.RECURRENT,
    ),
    "tiny": (lambda c: make_splice(PureDrift(1e-13 * c), PureDrift(0.0), 1.0, 2.0), Decision.TRANSIENT),
    "common": (lambda c: make_splice(PureDrift(c), PureDrift(c), 0.7, 2.0), Decision.TRANSIENT),
}


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("case", list(ZERO_TESTS))
def test_mean_criterion_zero_test_is_relative(case, scale):
    # rounding in the sum is no drift, and scaling every drift keeps the decision
    make, decision = ZERO_TESTS[case]
    assert mean_criterion(make(scale)).decision is decision


def test_mean_criterion_overflowing_mean_raises():
    sched = make_splice(BrownianDrift(1e308, 1.0), BrownianDrift(-1e308, 1.0), 1.0, 3.0)
    with pytest.raises(FloatingPointError):
        mean_criterion(sched)


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


def test_diagnostic_reads_each_horizon_at_the_last_grid_point_before_it():
    # 0.19 lies nearer the grid point 0.2, but the occupation is read at 0.1
    sched = single_segment(PureDrift(0.0), 1.0)
    report = empirical_diagnostic(sched, 1.0, [0.19, 1.0], 50, seed=1, step=0.1)
    assert report.mean == pytest.approx([0.1, 1.0])


def test_diagnostic_bm_sqrt_growth():
    report = empirical_diagnostic(BM1, 1.0, [100.0, 200.0, 400.0], 200, seed=3, step=0.05)
    ratios = report.mean[1:] / report.mean[:-1]
    assert np.all((1.25 <= ratios) & (ratios <= 1.6))
    assert report.flag == "growth-consistent-with-recurrence"


@pytest.mark.parametrize(
    "sched", [BM1, single_segment(BrownianDrift([0.1, 0.0], np.eye(2)), 1.0)], ids=["d1", "d2"]
)
def test_diagnostic_rows_are_single_path_occupations(sched, monkeypatch):
    # 50 paths in ensemble blocks of 7, each reducing its own paths; each row
    # is still path i of the seed contract
    monkeypatch.setattr(schedule_module, "_block_members", lambda values: 7)
    seed, step, horizons = 8, 0.1, [4.0, 9.3]
    report = empirical_diagnostic(sched, 1.0, horizons, 50, seed=seed, step=step)
    for i in range(report.occupations.shape[0]):
        path = sample_path(sched, horizons[-1], step, split_seed(seed, i))
        assert report.occupations[i, -1] == occupation_time(path, 1.0)
    # the mean sums the rows in C order, however the blocks laid them out
    assert np.array_equal(report.mean, np.array(report.occupations.tolist()).mean(axis=0))


@pytest.mark.parametrize("cpus, refused", [(64, True), (2, False)])
def test_diagnostic_size_check_counts_a_path_per_pool_worker(monkeypatch, cpus, refused):
    # 64 one-path blocks in flight hold 64 x 4e6 cells, past the bound; on 2
    # CPUs 16 paths are counted, which pass it, and the run gets to its seeds
    class SeedsBuilt(Exception):
        pass

    def no_seeds(*args, **kwargs):
        raise SeedsBuilt

    monkeypatch.setattr(schedule_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(classify, "split_seeds", no_seeds)
    with pytest.raises(ValueError if refused else SeedsBuilt, match="more than the bound" if refused else None):
        empirical_diagnostic(BM1, 1.0, [2e5, 4e5], 64, seed=0, step=0.1)


def test_diagnostic_validation_and_verdict():
    with pytest.raises(ValueError):
        empirical_diagnostic(BM1, 1.0, [10.0], 50, seed=0)
    with pytest.raises(ValueError):
        empirical_diagnostic(BM1, 1.0, [10.0, 20.0], 10, seed=0)
    for bad in (-1.0, 0.0, np.nan):
        with pytest.raises(ValueError, match="^a must be positive and finite"):
            empirical_diagnostic(BM1, bad, [5.0, 10.0], 50, seed=0)
    with pytest.raises(ValueError, match="^horizons must be positive and finite"):
        empirical_diagnostic(BM1, 1.0, [5.0, np.inf], 50, seed=0)
    with pytest.raises(ValueError, match="^n_paths must be an integer"):
        empirical_diagnostic(BM1, 1.0, [5.0, 10.0], 50.5, seed=0)
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
