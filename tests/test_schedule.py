"""Schedules: increment laws, splice construction, and exact path sampling."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilevy import models as models_module
from semilevy import schedule as schedule_module
from semilevy.lln import _horizon_values
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
from semilevy.schedule import (
    PathSample,
    SemiLevySchedule,
    equivalent_levy_model,
    increment_exponent,
    make_splice,
    period_covariance,
    period_expansion,
    period_exponent,
    period_mean,
    sample_interval_increment,
    sample_path,
    sample_paths,
    single_segment,
)
from semilevy.skeleton import RationalStep, WalkSample, sample_walk, sample_walks
from semilevy.util import check_size, map_indexed, split_seed, split_seeds

BM = BrownianDrift(0.0, 1.0)
SPLICE = make_splice(
    BrownianDrift(0.4, 1.1), CompoundPoisson(1.5, LaplaceJump(0.2, 0.5)), 0.9, 2.3
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_splice_validation():
    with pytest.raises(ValueError):
        make_splice(BM, BM, 2.0, 1.0)  # q >= p
    with pytest.raises(ValueError):
        make_splice(BM, BM, 0.0, 1.0)
    with pytest.raises(ValueError):
        SemiLevySchedule(period=2.0, segments=((0.7, PureDrift(1.0)), (1.2, PureDrift(1.0))))
    with pytest.raises(ValueError):
        SemiLevySchedule(period=1.0, segments=())
    with pytest.raises(TypeError, match="^segment models must be LevyModel instances$"):
        SemiLevySchedule(period=1.0, segments=((1.0, "brownian"),))
    with pytest.raises(DimensionMismatch, match=r"^segment models disagree on dimension: \[1, 2\]$"):
        SemiLevySchedule(period=1.0, segments=((0.5, PureDrift(1.0)), (0.5, PureDrift([1.0, 2.0]))))
    with pytest.raises(DimensionMismatch, match="^splice models must share a dimension$"):
        make_splice(BM, PureDrift([1.0, 2.0]), 0.5, 1.0)
    with pytest.raises(ValueError, match="^horizon must be at least one step$"):
        sample_paths(SPLICE, horizon=0.2, step=0.23, n_paths=1, seed=5)
    # infinite periods and durations: abs(inf - inf) is nan, which passes the tiling check
    with pytest.raises(ValueError, match="^period must be positive and finite"):
        SemiLevySchedule(period=np.inf, segments=((np.inf, BM),))
    with pytest.raises(ValueError, match="^duration must be positive and finite"):
        SemiLevySchedule(period=1.0, segments=((np.inf, BM), (1.0, BM)))
    # times are finite: an infinite one would give an empty or nan increment
    for call in (
        lambda: SPLICE.segment_occupancy(0.0, np.inf),
        lambda: increment_exponent(SPLICE, 0.0, np.inf, 1.0),
        lambda: sample_interval_increment(SPLICE, 0.0, np.inf, np.random.default_rng(0)),
    ):
        with pytest.raises(ValueError, match="< inf"):
            call()


def test_counts_are_integers_of_at_least_zero():
    # a count is never truncated, and a negative one does not read as none
    with pytest.raises(ValueError, match="^n_paths must be an integer of at least 0, got 2.5"):
        sample_paths(SPLICE, horizon=2.3, step=0.23, n_paths=2.5, seed=5)
    with pytest.raises(ValueError, match="^n_walks must be an integer of at least 0, got -1"):
        sample_walks(SPLICE, RationalStep(2, 3), 12, -1, seed=5)
    with pytest.raises(ValueError, match="^n_steps must be an integer"):
        sample_walk(SPLICE, RationalStep(2, 3), 12.5, seed=5)
    with pytest.raises(ValueError, match="^size must be an integer"):
        sample_interval_increment(SPLICE, 0.0, 1.0, np.random.default_rng(0), size=2.5)
    # a walk has at least one step: the same check, with its own least count
    with pytest.raises(ValueError, match="^n_steps must be an integer of at least 1, got 0"):
        sample_walks(SPLICE, RationalStep(2, 3), 0, 1, seed=5)
    assert sample_paths(SPLICE, horizon=2.3, step=0.23, n_paths=np.int64(0), seed=5) == []


def test_single_segment_is_levy():
    sched = single_segment(BM, 2.0)
    z = np.linspace(-3, 3, 11).reshape(-1, 1)
    assert np.abs(period_exponent(sched, z) - 2.0 * BM.char_exponent(z)).max() <= 1e-12


# ---------------------------------------------------------------------------
# increment exponent laws
# ---------------------------------------------------------------------------


def test_splice_period_exponent_identity():
    # one-period exponent of the splice is q psi_Y + (p - q) psi_Z
    rng = np.random.default_rng(17)
    z = rng.normal(size=(100, 1)) * 3
    got = period_exponent(SPLICE, z)
    want = 0.9 * SPLICE.models[0].char_exponent(z) + 1.4 * SPLICE.models[1].char_exponent(z)
    assert np.abs(got - want).max() <= 1e-12


def test_zero_increment_and_origin():
    assert increment_exponent(SPLICE, 1.3, 1.3, 0.7) == 0
    assert period_exponent(SPLICE, 0.0) == 0


def test_period_exponent_bm_plus_idle():
    # BM for one unit then frozen drift: only the BM segment contributes
    sched = make_splice(BrownianDrift(0.0, 1.0), PureDrift(0.0), 1.0, 2.0)
    assert period_exponent(sched, 1.0) == pytest.approx(-0.5)


schedules = st.sampled_from(
    [
        SPLICE,
        single_segment(BM, 1.0),
        make_splice(PureDrift(1.3), PureDrift(-0.7), 0.7, 2.0),
        SemiLevySchedule(
            period=3.0,
            segments=((0.5, BM), (1.5, PureDrift(0.4)), (1.0, SymmetricStable(1.5, 0.8, 1))),
        ),
    ]
)


@settings(max_examples=40, deadline=None)
@given(
    schedule=schedules,
    s=st.floats(0.0, 20.0),
    dt=st.floats(0.0, 10.0),
    du=st.floats(0.0, 10.0),
    z=st.floats(-5.0, 5.0),
)
def test_increment_exponent_periodic_and_additive(schedule, s, dt, du, z):
    t, u = s + dt, s + dt + du
    p = schedule.period
    direct = increment_exponent(schedule, s, t, z)
    shifted = increment_exponent(schedule, s + p, t + p, z)
    assert abs(shifted - direct) <= 1e-12 * (1.0 + abs(direct))
    split = increment_exponent(schedule, s, t, z) + increment_exponent(schedule, t, u, z)
    whole = increment_exponent(schedule, s, u, z)
    assert abs(whole - split) <= 1e-12 * (1.0 + abs(whole))


def _fmod_periods(times, p):
    # the remainder and period count _periods replaces
    r = np.fmod(times, p)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.rint((times - r) / p), r


def _assert_same_bits(a, b):
    assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


# the seed and the example counts were fixed before the first run
@pytest.mark.parametrize("p", [
    0.1, 1.0 / 3.0, math.pi, 1.0, np.nextafter(1.0, 2.0), np.nextafter(2.0, 0.0), 7.0,
    # tiny and huge periods, on both sides of the 2^-900 and 2^900 bounds of the exact path
    2.0**-900, np.nextafter(2.0**-900, 0.0), 2.0**-1000, 1e-310, 2.0**900, np.nextafter(2.0**900, np.inf), 1e300,
])
def test_period_remainder_is_fmod_bit_for_bit(p):
    rng = np.random.default_rng(29)
    p = float(p)
    # random periods with a full 53-bit mantissa beside the listed one
    for q in (p, p * rng.uniform(1.0, 2.0)):
        with np.errstate(over="ignore"):
            uniform = [rng.uniform(0.0, 1.0, 2000) * q * scale for scale in (1.0, 2.0**10, 2.0**30, 2.0**49)]
            multiples = rng.integers(0, 2**49, 1000).astype(float) * q
            # quotients just below and just above the 2^50 guard, and beyond it
            guard = (2.0**50 + np.arange(-64.0, 65.0)) * q
            beyond = 2.0**60 * q * rng.uniform(1.0, 2.0, 100)
            times = np.concatenate([*uniform, [0.0, q, 2.0 * q], multiples, guard, beyond])
        times = times[np.isfinite(times)]
        times = np.concatenate([times, np.nextafter(times, np.inf), np.nextafter(times, 0.0)])
        n, r = schedule_module._periods(times, q)
        n_ref, r_ref = _fmod_periods(times, q)
        _assert_same_bits(r, r_ref)
        _assert_same_bits(n, n_ref)


def test_period_remainder_of_times_past_the_float_range_is_nan():
    n, r = schedule_module._periods(np.array([1.0, np.inf, np.nan]), 0.5)
    assert np.isnan(n[1:]).all() and n[0] == 2.0 and r[0] == 0.0


def test_occupancy_sums_to_interval_length():
    occ = SPLICE.segment_occupancy(1.234, 7.89)
    assert occ.sum() == pytest.approx(7.89 - 1.234, abs=1e-12)
    assert np.all(occ >= 0)


# ---------------------------------------------------------------------------
# one-period moments
# ---------------------------------------------------------------------------


def test_period_mean_examples():
    # drift splice with (p - q) up then -q down integrates to zero over a period
    p, q = 2.0, 0.7
    drift_splice = make_splice(PureDrift(p - q), PureDrift(-q), q, p)
    assert period_mean(drift_splice) == pytest.approx([0.0], abs=1e-15)

    balanced = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(-0.5, 1.0), 1.0, 3.0)
    assert period_mean(balanced) == pytest.approx([0.0], abs=1e-15)

    with_cauchy = make_splice(SymmetricStable(1.0, 1.0, 1), BM, 0.5, 1.5)
    assert period_mean(with_cauchy) is None


def test_period_mean_matches_exponent_gradient():
    # gradient of Im psi at 0 equals the one-period mean (finite variance cases)
    h = 1e-5
    for sched in (SPLICE, single_segment(BrownianDrift(0.73, 0.9), 1.7)):
        grad = (
            period_exponent(sched, np.array([h])).imag
            - period_exponent(sched, np.array([-h])).imag
        ) / (2.0 * h)
        assert abs(grad - period_mean(sched)[0]) <= 1e-6


def test_period_covariance():
    sched = make_splice(BrownianDrift(0.0, 2.0), BrownianDrift(0.0, 0.5), 1.0, 3.0)
    assert np.allclose(period_covariance(sched), [[2.0 + 2 * 0.5]])
    assert period_covariance(single_segment(SymmetricStable(1.2, 1.0, 1), 1.0)) is None


def test_equivalent_levy_model_matches_period_exponent():
    z = np.linspace(-4, 4, 17).reshape(-1, 1)
    eq = single_segment(equivalent_levy_model(SPLICE), SPLICE.period)
    assert np.abs(period_exponent(eq, z) - period_exponent(SPLICE, z)).max() <= 1e-12
    # the equivalent model's unit mean is the one-period mean per unit time
    assert equivalent_levy_model(SPLICE).mean(1.0) * SPLICE.period == pytest.approx(period_mean(SPLICE), rel=1e-12)


def _moment_models(dim: int) -> dict:
    """_catalog's models, a -0.0 drift and three sums.

    The mean of "ordered" depends on the order of its terms; "nested" nests
    sums two deep, and "nested_cauchy" adds a Cauchy part to it.
    """
    e = np.eye(dim)[0]
    models = {**_catalog(dim), "negzero": PureDrift(-0.0 * e)}
    models["ordered"] = SumModel((PureDrift(e), BrownianDrift(1e-16 * e, 1e-16), PureDrift(-e)))
    inner = SumModel((models["negzero"], models["stable2.0"]))
    models["nested"] = SumModel((models["sum"], models["cpoisson_point"], inner))
    models["nested_cauchy"] = SumModel((models["nested"], models["stable1.0"]))
    return models


def _moment_schedules(dim: int) -> list:
    """A splice of every ordered pair of _moment_models, and two schedules of three segments."""
    models = _moment_models(dim)
    splices = [make_splice(y, z, 0.7, 1.9) for y in models.values() for z in models.values()]
    three = ((0.9, models["nested"]), (0.4, models["brownian"]), (1.3, models["cpoisson_uniform"]))
    # its mean depends on the order of its segments
    ordered = tuple((1.0, m) for m in models["ordered"].components)
    return splices + [SemiLevySchedule(2.6, three), SemiLevySchedule(3.0, ordered)]


def _closed_moments(model):
    """The unit mean and covariance of a catalog model from its parameters, None where infinite."""
    d = model.dim
    if isinstance(model, SumModel):
        mean, cov = np.zeros(d), np.zeros((d, d))
        for component in model.components:
            m, c = _closed_moments(component)
            mean = None if mean is None or m is None else mean + 1.0 * m
            cov = None if cov is None or c is None else cov + 1.0 * c
        return mean, cov
    if isinstance(model, BrownianDrift):
        return model.drift, model.cov
    if isinstance(model, PureDrift):
        return model.gamma, np.zeros((d, d))
    if isinstance(model, SymmetricStable):
        mean = np.zeros(d) if model.alpha > 1.0 else None
        return mean, (2.0 * model.scale * np.eye(d) if model.alpha == 2.0 else None)
    jump = model.jump
    if isinstance(jump, PointMass):
        mean, second = jump.x, np.outer(jump.x, jump.x)
    elif isinstance(jump, UniformJump):
        mean = 0.5 * (jump.lo + jump.hi)
        second = np.diag((jump.hi - jump.lo) ** 2 / 12.0) + np.outer(mean, mean)
    elif isinstance(jump, GaussianJump):
        mean, second = jump.mu, jump.cov + np.outer(jump.mu, jump.mu)
    else:
        mean, second = jump.loc, np.diag(2.0 * jump.scale**2) + np.outer(jump.loc, jump.loc)
    return model.rate * mean, model.rate * second


@pytest.mark.parametrize("dim", [1, 2])
def test_period_moments_are_the_duration_weighted_sums(dim):
    # bit for bit: from zero, each segment's unit moment times its duration, in
    # segment order, and a sum's components in their order
    for sched in _moment_schedules(dim):
        mean, cov = np.zeros(dim), np.zeros((dim, dim))
        for dur, model in sched.segments:
            m, c = _closed_moments(model)
            mean = None if mean is None or m is None else mean + dur * m
            cov = None if cov is None or c is None else cov + dur * c
        for got, want in ((period_mean(sched), mean), (period_covariance(sched), cov)):
            assert (got is None) == (want is None)
            assert want is None or got.tobytes() == want.tobytes()


def _expansion_remainders(psi, expansion, dim: int) -> list:
    """|psi(eps u) - (i eps <m, u> - eps^2 u^T Q u / 2 - sum c eps^alpha)| / eps^2 at eps = 1e-2 and 1e-4.

    The largest over unit vectors u: +-1 in d = 1, eight directions in d = 2.
    """
    m, q, stable = expansion
    angles = np.arange(8) * np.pi / 4.0
    u = np.array([[1.0], [-1.0]]) if dim == 1 else np.column_stack([np.cos(angles), np.sin(angles)])
    quad, out = np.einsum("ij,jk,ik->i", u, q, u), []
    for eps in (1e-2, 1e-4):
        taylor = 1j * eps * (u @ m) - 0.5 * eps**2 * quad - sum(c * eps**alpha for alpha, c in stable)
        out.append(np.abs(psi(eps * u) - taylor).max() / eps**2)
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_expansion_matches_the_exponent_near_zero(dim):
    # o(|z|^2): the remainder over eps^2 falls at least 20-fold from eps = 1e-2
    # to 1e-4, up to 1e-6 of rounding; a wrong m makes it grow, a wrong Q keeps it
    laws = [(model.char_exponent, model.expansion()) for model in _moment_models(dim).values()]
    laws += [(lambda z, s=s: period_exponent(s, z), period_expansion(s)) for s in _moment_schedules(dim)]
    for psi, expansion in laws:
        early, late = _expansion_remainders(psi, expansion, dim)
        assert late <= 0.05 * early + 1e-6


@pytest.mark.parametrize("alphas", [(), (2.0,), (1.5,), (1.0,), (0.7, 2.0), (2.0, 1.9, 1.5), (1.5, 2.0, 1.0)])
def test_moments_are_infinite_exactly_below_their_index(alphas):
    # the mean is None exactly when some alpha <= 1, the covariance when some alpha < 2
    inner = SumModel((BrownianDrift(0.3, 1.0), *(SymmetricStable(alpha, 0.6, 1) for alpha in alphas)))
    model = SumModel((PureDrift(-1.0), SumModel((inner, CompoundPoisson(1.2, PointMass(0.4))))))
    sched = make_splice(BM, model, 0.5, 1.5)
    for mean, cov in ((model.mean(0.7), model.covariance(0.7)), (period_mean(sched), period_covariance(sched))):
        assert (mean is None) == any(alpha <= 1.0 for alpha in alphas)
        assert (cov is None) == any(alpha < 2.0 for alpha in alphas)


# ---------------------------------------------------------------------------
# path sampling
# ---------------------------------------------------------------------------


def test_pure_drift_splice_returns_to_zero():
    # recurrent drift splice: X vanishes at every whole period
    p, q = 2.0, 0.5
    sched = make_splice(PureDrift(p - q), PureDrift(-q), q, p)
    path = sample_path(sched, horizon=10 * p, step=0.25, seed=1)
    assert path.values[0] == pytest.approx([0.0])
    for n in range(1, 11):
        i = int(round(n * p / 0.25))
        assert path.grid[i] == pytest.approx(n * p)
        assert abs(path.values[i, 0]) <= 1e-12


def test_path_grid_and_reproducibility():
    path = sample_path(SPLICE, horizon=5.0, step=0.3, seed=77)
    assert path.grid[0] == 0.0
    assert np.all(np.diff(path.grid) > 0)
    assert path.grid[-1] == pytest.approx(5.0)  # partial final cell reaches the horizon
    again = sample_path(SPLICE, horizon=5.0, step=0.3, seed=77)
    assert np.array_equal(path.values, again.values)
    other = sample_path(SPLICE, horizon=5.0, step=0.3, seed=78)
    assert not np.array_equal(path.values, other.values)
    # the grid's horizon and step are positive and finite, refused as such
    # before the one-step and size rules see them
    for horizon, step, name in ((np.nan, 1.0, "horizon"), (np.inf, 1.0, "horizon"), (5.0, 0.0, "step")):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            sample_path(SPLICE, horizon=horizon, step=step, seed=77)


def test_sample_paths_split_seeds():
    paths = sample_paths(SPLICE, horizon=2.3, step=0.23, n_paths=3, seed=5)
    for i, path in enumerate(paths):
        assert path.seed == split_seed(5, i)
        direct = sample_path(SPLICE, horizon=2.3, step=0.23, seed=path.seed)
        assert np.array_equal(direct.values, path.values)


def test_each_sampling_call_derives_its_split_seeds_once(monkeypatch):
    calls = []

    def spy(master, indices):
        calls.append(master)
        return split_seeds(master, indices)

    monkeypatch.setattr(schedule_module, "split_seeds", spy)
    paths = sample_paths(SPLICE, horizon=2.3, step=0.23, n_paths=4, seed=5)
    assert calls == [5] and [p.seed for p in paths] == split_seeds(5, range(4))
    walks = sample_walks(SPLICE, RationalStep(2, 3), 12, 3, seed=6)
    assert calls == [5, 6] and [w.seed for w in walks] == split_seeds(6, range(3))


def test_serial_and_pooled_ensembles_are_bit_identical(monkeypatch):
    # drive each branch of the pool choice through the block size
    pool_sizes = []

    def spy(fn, n, workers=1):
        pool_sizes.append(workers)
        return map_indexed(fn, n, workers)

    def draw():
        paths = sample_paths(SPLICE, horizon=2.3, step=0.23, n_paths=5, seed=5)
        walks = sample_walks(SPLICE, RationalStep(2, 3), 12, 5, seed=5)
        horizon_values = _horizon_values(SPLICE, np.array([1.0, 4.0, 9.0]), 5, seed=5)
        return [p.values for p in paths] + [w.steps for w in walks] + list(horizon_values)

    monkeypatch.setattr(schedule_module, "map_indexed", spy)
    monkeypatch.setattr(schedule_module.os, "cpu_count", lambda: 3)
    serial = draw()
    assert pool_sizes == [1, 1, 1]
    # one member per block, the blocks that go to the pool
    monkeypatch.setattr(schedule_module, "_BLOCK_VALUES", 1)
    pooled = draw()
    assert pool_sizes[3:] == [3, 3, 3]
    assert len(serial) == len(pooled) == 15
    for a, b in zip(serial, pooled):
        assert np.array_equal(a, b)
    # each pooled block resets its own Generator to its member's stream
    for i, path in enumerate(pooled[:5]):
        assert np.array_equal(path, sample_path(SPLICE, horizon=2.3, step=0.23, seed=split_seed(5, i)).values)


def test_ensemble_seeds_each_member_without_a_seed_sequence(monkeypatch):
    # streams are derived in one array pass: no default_rng or SeedSequence
    # per member, and one PCG64 per block, whose state each member sets
    calls = {"default_rng": 0, "SeedSequence": 0, "PCG64": 0}

    def counting(name):
        original = getattr(np.random, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, spy)

    for name in calls:
        counting(name)
    monkeypatch.setattr(schedule_module, "_block_members", lambda values: 4)
    paths = sample_paths(SPLICE, horizon=2.3, step=0.23, n_paths=10, seed=5)
    walks = sample_walks(SPLICE, RationalStep(2, 3), 12, 10, seed=6)
    # 10 members in blocks of 4, 4 and 2, twice
    assert calls == {"default_rng": 0, "SeedSequence": 0, "PCG64": 6}
    monkeypatch.undo()
    for i in range(10):
        assert np.array_equal(paths[i].values, sample_path(SPLICE, horizon=2.3, step=0.23, seed=split_seed(5, i)).values)
        assert np.array_equal(walks[i].steps, sample_walk(SPLICE, RationalStep(2, 3), 12, seed=split_seed(6, i)).steps)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_sample_seeds_outside_2_64_are_refused(bad):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        sample_path(SPLICE, horizon=2.3, step=0.23, seed=bad)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        sample_walk(SPLICE, RationalStep(2, 3), 12, seed=bad)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        schedule_module._ensemble(SPLICE, np.full((2, 3), 0.5), bad)


def test_largest_seed_draws_the_default_rng_stream():
    top = 2**64 - 1
    path = sample_path(single_segment(BM), horizon=1.0, step=0.25, seed=top)
    assert path.seed == top
    expected = np.cumsum(0.5 * np.random.default_rng(top).standard_normal((4, 1)), axis=0)
    assert np.array_equal(path.values[1:], expected)
    assert sample_walk(SPLICE, RationalStep(2, 3), 12, seed=top).seed == top


def test_equal_durations_reach_the_sampler_as_one_value(monkeypatch):
    # a segment whose cells all have the same duration is passed as a
    # stride-0 view, decided once per plan; unequal durations stay an array
    seen = []
    original = CompoundPoisson._draw

    def spy(self, dts, rng):
        seen.append(dts.strides[0])
        return original(self, dts, rng)

    monkeypatch.setattr(CompoundPoisson, "_draw", spy)
    sched = single_segment(CompoundPoisson(3.0, GaussianJump(0.1, 0.5)))
    sample_paths(sched, horizon=3.0, step=0.5, n_paths=4, seed=2)
    assert seen == [0] * 4
    seen.clear()
    sample_paths(sched, horizon=2.8, step=0.5, n_paths=4, seed=2)  # a shorter last cell
    assert seen == [8] * 4


def _catalog(dim: int) -> dict:
    """One model of every kind, every jump kind and the stable indices that sample apart."""
    e = np.eye(dim)[0]
    jumps = {
        "point": PointMass(0.7 * e),
        "uniform": UniformJump(-1.0 * e - 0.5, 2.0 * e + 0.5),
        "gauss": GaussianJump(0.2 * e, 0.5 * np.eye(dim) + 0.1),
        "laplace": LaplaceJump(-0.1 * e, 0.7),
    }
    models = {
        "brownian": BrownianDrift(0.3 * e, np.eye(dim) + 0.2),
        **{f"stable{alpha}": SymmetricStable(alpha, 0.8, dim) for alpha in (0.7, 1.0, 1.5, 2.0)},
        **{f"cpoisson_{kind}": CompoundPoisson(2.5, jump) for kind, jump in jumps.items()},
        "drift": PureDrift(-0.4 * e),
    }
    models["sum"] = SumModel((models["brownian"], models["cpoisson_gauss"], models["stable1.5"]))
    return models


CATALOG_CASES = [(kind, dim) for dim in (1, 2) for kind in _catalog(dim)]


@pytest.mark.parametrize("kind, dim", CATALOG_CASES)
@pytest.mark.parametrize("block", [1, 3, None])
def test_ensemble_rows_do_not_depend_on_block_size(monkeypatch, kind, dim, block):
    # block None: every member in one block
    models = _catalog(dim)
    other = models["stable1.5"] if kind == "brownian" else models["brownian"]
    sched = make_splice(models[kind], other, 0.7, 1.7)
    if block is not None:
        monkeypatch.setattr(schedule_module, "_block_members", lambda values: block)
    paths = sample_paths(sched, horizon=4.0, step=0.3, n_paths=7, seed=11)
    walks = sample_walks(sched, RationalStep(2, 3), 9, 7, seed=12)
    monkeypatch.undo()
    for i in range(7):
        alone = sample_path(sched, horizon=4.0, step=0.3, seed=split_seed(11, i))
        assert paths[i].seed == alone.seed
        assert np.array_equal(paths[i].values, alone.values)
        assert np.array_equal(walks[i].steps, sample_walk(sched, RationalStep(2, 3), 9, seed=split_seed(12, i)).steps)


def _float_probe() -> str:
    """sha256 of the float kernels the samplers call: numpy's sin, cos, tan, power, sqrt,
    exp, log and matmul and the Generator's draws, which differ in their last bits
    between SIMD builds and CPUs."""
    x = np.linspace(-1.5, 1.5, 257)
    rng = np.random.default_rng(0)
    parts = [
        np.sin(x), np.cos(x), np.tan(x), np.exp(x), np.log(x + 2.0), np.sqrt(x + 2.0),
        (x + 2.0) ** (1.0 / 1.5), (x + 2.0) ** (1.0 / 0.7), (x + 2.0) ** -0.25,
        rng.standard_normal((3, 40, 2)) @ np.array([[1.0, 0.3], [0.3, 2.0]]).T,
        rng.exponential(1.0, 64), rng.laplace(0.0, 1.0, 64), rng.uniform(-1.0, 1.0, 64),
        rng.poisson(2.5, 64).astype(float), rng.poisson(np.linspace(0.1, 9.0, 64)).astype(float),
    ]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def _sampler_bytes(model, other) -> bytes:
    """Everything sample_paths, sample_walks and sample_interval_increment give for
    model: on an aligned grid, on cells straddling two and three segments, and a
    shorter last cell."""
    three = SemiLevySchedule(period=1.0, segments=((0.3, model), (0.25, other), (0.45, model.scaled(2.0))))
    paths = (
        sample_paths(single_segment(model, 1.0), horizon=3.0, step=0.25, n_paths=5, seed=21)
        + sample_paths(make_splice(model, other, 0.5, 1.0), horizon=3.0, step=0.25, n_paths=5, seed=22)
        + sample_paths(make_splice(model, other, 0.4, 1.1), horizon=3.0, step=0.3, n_paths=5, seed=23)
        + sample_paths(three, horizon=4.1, step=0.7, n_paths=5, seed=24)
    )
    walks = sample_walks(three, RationalStep(2, 3), 9, 5, seed=25)
    rng = np.random.default_rng(26)
    increments = [sample_interval_increment(three, 0.3, 2.9, rng, size=size) for size in (6, None, 1)]
    arrays = [p.values for p in paths] + [w.steps for w in walks] + increments
    return b"".join(a.tobytes() for a in arrays)


# The digests were taken on numpy 2.4.6, x86-64 with AVX-512, where _float_probe
# reads FLOAT_PROBE; a build whose kernels round differently draws other bits.
FLOAT_PROBE = "7a951adf50baa27912c1d5f58ac2d0ee61bdec6520844ed860059d22ac0662c2"
SAMPLER_DIGESTS = {
    "brownian-d1": "8bd01224ef02d1d71f32d16df7140b3d9bce926e71c310618ffe27f9a0b84684",
    "stable0.7-d1": "06b29c588345368a5b34b52167247201c61fd2436f3ec90cab7e46a94c843ba3",
    "stable1.0-d1": "5c6a11bd1d53e350c51faa450f2b026538a474a189619defd7d7ca6ef92876ac",
    "stable1.5-d1": "437ff0f1e66a1fc966dba0ddc5b5189d26ba7c012af6331e708353ddcdd2e084",
    "stable2.0-d1": "b34c9bd6145e11714d5546fd18269212d6b01a231c0d59d393caaeb4d032a53c",
    "cpoisson_point-d1": "d0eafabdd88026a481c7d7135fd981295fa6afe5dc03b11b1c9c5bfef9bb6521",
    "cpoisson_uniform-d1": "9a89cdaf58cbb50d80c3c750b57bae40e378639049b028e1df3940ca1b650825",
    "cpoisson_gauss-d1": "96c483e23c8b587ce179a5f9bbb94ebaba10759ee65c490e95f94e1ea86431b5",
    "cpoisson_laplace-d1": "397334670843c031b90d051d40e565e66d50ec9506c99aff0a225106f0b4692f",
    "drift-d1": "2b249fbc4f238592aa744fe22698e1903b5b8601daf8f7e7d0ddbfdebebf53c5",
    "sum-d1": "49c4d19fc605fba18922e9cd0f92920ab31a2b1820792090442f990002674ba0",
    "stable0.8-d1": "417edcf8b204f73e601dcd43af0794e9d4322b6a2bf567a93a19ec92b445452f",
    "brownian-d2": "1245ab724ed9090413b2ce12cc174560b0455f922baed29899b3cbcb9ba08ad6",
    "stable0.7-d2": "59558796236ea4bef6fae32b85609fcc0beb089e8445211ec1e00f40f68dbd2b",
    "stable1.0-d2": "847893bdf129d86e0c2472aa0973a8b50221687641162a46eb052a4fc360a312",
    "stable1.5-d2": "6f31361c677b68961013282abd95a877145934588ab3e2cb2d32e1056bd4aea7",
    "stable2.0-d2": "1045f16707136719cc8904f2d633fb9fbac7f82574698e75af248751ed19b2bd",
    "cpoisson_point-d2": "67424685613860c5b28558eccfc53604bd6662617e6a9b9e830d186dafe0c8db",
    "cpoisson_uniform-d2": "b5228b8c2ce76003e35e021108752ed430bece56e49d211ad32104a8c46a2cf3",
    "cpoisson_gauss-d2": "825f35c518029a9f0f2ed401d8799820471ebc420d31b225ed57a3b8d7678435",
    "cpoisson_laplace-d2": "3e9ea3ea166d55d1515aa5c051d995672883a79b8d30a5d4747f09535ab167d6",
    "drift-d2": "1f6e9f5817027772e2040d3101b28a5fc942c102155976a23b611e37b2153dd0",
    "sum-d2": "db41580a1011e564105bde935e54dc54dd6052f095b43c9238b21b4308e6ccb6",
    "stable0.8-d2": "b4cf86ea8b99875134af7fc1f23a15dadf49b613d01139a873fa1f6fc697feeb",
}


def _pinned_catalog(dim: int) -> dict:
    return {**_catalog(dim), "stable0.8": SymmetricStable(0.8, 0.8, dim)}


@pytest.mark.parametrize("kind, dim", [(kind, dim) for dim in (1, 2) for kind in _pinned_catalog(dim)])
def test_sampler_bytes_are_pinned(monkeypatch, kind, dim):
    # the kernel's output bits, pinned: a change to the ensemble or to a model's hooks
    # must keep every value, in many-member blocks and in one-member pooled blocks
    if _float_probe() != FLOAT_PROBE:
        pytest.skip("numpy's float kernels round differently here from where the digests were taken")
    models = _pinned_catalog(dim)
    other = models["stable1.5"] if kind == "brownian" else models["brownian"]
    serial = hashlib.sha256(_sampler_bytes(models[kind], other)).hexdigest()
    monkeypatch.setattr(schedule_module, "_BLOCK_VALUES", 1)
    pooled = hashlib.sha256(_sampler_bytes(models[kind], other)).hexdigest()
    assert serial == pooled == SAMPLER_DIGESTS[f"{kind}-d{dim}"]


def test_ensemble_finishes_each_segment_once_per_block(monkeypatch):
    calls = {"draw": [], "finish": []}
    for cls in (BrownianDrift, CompoundPoisson):
        for hook in ("draw", "finish"):
            original = getattr(cls, f"_{hook}")

            def spy(self, dts, arg, original=original, hook=hook):
                calls[hook].append(type(self).__name__)
                return original(self, dts, arg)

            monkeypatch.setattr(cls, f"_{hook}", spy)
    monkeypatch.setattr(schedule_module, "_block_members", lambda values: 3)
    sample_paths(SPLICE, horizon=2.3, step=0.23, n_paths=7, seed=5)
    # 7 members in blocks of 3, 3 and 1: a draw per member, a finish per block
    for name in ("BrownianDrift", "CompoundPoisson"):
        assert calls["draw"].count(name) == 7
        assert calls["finish"].count(name) == 3


def test_sample_checks():
    grid, values = np.array([0.0, 0.5, 1.0]), np.zeros((3, 1))
    PathSample(grid=grid, values=values, seed=0)
    bad = [
        (np.array([0.1, 0.5, 1.0]), values),  # does not start at 0
        (np.array([0.0, 0.5, 0.5]), values),  # a repeated point
        (np.array([0.0, 1.0, 0.5]), values),  # decreasing
        (grid[:2], values),  # lengths differ
        (grid, np.array([[np.nan], [0.0], [0.0]])),  # not at the origin
        (grid, np.array([[-1e-300], [0.0], [0.0]])),
    ]
    for g, v in bad:
        with pytest.raises(ValueError):
            PathSample(grid=g, values=v, seed=0)
    PathSample(grid=grid, values=np.array([[-0.0], [1.0], [2.0]]), seed=0)
    WalkSample(steps=np.array([[-0.0, 0.0], [1.0, 1.0]]), rational_step=RationalStep(1, 1), seed=0)
    for start in (np.nan, 1e-300):
        with pytest.raises(ValueError):
            WalkSample(steps=np.array([[0.0, start], [1.0, 1.0]]), rational_step=RationalStep(1, 1), seed=0)


def test_worker_count_follows_stream_length(monkeypatch):
    # (blocks, workers) that _ensemble hands to map_indexed; the spy starts no pool
    seen = []

    def spy(fn, n, workers=1):
        seen.append((n, workers))
        return [fn(i) for i in range(n)]

    monkeypatch.setattr(schedule_module, "map_indexed", spy)
    rows = [
        (BM, 10, 5, 64, (1, 1)),  # a short ensemble: all five paths in one block
        (BM, 16384, 3, 64, (2, 1)),  # 2^15 values, two paths per block: serial
        (BM, 16385, 3, 64, (3, 3)),  # one path per block: pooled, one worker per block
        (BM, 16385, 100, 64, (100, 64)),  # ... and at most one per CPU
        (BM, 16385, 3, None, (3, 1)),
        # four cells whose ~40,000 drawn jumps fill a block
        (CompoundPoisson(1e4, UniformJump(0.0, 1.0)), 4, 3, 64, (3, 3)),
        # point jumps are summed as N x without a draw, so they fill nothing
        (CompoundPoisson(1e4, PointMass(1.0)), 4, 3, 64, (1, 1)),
    ]
    for model, cells, n_paths, cpus, pool in rows:
        monkeypatch.setattr(schedule_module.os, "cpu_count", lambda: cpus)
        seen.clear()
        sample_paths(single_segment(model), horizon=float(cells), step=1.0, n_paths=n_paths, seed=3)
        assert seen == [pool], (model, cells, n_paths, cpus)


@pytest.mark.parametrize("segments", [1, 4, 16])
def test_grid_occupancy_is_counted_by_the_size_checks(monkeypatch, segments):
    # a path of 2^18 cells whose every cell spends time in each of S segments: the grid, its
    # occupancy's temporaries (once 4 + 3 S times the grid, uncounted) and the plan the ensemble
    # builds from it, with the path itself, hold no more than the size checks counted
    counted = []

    def spy(*terms, **sizes):
        counted.append(sum(math.prod(map(float, term.values())) for term in terms or [sizes]))
        check_size(*terms, **sizes)

    monkeypatch.setattr(schedule_module, "check_size", spy)
    sched = SemiLevySchedule(0.5, tuple((0.5 / segments, BrownianDrift(0.0, 1.0)) for _ in range(segments)))
    tracemalloc.start()
    try:
        path = sample_path(sched, float(1 << 18), 1.0, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.values.shape == ((1 << 18) + 1, 1)
    assert peak <= 8 * sum(counted)


def test_poisson_mean_past_numpys_bound_is_refused_before_any_draw():
    # numpy raises "lam value too large" past about 9.22e18; the splice's Brownian segment
    # would have drawn by then, so the refusal comes first and names the rate and duration
    splice = make_splice(BrownianDrift(0.0, 1.0), CompoundPoisson(1e20, PointMass(1.0)), 0.5, 1.0)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    message = r"compound Poisson rate 1e\+20 over a duration of 0\.5 expects 5e\+19 jumps"
    with pytest.raises(ValueError, match=message):
        sample_interval_increment(splice, 0.0, 1.0, rng)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match=message):
        sample_paths(splice, 2.0, 1.0, 3, seed=4)
    # the largest mean numpy takes is drawn
    largest = CompoundPoisson(models_module._POISSON_MEAN_MAX, PointMass(1.0))
    assert largest.sample_increment(1.0, rng)[0] > 9e18


def test_splice_variance_of_period_value():
    # drift-free BM/BM splice: Var X_p = p
    sched = make_splice(BM, BM, 1.0, 2.0)
    rng = np.random.default_rng(9)
    xp = sample_interval_increment(sched, 0.0, 2.0, rng, size=10**4)[:, 0]
    assert abs(xp.var() / 2.0 - 1.0) < 0.05


def test_sampled_period_value_matches_exponent():
    # end-to-end check of boundary splitting: ECF of grid-sampled X_p
    n = 10**4
    paths = sample_paths(SPLICE, horizon=2.3, step=2.3 / 16, n_paths=n, seed=11)
    xp = np.array([p.values[-1, 0] for p in paths])
    for z in (0.3, 0.8, 1.5, 2.2, 3.0):
        ecf = np.exp(1j * z * xp).mean()
        target = np.exp(period_exponent(SPLICE, float(z)))
        assert abs(ecf - target) < 4.0 / np.sqrt(n)


def test_interval_increment_overflow_raises():
    # (1e30 t)^(1/0.1) overflows: an error, never a silent inf
    sched = single_segment(SymmetricStable(0.1, 1e30))
    with pytest.raises(FloatingPointError):
        sample_interval_increment(sched, 0.0, 1.0, np.random.default_rng(0), size=20)


def test_interval_increment_periodicity_in_law():
    # KS between X_t - X_s and its one-period shift
    from scipy.stats import ks_2samp

    rng_a = np.random.default_rng(100)
    rng_b = np.random.default_rng(200)
    s, t = 0.6, 3.1
    a = sample_interval_increment(SPLICE, s, t, rng_a, size=4000)[:, 0]
    b = sample_interval_increment(SPLICE, s + 2.3, t + 2.3, rng_b, size=4000)[:, 0]
    assert ks_2samp(a, b).pvalue > 0.01


def test_cells_of_a_negative_zero_drift_print_as_zero():
    # a cell only a PureDrift(-0.0) segment spends time in draws -0.0, and a cell it shares
    # with a Brownian segment adds -0.0: both read as sums from +0.0, so no "-0" is written
    first = make_splice(PureDrift(-0.0), BrownianDrift(0.0, 1.0), 0.25, 1.0)
    assert sample_path(first, 1.5, 0.125, 3).to_csv() == (
        "t,x1\n0,0\n0.125,0\n0.25,0\n0.375,0.7215738752923766\n0.5,-0.18199016174941762\n"
        "0.625,-0.034169896886381029\n0.75,-0.23490676620871823\n0.875,-0.39494245818401158\n"
        "1,-0.47116756619668931\n1.125,-0.47116756619668931\n1.25,-0.47116756619668931\n"
        "1.375,-1.1853405111080826\n1.5,-1.2673409896125454\n"
    )
    second = make_splice(BrownianDrift(0.0, 1.0), PureDrift(-0.0), 0.5, 1.0)
    assert sample_path(second, 1.0, 0.2, 3).to_csv() == (
        "t,x1\n0,0\n0.20000000000000001,0.91272677839928251\n0.40000000000000002,-0.23020136914824518\n"
        "0.60000000000000009,-0.097986904873935826\n0.80000000000000004,-0.097986904873935826\n"
        "1,-0.097986904873935826\n"
    )


def test_csv_export():
    path = sample_path(single_segment(PureDrift(1.0), 1.0), horizon=1.0, step=0.5, seed=0)
    text = path.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1"
    assert len(lines) == 4
    t, x = lines[2].split(",")
    assert float(t) == 0.5 and float(x) == 0.5
