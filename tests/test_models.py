"""Model catalog: exponents against closed forms, samplers against transforms."""

import math
import threading

import numpy as np
import pytest

from semilevy import models as models_module
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
    _positive_stable,
    _repeated,
    _sample_chunks,
    _standard_symmetric_stable,
)
from semilevy.schedule import make_splice, sample_interval_increment, single_segment
from semilevy.util import MAX_VALUES

# one representative per catalog kind, plus multivariate and composite cases
CATALOG = [
    BrownianDrift(0.3, 1.5),
    BrownianDrift([0.5, -0.2], [[1.0, 0.3], [0.3, 0.8]]),
    SymmetricStable(0.8, 0.9, 1),
    SymmetricStable(1.0, 1.0, 1),
    SymmetricStable(1.5, 1.2, 3),
    SymmetricStable(2.0, 0.5, 2),
    CompoundPoisson(2.0, PointMass(1.0)),
    CompoundPoisson(1.5, UniformJump(0.0, 1.0)),
    CompoundPoisson(1.0, GaussianJump([0.1, 0.2], [[0.5, 0.1], [0.1, 0.4]])),
    CompoundPoisson(2.5, LaplaceJump(0.3, 0.6)),
    PureDrift([1.0, -2.0]),
    SumModel((BrownianDrift(0.1, 1.0), CompoundPoisson(1.0, PointMass(-0.5)))),
]


def z_points(dim, rng):
    if dim == 1:
        return [0.3, 0.9, 1.7, 2.5, 4.0]
    return [rng.normal(size=dim) * s for s in (0.3, 0.8, 1.5, 2.2, 3.0)]


# ---------------------------------------------------------------------------
# characteristic exponents
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", CATALOG)
def test_exponent_vanishes_at_origin(model):
    assert model.char_exponent(np.zeros(model.dim)) == 0


def test_exponent_closed_forms():
    # -1/2 z A z + i gamma z, here z=2, A=I, gamma=0
    assert BrownianDrift(0.0, 1.0).char_exponent(2.0) == pytest.approx(-2.0)
    # Cauchy: -c|z|
    assert SymmetricStable(1.0, 1.0, 1).char_exponent(3.0) == pytest.approx(-3.0)
    assert PureDrift(2.0).char_exponent(1.5) == pytest.approx(3.0j)
    # compound Poisson with unit point mass: rate (e^{iz} - 1)
    got = CompoundPoisson(2.0, PointMass(1.0)).char_exponent(1.0)
    assert got == pytest.approx(2.0 * (np.exp(1.0j) - 1.0))


@pytest.mark.parametrize("model", CATALOG)
def test_modulus_bound(model):
    # |exp(psi(z))| <= 1 for |z| <= 10
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, model.dim))
    pts *= (rng.uniform(0, 10, 200) / np.maximum(np.linalg.norm(pts, axis=1), 1e-12))[:, None]
    vals = np.abs(np.exp(model.char_exponent(pts)))
    assert np.all(vals <= 1.0 + 1e-12)


def test_sum_additivity():
    rng = np.random.default_rng(6)
    m1 = BrownianDrift(0.2, 0.7)
    m2 = CompoundPoisson(1.1, LaplaceJump(0.0, 0.4))
    total = SumModel((m1, m2))
    z = rng.normal(size=(50, 1)) * 3
    lhs = total.char_exponent(z)
    rhs = m1.char_exponent(z) + m2.char_exponent(z)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        BrownianDrift([0.0, 0.0], np.eye(2)).char_exponent(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        BrownianDrift([0.0, 0.0], np.eye(2)).char_exponent(1.0)
    with pytest.raises(DimensionMismatch):
        SumModel((PureDrift(1.0), PureDrift([1.0, 2.0])))


# each refusal of a catalog parameter or an evaluation point, with its exact message
@pytest.mark.parametrize("build, error, message", [
    (lambda: PureDrift([[1.0, 2.0]]), ValueError, "gamma must be a scalar or a 1-d vector"),
    (lambda: PointMass(np.nan), ValueError, "x must be finite"),
    (lambda: BrownianDrift([0.0, 0.0], [1.0, 2.0, 3.0]), DimensionMismatch, "cov diagonal has length 3, expected 2"),
    (lambda: BrownianDrift([0.0, 0.0], np.eye(3)), DimensionMismatch, r"cov must be 2x2, got \(3, 3\)"),
    (lambda: BrownianDrift(0.0, np.inf), ValueError, "cov must be finite"),
    (lambda: PureDrift(1.0).char_exponent(np.zeros((3, 2))), DimensionMismatch, "z points have dimension 2, model has 1"),
    (lambda: PureDrift(1.0).char_exponent(np.zeros((2, 2, 1))), ValueError,
     r"z must be a scalar, a d-vector, or an \(m, d\) array of points"),
    (lambda: UniformJump([0.0, 0.0], [1.0]), DimensionMismatch, "lo and hi must have the same length"),
    (lambda: UniformJump(1.0, 0.0), ValueError, "hi must be >= lo componentwise"),
    (lambda: LaplaceJump([0.0, 0.0], [1.0, 1.0, 1.0]), DimensionMismatch, "loc and scale must have the same length"),
    (lambda: LaplaceJump(0.0, 0.0), ValueError, "scale must be positive"),
    (lambda: SumModel(()), ValueError, "SumModel needs at least one component"),
    (lambda: BrownianDrift([0.0, 0.0], [[1.0, 0.9], [0.2, 1.0]]), ValueError, "cov must be symmetric"),
    (lambda: BrownianDrift([0.0, 0.0], 1.0).char_exponent(1.0), DimensionMismatch,
     "scalar z given to a model of dimension 2"),
    (lambda: UniformJump(-1e308, 1e308), ValueError, r"hi - lo must be finite"),
    (lambda: SumModel((PureDrift(1.0), PureDrift([1.0, 2.0]))), DimensionMismatch,
     r"components disagree on dimension: \[1, 2\]"),
])
def test_catalog_refusals(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_covariance_validation():
    with pytest.raises(ValueError):
        BrownianDrift(0.0, -1.0)  # negative variance
    with pytest.raises(ValueError):
        BrownianDrift([0.0, 0.0], [[1.0, 0.9], [0.2, 1.0]])  # asymmetric
    # PSD-singular is accepted and sampleable
    m = BrownianDrift([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    x = m.sample_increment(1.0, np.random.default_rng(0), size=100)
    assert np.allclose(x[:, 0], x[:, 1])


def test_covariances_near_the_float_range_are_checked_without_overflow():
    # a + a.T overflowed for entries above half the largest float, with a RuntimeWarning
    big = 1.7976931348623157e308
    assert BrownianDrift(0.0, big).cov.tolist() == [[big]]
    assert GaussianJump([0.0, 0.0], [big, 1.0]).cov.tolist() == [[big, 0.0], [0.0, 1.0]]
    # and a - a.T, whose overflow is a refusal
    with pytest.raises(ValueError, match="^cov must be symmetric$"):
        BrownianDrift([0.0, 0.0], [[1.0, big], [-big, 1.0]])


def test_stable_parameter_validation():
    with pytest.raises(ValueError):
        SymmetricStable(0.0, 1.0)
    with pytest.raises(ValueError):
        SymmetricStable(2.5, 1.0)
    with pytest.raises(ValueError):
        SymmetricStable(1.0, -1.0)
    # an infinite scale, rate or time step would only show as inf or nan draws
    with pytest.raises(ValueError, match="^scale must be positive and finite"):
        SymmetricStable(1.5, np.inf)
    with pytest.raises(ValueError, match="^dim must be an integer"):
        SymmetricStable(1.5, 1.0, 2.5)
    with pytest.raises(ValueError, match="^dim must be an integer of at least 1, got 0"):
        SymmetricStable(1.5, 1.0, 0)
    with pytest.raises(ValueError, match="^rate must be positive and finite"):
        CompoundPoisson(np.inf, PointMass(1.0))
    with pytest.raises(ValueError, match="^dt must be positive and finite"):
        BrownianDrift(0.0, 1.0).sample_increment(np.inf, np.random.default_rng(0))
    with pytest.raises(ValueError, match="^size must be an integer"):
        BrownianDrift(0.0, 1.0).sample_increment(1.0, np.random.default_rng(0), size=2.5)


def test_sample_increment_overflow_raises():
    # (1e30 t)^(1/0.1) overflows: an error, never a silent inf
    with pytest.raises(FloatingPointError):
        SymmetricStable(0.1, 1e30).sample_increment(1.0, np.random.default_rng(0), size=20)


@pytest.mark.parametrize("size", [None, 0, 1, 1000])
@pytest.mark.parametrize("model", CATALOG)
def test_sample_increment_is_a_one_segment_interval_increment(model, size):
    # one sampler draws both: the same bits from equal seeds
    dt = 0.7
    a = model.sample_increment(dt, np.random.default_rng(21), size)
    b = sample_interval_increment(single_segment(model, dt), 0.0, dt, np.random.default_rng(21), size)
    assert a.shape == b.shape == ((model.dim,) if size is None else (size, model.dim))
    assert a.tobytes() == b.tobytes()


def test_refused_splice_leaves_generator_untouched():
    # the budget counts every segment's draws before the Brownian segment draws; uniform jumps
    # hold an array of all 5e8 expected jumps
    splice = make_splice(BrownianDrift(0.0, 1.0), CompoundPoisson(1e9, UniformJump(0.0, 1.0)), 0.5, 1.0)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="more than the bound"):
        sample_interval_increment(splice, 0.0, 1.0, rng)
    assert rng.bit_generator.state == state


def test_moments_of_a_law_whose_second_moment_overflows_warn_nothing():
    # rate 1e-300 of jumps of 1e300: a unit mean of 1 and a second moment past the float range,
    # which reads inf, never a numpy warning (an error in the CLI contract)
    model = CompoundPoisson(1e-300, PointMass(1e300))
    assert model.mean(1.0) == pytest.approx([1.0])
    assert np.isinf(model.covariance(1.0)).all()


def test_oversized_single_batches_are_refused_before_any_draw():
    model = BrownianDrift(0.0, 1.0)
    rng = np.random.default_rng(6)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="more than the bound"):
        model.sample_increment(1.0, rng, size=10**12)
    with pytest.raises(ValueError, match="more than the bound"):
        sample_interval_increment(single_segment(model), 0.0, 1.0, rng, size=10**12)
    assert rng.bit_generator.state == state


def test_uniform_box_width_must_be_finite():
    # each bound is finite, but hi - lo overflows: the draws would be inf or nan
    with pytest.raises(ValueError, match="finite"):
        UniformJump(-1e308, 1e308)
    with pytest.raises(ValueError, match="finite"):
        UniformJump([0.0, -1e308], [1.0, 1e308])
    jumps = UniformJump(-1e307, 1e307)._draw_cells(np.array([4]), np.random.default_rng(0))
    assert jumps.shape == (4, 1) and np.all(np.isfinite(jumps))


# ---------------------------------------------------------------------------
# samplers against the exponent (empirical characteristic function)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", CATALOG)
def test_sampler_matches_exponent(model):
    # ECF of 1e5 increments within 4/sqrt(N) of exp(dt psi) at 5 z-points
    n = 10**5
    dt = 0.7
    rng = np.random.default_rng(123)
    draws = model.sample_increment(dt, rng, size=n)
    assert draws.shape == (n, model.dim)
    for z in z_points(model.dim, np.random.default_rng(99)):
        zv = np.atleast_1d(np.asarray(z, dtype=float))
        ecf = np.exp(1j * draws @ zv).mean()
        target = np.exp(dt * model.char_exponent(zv))
        assert abs(ecf - target) < 4.0 / np.sqrt(n)


def test_pure_drift_increment_deterministic():
    got = PureDrift(1.0).sample_increment(0.5, np.random.default_rng(0))
    assert got == pytest.approx([0.5], abs=1e-15)


def test_brownian_increment_moments():
    n = 10**5
    rng = np.random.default_rng(11)
    draws = BrownianDrift(0.0, 1.0).sample_increment(1.0, rng, size=n)[:, 0]
    assert abs(draws.mean()) < 3.0 / np.sqrt(n)
    assert abs(draws.var() - 1.0) < 0.05


def test_compound_poisson_mean():
    n = 10**5
    rng = np.random.default_rng(12)
    draws = CompoundPoisson(2.0, PointMass(1.0)).sample_increment(1.0, rng, size=n)[:, 0]
    # Poisson(2) count of unit jumps: mean 2, variance 2
    assert abs(draws.mean() - 2.0) < 3.0 * np.sqrt(2.0) / np.sqrt(n)


def test_compound_poisson_refuses_unbounded_draw():
    # uniform jumps at rate 1e12 over one time unit would need terabytes of jumps; the
    # budget counts them before any draw, so the generator is left untouched
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    model = CompoundPoisson(1e12, UniformJump(0.0, 1.0))
    with pytest.raises(ValueError, match="more than the bound"):
        model.sample_increment(1.0, rng)
    # the budget counts the whole batch: 1000 cells of 1e5 expected jumps each, a jump and its
    # slot index per jump
    assert 500 * 2e5 < MAX_VALUES < 1000 * 2e5
    with pytest.raises(ValueError, match="more than the bound"):
        model.sample_increment(1e-7, rng, size=1000)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="more than the bound"):
        SumModel((BrownianDrift(0.0, 1.0), model)).sample_increment(1.0, rng)
    draws = model.sample_increment(1e-7, rng, size=3)
    assert draws.shape == (3, 1) and np.all(draws > 4e4)
    # point jumps hold no jump array, only a count per cell, whatever the rate
    count = CompoundPoisson(1e9, PointMass(1.0)).sample_increment(1.0, rng)
    assert count.shape == (1,) and abs(count[0] - 1e9) < 1e6


@pytest.mark.parametrize("model", [m for m in CATALOG if isinstance(m, CompoundPoisson)])
@pytest.mark.parametrize("dt, k", [(0.37, 1), (0.37, 11), (1e-3, 40), (2.5, 200)])
def test_compound_poisson_scalar_rate_draw_matches_array_draw(model, dt, k):
    # equal durations as a stride-0 view take rng.poisson(rate * dt, k); an
    # array of equal durations takes rng.poisson(rate * dts): the same bits
    one_value = np.broadcast_to(np.float64(dt), (k,))
    array = np.full(k, dt)
    assert one_value.strides == (0,) and array.strides == (8,)
    for seed in range(5):
        counts_a, jumps_a = model._draw(one_value, np.random.default_rng(seed))
        counts_b, jumps_b = model._draw(array, np.random.default_rng(seed))
        assert np.array_equal(counts_a, counts_b)
        assert (jumps_a is None and jumps_b is None) or np.array_equal(jumps_a, jumps_b)
        finished = model._finish(one_value, [(counts_a, jumps_a)])
        assert np.array_equal(finished, model._finish(array, [(counts_b, jumps_b)]))


@pytest.mark.parametrize("model", CATALOG)
def test_zero_size_batch_is_empty_and_draws_nothing(model):
    # numpy gives an empty array stride 0, the mark of equal durations: an
    # empty batch must still come back (0, d) without touching the Generator
    from semilevy.schedule import make_splice, sample_interval_increment

    splice = make_splice(model, model.scaled(2.0), 0.5, 1.5)
    for draw in (
        lambda rng: model.sample_increment(1.0, rng, size=0),
        lambda rng: sample_interval_increment(splice, 0.0, 1.0, rng, size=0),
    ):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert draw(rng).shape == (0, model.dim)
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("members", [1, 3])
def test_compound_poisson_cells_are_direct_sums_of_their_jumps(dim, members):
    # a cell's increment adds its own jumps; differences of running sums over
    # the whole batch would lose the low bits of every cell
    e, k = np.ones(dim), 20_000
    dts = np.full(k, 1.0)
    point = CompoundPoisson(10.0, PointMass(0.1 * e))
    raws = [point._draw(dts, np.random.default_rng(seed)) for seed in range(members)]
    for (counts, _), got in zip(raws, point._finish(dts, raws)):
        assert got.tobytes() == (counts[:, None] * (0.1 * e)).tobytes()
    for jump in (UniformJump(1.0 * e, 3.0 * e), LaplaceJump(0.5 * e, 1.0)):
        model = CompoundPoisson(4.0, jump)
        raws = [model._draw(dts, np.random.default_rng(seed)) for seed in range(members)]
        for (counts, jumps), got in zip(raws, model._finish(dts, raws)):
            cells = np.split(jumps, np.cumsum(counts)[:-1])  # each cell's jumps, in draw order
            exact = np.array([[math.fsum(c[:, j]) for j in range(dim)] for c in cells])
            scale = np.array([[math.fsum(np.abs(c[:, j])) for j in range(dim)] for c in cells])
            assert np.all(np.abs(got - exact) <= 4.0 * np.spacing(scale)), jump


def _finish_from_durations(model, dts, raws):
    """Increments by the formulas _finish applied to the durations themselves, before
    everything computed from the durations alone moved to _coefficients."""
    stack = lambda parts: parts[0][None] if len(parts) == 1 else np.stack(parts)  # noqa: E731
    if isinstance(model, BrownianDrift):
        return dts[:, None] * model.drift + np.sqrt(dts)[:, None] * (stack(raws) @ model._chol.T)
    if isinstance(model, SymmetricStable):
        parts = [stack(part) for part in zip(*raws)]
        if model.alpha == 2.0:
            return np.sqrt(2.0 * model.scale * dts)[:, None] * parts[0]
        s = (model.scale * dts) ** (1.0 / model.alpha)
        if model.dim == 1:
            return (s * _standard_symmetric_stable(model.alpha, *parts))[..., None]
        u, w, noise = parts
        return (s * np.sqrt(2.0 * _positive_stable(model.alpha / 2.0, u, w)))[..., None] * noise
    if isinstance(model, CompoundPoisson):
        return model.jump._cell_sums(stack([c for c, _ in raws]), [draw for _, draw in raws])
    if isinstance(model, PureDrift):
        return np.repeat((dts[:, None] * model.gamma)[None], len(raws), axis=0)
    out = np.zeros((len(raws), dts.shape[0], model.dim))
    for i, c in enumerate(model.components):
        out += _finish_from_durations(c, dts, [raw[i] for raw in raws])
    return out


def _hook_catalog(dim):
    e = np.eye(dim)[0]
    models = [
        BrownianDrift(0.3 * e, np.eye(dim) + 0.2),
        *(SymmetricStable(alpha, 0.8, dim) for alpha in (0.8, 1.0, 1.5, 2.0)),
        CompoundPoisson(2.5, PointMass(0.7 * e)),
        CompoundPoisson(2.5, UniformJump(-1.0 * e, 2.0 * e)),
        CompoundPoisson(2.5, GaussianJump(0.2 * e, 0.5 * np.eye(dim) + 0.1)),
        CompoundPoisson(2.5, LaplaceJump(-0.1 * e, 0.7)),
        PureDrift(-0.4 * e),
    ]
    return models + [SumModel((models[0], models[7], models[3], models[-1]))]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize(
    "dts",
    [
        _repeated(0.37, 6),
        np.array([0.1, 0.1 + 2**-56, 0.1 - 2**-55, 0.25, 1.3, 1e-3]),  # unequal, some by an ulp
        _repeated(0.37, 0),
        np.zeros(0),
    ],
    ids=["repeated", "unequal", "empty-repeated", "empty"],
)
def test_finish_of_coefficients_matches_finish_of_durations(dim, members, dts):
    for model in _hook_catalog(dim):
        raws = [model._draw(dts, np.random.default_rng(seed)) for seed in range(members)]
        got = model._finish(model._coefficients(dts), raws)
        want = _finish_from_durations(model, dts, raws)
        assert got.shape == want.shape == (members, dts.shape[0], dim), model
        assert got.tobytes() == want.tobytes(), model


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [1, 6, 2**16 + 3])
def test_one_row_of_coefficients_finishes_equal_durations(dim, k):
    # _sample_chunks finds a piece's coefficients once, for one duration, and adds
    # what _finish makes of them over every chunk of k equal durations
    dts = _repeated(0.37, k)
    for model in _hook_catalog(dim):
        raws = [model._draw(dts, np.random.default_rng(7))]
        want, got = np.zeros((k, dim)), np.zeros((k, dim))
        want += model._finish(model._coefficients(dts), raws)[0]
        got += model._finish(model._coefficients(_repeated(0.37, 1)), raws)[0]
        assert got.tobytes() == want.tobytes(), model


# fixed before the first run, never re-picked: cells per sample, the p-value
# below which a KS comparison fails, and one seed per (law, N, dim, side)
LAW_CELLS = 4000
LAW_P_FLOOR = 1e-4


def _law_jumps(dim):
    e = np.eye(dim)[0]
    return {
        "uniform": (UniformJump(-1.0 * e - 0.5, 2.0 * e + 0.5), lambda j, rng, size: rng.uniform(j.lo, j.hi, size)),
        "gauss": (
            GaussianJump(0.2 * e, 0.5 * np.eye(dim) + 0.1),
            lambda j, rng, size: rng.multivariate_normal(j.mu, j.cov, size[:2]),
        ),
        "laplace": (LaplaceJump(-0.1 * e, 0.7), lambda j, rng, size: rng.laplace(j.loc, j.scale, size)),
    }


def _cell_sums(jump, counts, rng):
    return jump._cell_sums(counts[None], [jump._draw_cells(counts, rng)])[0]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 5, 50, 500])
@pytest.mark.parametrize("kind", ["uniform", "gauss", "laplace"])
def test_cell_sums_match_enumerated_jumps_in_law(kind, n, dim):
    # two-sample KS of the law's cell sums of n jumps against n jumps drawn by
    # numpy's own samplers and added, per coordinate and along (1, 1)
    from scipy.stats import ks_2samp

    jump, enumerate_jumps = _law_jumps(dim)[kind]
    index = ("uniform", "gauss", "laplace").index(kind)
    got = _cell_sums(jump, np.full(LAW_CELLS, n), np.random.default_rng([index, n, dim, 0]))
    want = enumerate_jumps(jump, np.random.default_rng([index, n, dim, 1]), (LAW_CELLS, n, dim)).sum(axis=1)
    assert got.shape == want.shape == (LAW_CELLS, dim)
    directions = np.eye(dim) if dim == 1 else np.vstack([np.eye(dim), np.ones(dim)])
    for direction in directions:
        assert ks_2samp(got @ direction, want @ direction).pvalue > LAW_P_FLOOR, direction


@pytest.mark.parametrize("dim", [1, 2])
def test_point_cell_sums_are_n_times_the_jump(dim):
    jump = PointMass(0.1 * np.arange(1, dim + 1))
    counts = np.array([1, 2, 5, 50, 500])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    got = _cell_sums(jump, counts, rng)
    assert rng.bit_generator.state == state
    assert got.tobytes() == (counts[:, None] * jump.x).tobytes()
    added = np.array([np.sum(np.tile(jump.x, (c, 1)), axis=0) for c in counts])
    assert np.allclose(got, added, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("counts", [np.zeros(7, dtype=np.int64), np.zeros(0, dtype=np.int64)])
def test_cells_without_jumps_sum_to_zero_without_a_draw(counts, dim):
    # N = 0 in every cell, and an empty batch: exact zeros, the Generator untouched
    jumps = [PointMass(0.7 * np.ones(dim))] + [jump for jump, _ in _law_jumps(dim).values()]
    for jump in jumps:
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        got = _cell_sums(jump, counts, rng)
        assert rng.bit_generator.state == state
        assert got.shape == (counts.size, dim) and not np.any(got)


# ---------------------------------------------------------------------------
# means and covariances
# ---------------------------------------------------------------------------


def test_mean_closed_forms():
    assert PureDrift(2.0).mean(3.0) == pytest.approx([6.0])
    assert SymmetricStable(1.0, 1.0, 1).mean(1.0) is None  # Cauchy: E|X| infinite
    assert SymmetricStable(1.5, 1.0, 1).mean(1.0) == pytest.approx([0.0])
    assert CompoundPoisson(2.0, UniformJump(0.0, 1.0)).mean(1.0) == pytest.approx([1.0])
    assert SumModel((PureDrift(1.0), SymmetricStable(1.0, 1.0, 1))).mean(1.0) is None


@pytest.mark.parametrize(
    "model",
    [m for m in CATALOG if m.covariance(1.0) is not None and np.trace(m.covariance(1.0)) > 0],
)
def test_mean_matches_empirical(model):
    # analytic mean within 5 standard errors of the empirical mean
    n = 10**5
    dt = 0.7
    rng = np.random.default_rng(321)
    draws = model.sample_increment(dt, rng, size=n)
    mu = model.mean(dt)
    se = np.sqrt(np.diag(model.covariance(dt)) / n)
    assert np.all(np.abs(draws.mean(axis=0) - mu) <= 5.0 * np.maximum(se, 1e-12))


def test_covariance_closed_forms():
    assert np.allclose(BrownianDrift(0.0, 1.5).covariance(2.0), [[3.0]])
    assert np.allclose(SymmetricStable(2.0, 0.5, 2).covariance(1.0), np.eye(2))
    assert SymmetricStable(1.5, 1.0, 1).covariance(1.0) is None
    assert np.allclose(CompoundPoisson(2.0, PointMass(1.0)).covariance(1.0), [[2.0]])


def test_scale_time_halves_exponent():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(20, 1)) * 2
    for model in (
        BrownianDrift(0.4, 1.2),
        SymmetricStable(1.3, 0.8, 1),
        CompoundPoisson(1.5, PointMass(0.5)),
        PureDrift(2.0),
        SumModel((PureDrift(1.0), BrownianDrift(0.0, 1.0))),
    ):
        half = model.scaled(0.5)
        assert np.abs(half.char_exponent(z) - 0.5 * model.char_exponent(z)).max() < 1e-14


@pytest.mark.parametrize("model", CATALOG)
# an infinite speed is refused before any parameter is multiplied by it
@pytest.mark.parametrize("s", [0.0, -1.0, np.inf])
def test_scaled_rejects_nonpositive_speed(model, s):
    with pytest.raises(ValueError, match="time scale must be positive"):
        model.scaled(s)


# ---------------------------------------------------------------------------
# chunked draws: the Generator calls run a chunk ahead on one worker
# ---------------------------------------------------------------------------

# (duration, model) pieces of every catalog kind, a splice and a sum
_E2 = np.eye(2)[0]
CHUNK_PIECES = {
    "bm-d1": [(0.7, BrownianDrift(0.3, 1.5))],
    "bm-d2": [(0.7, BrownianDrift([0.5, -0.2], [[1.0, 0.3], [0.3, 0.8]]))],
    **{f"stable{alpha}-d1": [(0.7, SymmetricStable(alpha, 0.9, 1))] for alpha in (0.8, 1.0, 1.5, 2.0)},
    "stable1.5-d2": [(0.7, SymmetricStable(1.5, 0.9, 2))],
    "drift": [(0.7, PureDrift([1.0, -2.0]))],
    "cp-point": [(0.7, CompoundPoisson(2.0, PointMass(0.5)))],
    "cp-uniform": [(0.7, CompoundPoisson(2.5, UniformJump(-1.0 * _E2, 2.0 * _E2)))],
    "cp-gauss": [(0.7, CompoundPoisson(1.5, GaussianJump([0.1, 0.2], [[0.5, 0.1], [0.1, 0.4]])))],
    "cp-laplace": [(0.7, CompoundPoisson(2.5, LaplaceJump(0.3, 0.6)))],
    "splice": [
        (0.4, BrownianDrift(0.2, 1.0)),
        (0.35, SymmetricStable(1.5, 0.5, 1)),
        (0.25, CompoundPoisson(3.0, LaplaceJump(-0.1, 0.7))),
    ],
    "sum": [(0.7, SumModel((
        BrownianDrift(0.1, 1.0), CompoundPoisson(2.0, UniformJump(-1.0, 1.0)), SymmetricStable(1.0, 0.5, 1),
        PureDrift(-0.4),
    )))],
}
CHUNK = 40


def _serial_chunks(pieces, dim, rng, n, chunk):
    """The chunks drawn in the calling thread from the model hooks: per chunk, every
    piece's _draw in turn, then their _finish results summed from zeros."""
    out = []
    for lo in range(0, n, chunk):
        k = min(chunk, n - lo)
        raws = [model._draw(_repeated(dt, k), rng) for dt, model in pieces]
        x = np.zeros((k, dim))
        with np.errstate(over="ignore", invalid="ignore"):
            for (dt, model), raw in zip(pieces, raws):
                x += model._finish(model._coefficients(_repeated(dt, k)), [raw])[0]
        out.append(x)
    return out


def _draw_threads(monkeypatch, cls) -> set:
    """The threads that run cls._draw from now on, by identity."""
    seen, draw = set(), cls._draw

    def spy(self, dts, rng):
        seen.add(threading.get_ident())
        return draw(self, dts, rng)

    monkeypatch.setattr(cls, "_draw", spy)
    return seen


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", CHUNK_PIECES)
def test_chunks_drawn_ahead_are_the_serial_chunks(monkeypatch, case, cpus):
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: cpus)
    pieces = CHUNK_PIECES[case]
    dim = pieces[0][1].dim
    # 1, 2, 3 and 7 chunks, the last one short or full
    for n_chunks, last in ((1, 33), (2, 17), (3, 5), (7, CHUNK)):
        n = (n_chunks - 1) * CHUNK + last
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        got = list(_sample_chunks(pieces, dim, rng, n, CHUNK))
        want = _serial_chunks(pieces, dim, ref, n, CHUNK)
        assert [x.shape for x in got] == [x.shape for x in want]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (case, n_chunks)
        # and no draw ran past the last chunk
        assert rng.bit_generator.state == ref.bit_generator.state, (case, n_chunks)


@pytest.mark.parametrize("cpus, n_chunks, ahead", [(1, 7, False), (2, 2, False), (2, 3, True), (2, 7, True)])
def test_chunk_draws_run_ahead_from_three_chunks_on_more_than_one_cpu(monkeypatch, cpus, n_chunks, ahead):
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: cpus)
    seen = _draw_threads(monkeypatch, BrownianDrift)
    list(_sample_chunks([(1.0, BrownianDrift(0.0, 1.0))], 1, np.random.default_rng(3), n_chunks * CHUNK, CHUNK))
    # every draw on one worker, or every draw in the calling thread
    assert len(seen) == 1
    assert (threading.get_ident() not in seen) == ahead


def test_single_batches_draw_in_the_calling_thread(monkeypatch):
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: 2)
    seen = _draw_threads(monkeypatch, BrownianDrift)
    BrownianDrift(0.0, 1.0).sample_increment(1.0, np.random.default_rng(3), size=3 * 2**16 + 1)
    assert seen == {threading.get_ident()}


@pytest.mark.parametrize(
    "model",
    # the draws themselves overflow, on the worker; the finish does, in the caller
    [CompoundPoisson(1.0, LaplaceJump(0.0, 1e308)), SymmetricStable(0.1, 1e30)],
    ids=["draw", "finish"],
)
def test_failed_chunk_leaves_no_thread_behind(monkeypatch, model):
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: 2)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="^a sampled increment overflowed") as excinfo:
        list(_sample_chunks([(1.0, model)], 1, np.random.default_rng(4), 7 * CHUNK, CHUNK))
    # joined before the error left the call, though its traceback still holds the frames
    assert excinfo.traceback and threading.active_count() == before


def test_dropped_chunks_leave_no_thread_behind(monkeypatch):
    monkeypatch.setattr(models_module.os, "cpu_count", lambda: 2)
    before = threading.active_count()
    chunks = _sample_chunks([(1.0, BrownianDrift(0.0, 1.0))], 1, np.random.default_rng(5), 7 * CHUNK, CHUNK)
    assert threading.active_count() == before  # nothing starts before the first chunk is taken
    next(chunks)
    assert threading.active_count() == before + 1  # the worker draws the next chunk
    del chunks
    assert threading.active_count() == before
