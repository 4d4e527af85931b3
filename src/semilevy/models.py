"""Catalog of Levy process building blocks.

Every model pairs an exact increment sampler with a closed-form
characteristic exponent psi, normalized so that

    E[exp(i <z, L_t>)] = exp(t * psi(z)),   psi(0) = 0,   Re psi <= 0.

Increments are drawn exactly in law (no Euler stepping), so path and walk
statistics built on top carry no discretization bias.  Models are immutable
and safe to share across a thread pool; every sampling call takes the numpy
Generator it should consume, there is no hidden global state.

Each sampler is split in three hooks.  `_draw(dts, rng)` makes all the
Generator calls of one batch of durations, in a fixed order, and little else.
`_coefficients(dts)` computes what depends on the durations alone, once per
batch however many members share it.  `_finish(coefficients, raws)` never
touches a Generator: it is arithmetic over those coefficients and the draws
of several members stacked together, and returns their increments,
(members, k, d), which its callers only add.  A compound Poisson batch draws
each cell's jump count N and hands the counts to its jump law's
`_draw_cells(counts, rng)` and `_cell_sums(counts, draws)`: N x for a point
mass, N mu + sqrt(N) L Z for a Gaussian, and the drawn jumps added cell by
cell for uniform and Laplace.  `_draw_values(dts)` counts the values one
member's batch holds, with no draw: callers size blocks with it and count it
against the memory budget (util.MAX_VALUES) before any draw.  A single batch (`_sample_pieces`) is
`_finish(_coefficients(dts), [_draw(dts, rng)])[0]`, or a run of such batches
drawn one chunk at a time from one Generator (`_sample_chunks`); their
durations are all equal, so the coefficients of one duration serve every row
and every chunk.  Since only `_draw` touches the Generator, a run of three
chunks or more makes each chunk's `_draw` calls on one worker thread, a
chunk ahead of the caller's `_finish`: the same calls in the same order, so
the same bits.  An ensemble finishes a block of members, each drawn from its
own Generator, at once: member i is bit for bit the batch its own Generator
gives.

Every moment of a model is read off one hook, its exponent's small-|z|
expansion `expansion()`; `_moments` states once which moments are finite.
`_invariant_drift()` returns the m with psi(z) - i <m, z> real and rotation
invariant, or None when there is none: gamma for a pure drift, the drift of
a Brownian motion whose covariance is exactly c I, 0 for a stable law and
for compound Poisson jumps whose characteristic function is real and
invariant, and the sum of the parts' m for a sum.  It reads the exact
parameters with no tolerance, never the mean, which no law with a stable
part of alpha <= 1 has.  The Chung-Fuchs ladder then integrates the radius
alone, on the angular mean of its integrand in closed form.

Jump distributions for the compound Poisson model come from a small closed
catalog (point mass, uniform box, Gaussian, two-sided exponential) so that
their Fourier transforms and moments stay in closed form.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Union

import numpy as np

from .util import FieldEq, check_counts, check_finite, check_positive, check_size, map_ahead

__all__ = [
    "DimensionMismatch",
    "PointMass",
    "UniformJump",
    "GaussianJump",
    "LaplaceJump",
    "JumpDistribution",
    "LevyModel",
    "BrownianDrift",
    "SymmetricStable",
    "CompoundPoisson",
    "PureDrift",
    "SumModel",
]

# tolerance of the positive-semidefinite acceptance check for covariances
PSD_TOL = 1e-10


class DimensionMismatch(ValueError):
    """An argument's dimension disagrees with the model's."""


def _vector(x, name: str = "value") -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a scalar or a 1-d vector")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v.copy()


def _psd_matrix(m, dim: int, name: str = "cov") -> np.ndarray:
    """Validate a covariance: symmetric positive semi-definite to PSD_TOL."""
    a = np.asarray(m, dtype=float)
    if a.ndim == 0:
        a = float(a) * np.eye(dim)
    elif a.ndim == 1:
        if a.shape[0] != dim:
            raise DimensionMismatch(f"{name} diagonal has length {a.shape[0]}, expected {dim}")
        a = np.diag(a)
    if a.shape != (dim, dim):
        raise DimensionMismatch(f"{name} must be {dim}x{dim}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    scale = max(1.0, float(np.abs(a).max()))
    with np.errstate(over="ignore"):  # a difference beyond the float range is refused as asymmetric
        asymmetry = np.abs(a - a.T).max()
    if asymmetry > PSD_TOL * scale:
        raise ValueError(f"{name} must be symmetric")
    a = a + 0.5 * (a.T - a)  # the mean of a and a.T, a itself when symmetric, and never past the float range
    w = np.linalg.eigvalsh(a)
    if w.min() < -PSD_TOL * scale:
        raise ValueError(f"{name} must be positive semi-definite (min eigenvalue {w.min():g})")
    return a


def _factor(a: np.ndarray) -> np.ndarray:
    # sampling factor L with L @ L.T = a; eigen-based so singular PSD works
    w, v = np.linalg.eigh(a)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _quadratic_form(pts: np.ndarray, a: np.ndarray) -> np.ndarray:
    """z^T a z for every row z of pts, (m,): two operands, which numpy's einsum contracts 5-6x faster than three."""
    return np.einsum("ij,ij->i", pts @ a, pts)


def _isotropic(cov: np.ndarray) -> bool:
    """Whether cov is c I, exactly: compared entry by entry with no tolerance."""
    return bool(np.array_equal(cov, cov[0, 0] * np.eye(cov.shape[0])))


def _as_points(z, dim: int) -> tuple[np.ndarray, bool]:
    """Normalize z to an (m, dim) array; also report whether input was a single point."""
    pts = np.asarray(z, dtype=float)
    if pts.ndim == 0:
        if dim != 1:
            raise DimensionMismatch(f"scalar z given to a model of dimension {dim}")
        return pts.reshape(1, 1), True
    if pts.ndim == 1:
        if pts.shape[0] != dim:
            raise DimensionMismatch(f"z has dimension {pts.shape[0]}, model has {dim}")
        return pts.reshape(1, dim), True
    if pts.ndim == 2:
        if pts.shape[1] != dim:
            raise DimensionMismatch(f"z points have dimension {pts.shape[1]}, model has {dim}")
        return pts, False
    raise ValueError("z must be a scalar, a d-vector, or an (m, d) array of points")


# ---------------------------------------------------------------------------
# jump catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PointMass(FieldEq):
    """Deterministic jump of a fixed size."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _vector(self.x, "x"))

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def char_function(self, pts: np.ndarray) -> np.ndarray:
        return np.exp(1j * (pts @ self.x))

    def _invariant_drift(self):
        return None if self.x.any() else np.zeros(self.dim)

    def _cell_values(self, k: int, expected: float) -> float:
        return 0.0

    def _draw_cells(self, counts: np.ndarray, rng: np.random.Generator):
        return None

    def _cell_sums(self, counts: np.ndarray, draws: list) -> np.ndarray:
        return counts[..., None] * self.x

    def moments(self) -> tuple:
        """(E[J], E[J J^T])."""
        return self.x.copy(), np.outer(self.x, self.x)


class _DrawnJumps(FieldEq):
    """A jump law drawn jump by jump (`_jumps`), each cell's jumps added in draw order."""

    def _cell_values(self, k, expected):
        return 2.0 * expected * self.dim  # every jump coordinate, and its slot in _cell_sums

    def _invariant_drift(self):
        # a box or a product of one-dimensional laws: never rotation invariant in d >= 2
        return None

    def _draw_cells(self, counts, rng):
        total = int(counts.sum())
        return self._jumps(rng, total) if total else None

    def _cell_sums(self, counts, draws):
        drawn = [jumps for jumps in draws if jumps is not None]
        if not drawn:
            return np.zeros((*counts.shape, self.dim))
        jumps = drawn[0] if len(drawn) == 1 else np.concatenate(drawn)
        # the (member, cell, coordinate) slot of every jump coordinate, in draw order
        slots = np.repeat(np.arange(counts.size * self.dim).reshape(-1, self.dim), counts.ravel(), axis=0)
        return np.bincount(slots.ravel(), jumps.ravel(), counts.size * self.dim).reshape(*counts.shape, self.dim)


@dataclass(frozen=True, eq=False)
class UniformJump(_DrawnJumps):
    """Uniform jump on the box [lo, hi], coordinates independent."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _vector(self.lo, "lo")
        hi = _vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise DimensionMismatch("lo and hi must have the same length")
        if np.any(hi < lo):
            raise ValueError("hi must be >= lo componentwise")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(hi - lo)):
                raise ValueError("hi - lo must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def char_function(self, pts: np.ndarray) -> np.ndarray:
        mid = 0.5 * (self.lo + self.hi)
        width = self.hi - self.lo
        # per coordinate: exp(i z mu) * sin(z w / 2) / (z w / 2)
        smooth = np.sinc(pts * width / (2.0 * np.pi))
        return np.exp(1j * (pts @ mid)) * np.prod(smooth, axis=1)

    def _jumps(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # the arithmetic of rng.uniform(lo, hi), bit for bit, without its
        # checks of array bounds, which cost ten times a short draw
        return self.lo + (self.hi - self.lo) * rng.random((size, self.dim))

    def moments(self) -> tuple:
        mid = 0.5 * (self.lo + self.hi)
        return mid, np.diag((self.hi - self.lo) ** 2 / 12.0) + np.outer(mid, mid)


@dataclass(frozen=True, eq=False)
class GaussianJump(FieldEq):
    """Gaussian jump with mean mu and covariance cov."""

    mu: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mu = _vector(self.mu, "mu")
        cov = _psd_matrix(self.cov, mu.shape[0], "cov")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @cached_property
    def _chol(self) -> np.ndarray:
        return _factor(self.cov)

    def char_function(self, pts: np.ndarray) -> np.ndarray:
        return np.exp(1j * (pts @ self.mu) - 0.5 * _quadratic_form(pts, self.cov))

    def _invariant_drift(self):
        return None if self.mu.any() or not _isotropic(self.cov) else np.zeros(self.dim)

    def _cell_values(self, k, expected):
        return float(k * self.dim)

    def _draw_cells(self, counts, rng):
        return rng.standard_normal((counts.shape[0], self.dim)) if counts.any() else None

    def _cell_sums(self, counts, draws):
        noise = _stack([np.zeros((counts.shape[1], self.dim)) if z is None else z for z in draws])
        return counts[..., None] * self.mu + np.sqrt(counts)[..., None] * (noise @ self._chol.T)

    def moments(self) -> tuple:
        return self.mu.copy(), self.cov + np.outer(self.mu, self.mu)


@dataclass(frozen=True, eq=False)
class LaplaceJump(_DrawnJumps):
    """Two-sided exponential jump, coordinates independent.

    Coordinate j has density exp(-|x - loc_j| / scale_j) / (2 scale_j).
    """

    loc: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        loc = _vector(self.loc, "loc")
        scale = _vector(self.scale, "scale")
        if scale.shape == (1,) and loc.shape[0] > 1:
            scale = np.full_like(loc, scale[0])
        if loc.shape != scale.shape:
            raise DimensionMismatch("loc and scale must have the same length")
        if np.any(scale <= 0):
            raise ValueError("scale must be positive")
        object.__setattr__(self, "loc", loc)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.loc.shape[0]

    def char_function(self, pts: np.ndarray) -> np.ndarray:
        factors = 1.0 / (1.0 + (pts * self.scale) ** 2)
        return np.exp(1j * (pts @ self.loc)) * np.prod(factors, axis=1)

    def _jumps(self, rng, size):
        # rng.laplace(loc, scale), bit for bit, as for UniformJump._jumps
        return self.loc + self.scale * rng.laplace(0.0, 1.0, (size, self.dim))

    def moments(self) -> tuple:
        return self.loc.copy(), np.diag(2.0 * self.scale**2) + np.outer(self.loc, self.loc)


JumpDistribution = Union[PointMass, UniformJump, GaussianJump, LaplaceJump]


# ---------------------------------------------------------------------------
# stable variate generation
# ---------------------------------------------------------------------------


def _standard_symmetric_stable(alpha: float, phi: np.ndarray, w: Optional[np.ndarray] = None) -> np.ndarray:
    """Symmetric alpha-stable variates with characteristic function exp(-|z|**alpha).

    Trigonometric transform of an angle phi uniform on (-pi/2, pi/2) and a
    standard exponential w (unused at alpha = 1); exact in law for alpha in
    (0, 2).
    """
    if alpha == 1.0:
        return np.tan(phi)
    return (
        np.sin(alpha * phi)
        / np.cos(phi) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
    )


def _positive_stable(a: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Positive a-stable variates with Laplace transform exp(-u**a), a in (0, 1).

    Kanter's representation by an angle u uniform on (0, pi) and a standard
    exponential w.
    """
    su = np.maximum(np.sin(u), 1e-300)
    ratio = np.sin(a * u) ** a * np.sin((1.0 - a) * u) ** (1.0 - a) / su
    return ratio ** (1.0 / a) / w ** ((1.0 - a) / a)


# ---------------------------------------------------------------------------
# model catalog
# ---------------------------------------------------------------------------


def _stack(raws) -> np.ndarray:
    """The members' draws as one (members, ...) array; a view when there is one member."""
    return raws[0][None] if len(raws) == 1 else np.stack(raws)


def _repeated(dt: float, k: int) -> np.ndarray:
    """k durations dt as one value's stride-0 view (np.broadcast_to takes 5x longer), drawn as a scalar."""
    return np.ndarray((k,), float, np.array([float(dt)]), strides=(0,))


def _sample_chunks(pieces, dim: int, rng: np.random.Generator, n: int, chunk: Optional[int] = None) -> Iterator:
    """n exact draws of a sum of independent increments, one per (duration, model) piece in
    turn, as a generator of consecutive (rows, d) chunks of at most chunk rows (one chunk
    without chunk).  One check_size counts all n samples, d values and every piece's
    _draw_values each, before the first draw, so a call is refused whatever its chunks.

    A chunk's Generator calls (draws: every piece's _draw, in piece order) are separate
    from its arithmetic (finish: the pieces' _finish summed from zeros, then checked).
    With three chunks or more and more than one CPU, the draws run on one worker thread
    a chunk ahead (util.map_ahead), so chunk i + 1 is drawn while the caller finishes
    and uses chunk i; the calls and their order, and so every bit, stay the same.  rng
    belongs to the generator until it is exhausted or closed."""
    check_counts(size=n)
    plan = [(dt, model) for dt, model in pieces if dt > 0.0]
    held = dim + sum(model._draw_values(_repeated(dt, 1)) for dt, model in plan)
    check_size(samples=n, **{"values per sample": held})

    # the durations of a piece are all equal, so its coefficients are one row, found
    # once per call and broadcast by _finish over every chunk
    with np.errstate(all="ignore"):  # inf and nan are refused after each draw
        rows = [model._coefficients(_repeated(dt, 1)) for dt, model in plan]

    def draws(k: int) -> list:
        # errstate is per thread, and this may run on the worker
        with np.errstate(all="ignore"):  # inf and nan are refused in finish
            return [model._draw(_repeated(dt, k), rng) for dt, model in plan]

    def finish(k: int, raws: list) -> np.ndarray:
        out = np.zeros((k, dim))
        with np.errstate(all="ignore"):  # inf and nan are refused next
            for (_, model), coefficients, raw in zip(plan, rows, raws):
                out += model._finish(coefficients, [raw])[0]
        check_finite(out, "a sampled increment")
        return out

    step = chunk or max(n, 1)  # an empty call is one empty chunk
    sizes = [min(step, n - lo) for lo in range(0, max(n, 1), step)]

    def chunks() -> Iterator:
        # two chunks overlap one draw with one finish, too little to pay for starting a thread
        drawn = map_ahead(draws, sizes, ahead=len(sizes) >= 3 and (os.cpu_count() or 1) > 1)
        with closing(drawn):  # a failed finish or a closed generator joins the worker
            for k, raws in zip(sizes, drawn):
                yield finish(k, raws)

    return chunks()


def _sample_pieces(pieces, dim: int, rng: np.random.Generator, size: Optional[int]) -> np.ndarray:
    """Exact draw(s) of a sum of independent increments, one per (duration, model) piece in
    turn; (d,), or (size, d) when size is given: _sample_chunks' one chunk."""
    (out,) = _sample_chunks(pieces, dim, rng, 1 if size is None else size)
    return out[0] if size is None else out


def _weighted_expansion(pairs, dim: int) -> tuple:
    """Expansion of the sum of w * psi over (w, model) pairs: each w * term added to zero in order."""
    m, q, stable = np.zeros(dim), np.zeros((dim, dim)), ()
    for w, model in pairs:
        mk, qk, sk = model.expansion()
        m, q, stable = m + w * mk, q + w * qk, stable + tuple((alpha, w * c) for alpha, c in sk)
    return m, q, stable


def _moments(expansion: tuple, t: float) -> tuple:
    """(mean, covariance) of exp(t psi) from psi's expansion, None where infinite: the mean
    is finite unless some stable alpha <= 1, the covariance unless some alpha < 2."""
    m, q, stable = expansion
    alpha = min((a for a, _ in stable), default=2.0)
    return (m * t if alpha > 1.0 else None), (q * t if alpha >= 2.0 else None)


class LevyModel(FieldEq):
    """Base class of the catalog; subclasses fill in the sampling/transform hooks."""

    dim: int

    # -- public surface ------------------------------------------------

    def char_exponent(self, z):
        """psi(z) with E[exp(i<z, L_t>)] = exp(t psi(z)).

        Accepts a scalar (dim 1), a d-vector, or an (m, d) array of points;
        returns a complex scalar or an (m,) complex array accordingly.
        """
        pts, single = _as_points(z, self.dim)
        vals = self._exponent(pts)
        return complex(vals[0]) if single else vals

    def sample_increment(self, dt: float, rng: np.random.Generator, size: Optional[int] = None):
        """Exact draw(s) of L_{t+dt} - L_t; a (d,) vector, or (size, d) when size is given."""
        check_positive(dt=dt)
        return _sample_pieces([(dt, self)], self.dim, rng, size)

    def mean(self, t: float) -> Optional[np.ndarray]:
        """t * E[L_1] when the first absolute moment is finite, else None.

        None is a value, not an error: it encodes E[|L_1|] = infinity and
        downstream criteria branch on it.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # a term past the float range is inf or nan
            return _moments(self.expansion(), float(t))[0]

    def covariance(self, t: float) -> Optional[np.ndarray]:
        """Covariance matrix of L_t when second moments are finite, else None."""
        with np.errstate(over="ignore", invalid="ignore"):  # as in mean
            return _moments(self.expansion(), float(t))[1]

    def expansion(self) -> tuple:
        """(m, Q, ((alpha, c), ...)) with psi(z) = i<m, z> - z^T Q z / 2 - sum c |z|**alpha + o(|z|**2).

        Q holds the Gaussian covariance, an alpha = 2 stable part and the
        jumps' second moments; every stable term left has alpha < 2 (Sato
        1999, Levy Processes and Infinitely Divisible Distributions, s. 25).
        """
        raise NotImplementedError

    def scaled(self, s: float) -> "LevyModel":
        """Model with exponent s * psi, i.e. the process run at a positive, finite speed s."""
        check_positive(**{"time scale": s})
        return self._scaled(float(s))

    # -- hooks -----------------------------------------------------------

    def _exponent(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _invariant_drift(self) -> Optional[np.ndarray]:
        """The m with psi(z) - i<m, z> real and rotation invariant, psi(z) = i<m, z> - phi(|z|),
        read off the exact parameters with no tolerance, or None.  A jump law answers for the
        compound Poisson process of its jumps at rate 1: 0 when its characteristic function is
        real and rotation invariant, else None."""
        return None

    def _draw_values(self, dts: np.ndarray) -> float:
        """About the values one member's batch with durations dts (k,) holds: a count, made
        before any draw, that sizes blocks of members and is checked against the memory budget."""
        return float(dts.shape[0] * self.dim)

    def _draw(self, dts: np.ndarray, rng: np.random.Generator):
        """Every Generator call of one batch with durations dts (k,), in a fixed order."""
        raise NotImplementedError

    def _coefficients(self, dts: np.ndarray):
        """Everything _finish computes from the durations dts (k,) alone, once per batch."""
        return dts

    def _finish(self, coefficients, raws: list) -> np.ndarray:
        """Increments (len(raws), k, d) from _coefficients(dts) and the draws of several
        members; no Generator.  The result may be a read-only view: callers only add it.
        Coefficients of one duration broadcast over k equal ones, with the same values,
        and a result read off them alone may then have one row."""
        raise NotImplementedError

    def _scaled(self, s: float) -> "LevyModel":
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class BrownianDrift(LevyModel):
    """Brownian motion with drift vector and covariance matrix."""

    drift: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        drift = _vector(self.drift, "drift")
        cov = _psd_matrix(self.cov, drift.shape[0], "cov")
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    @cached_property
    def _chol(self) -> np.ndarray:
        return _factor(self.cov)

    def _exponent(self, pts):
        return 1j * (pts @ self.drift) - 0.5 * _quadratic_form(pts, self.cov)

    def _invariant_drift(self):
        return self.drift.copy() if _isotropic(self.cov) else None

    def _draw(self, dts, rng):
        return rng.standard_normal((dts.shape[0], self.dim))

    def _coefficients(self, dts):
        return dts[:, None] * self.drift, np.sqrt(dts)[:, None]

    def _finish(self, coefficients, raws):
        shift, root = coefficients
        noise = _stack(raws) @ self._chol.T
        noise *= root
        noise += shift
        return noise

    def expansion(self):
        return self.drift.copy(), self.cov.copy(), ()

    def _scaled(self, s):
        return BrownianDrift(self.drift * s, self.cov * s)


@dataclass(frozen=True, eq=False)
class SymmetricStable(LevyModel):
    """Rotation-invariant symmetric stable process, psi(z) = -scale * |z|**alpha.

    alpha = 1 is the symmetric Cauchy process; alpha = 2 is Brownian motion
    with per-coordinate variance 2 * scale * t and is sampled on the Gaussian
    path.  The first absolute moment is finite only for alpha > 1.
    """

    alpha: float
    scale: float = 1.0
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError("alpha must be in (0, 2]")
        check_positive(scale=self.scale)
        check_counts(least=1, dim=self.dim)

    def _exponent(self, pts):
        norms = np.linalg.norm(pts, axis=1)
        return -self.scale * norms**self.alpha + 0j

    def _invariant_drift(self):
        return np.zeros(self.dim)

    def _draw(self, dts, rng):
        k = dts.shape[0]
        if self.alpha == 2.0:
            return (rng.standard_normal((k, self.dim)),)
        if self.dim == 1:
            phi = rng.uniform(-np.pi / 2.0, np.pi / 2.0, k)
            return (phi,) if self.alpha == 1.0 else (phi, rng.exponential(1.0, k))
        u = rng.uniform(0.0, np.pi, k)
        w = rng.exponential(1.0, k)
        return u, w, rng.standard_normal((k, self.dim))

    def _coefficients(self, dts):
        if self.alpha == 2.0:
            return np.sqrt(2.0 * self.scale * dts)[:, None]
        return (self.scale * dts) ** (1.0 / self.alpha)

    def _finish(self, s, raws):
        parts = [_stack(part) for part in zip(*raws)]
        if self.alpha == 2.0:
            return s * parts[0]
        if self.dim == 1:
            return (s * _standard_symmetric_stable(self.alpha, *parts))[..., None]
        # subordination: sqrt(2 A) N(0, I) is standard isotropic alpha-stable
        # when A is positive (alpha/2)-stable with transform exp(-u**(alpha/2))
        u, w, noise = parts
        sub = _positive_stable(self.alpha / 2.0, u, w)
        return (s * np.sqrt(2.0 * sub))[..., None] * noise

    def expansion(self):
        if self.alpha == 2.0:
            return np.zeros(self.dim), 2.0 * self.scale * np.eye(self.dim), ()
        return np.zeros(self.dim), np.zeros((self.dim, self.dim)), ((self.alpha, self.scale),)

    def _scaled(self, s):
        return SymmetricStable(self.alpha, self.scale * s, self.dim)


# the largest mean numpy's Poisson sampler takes (POISSON_LAM_MAX in numpy/random/_common.pyx);
# past it Generator.poisson raises "lam value too large" mid-batch
_POISSON_MEAN_MAX = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10


@dataclass(frozen=True, eq=False)
class CompoundPoisson(LevyModel):
    """Compound Poisson process: jumps from `jump` arriving at rate `rate`."""

    rate: float
    jump: JumpDistribution

    def __post_init__(self):
        check_positive(rate=self.rate)

    @property
    def dim(self) -> int:
        return self.jump.dim

    def _exponent(self, pts):
        return self.rate * (self.jump.char_function(pts) - 1.0)

    def _invariant_drift(self):
        return self.jump._invariant_drift()

    def _draw_values(self, dts):
        return dts.shape[0] + self.jump._cell_values(dts.shape[0], self.rate * float(dts.sum()))

    def _coefficients(self, dts):
        # every sampler finds its coefficients before its first draw, so a cell's mean
        # count past numpy's bound is refused with the caller's Generator unmoved
        if dts.size:
            longest = float(dts.max())
            if not self.rate * longest <= _POISSON_MEAN_MAX:
                raise ValueError(
                    f"compound Poisson rate {self.rate!r} over a duration of {longest!r} expects "
                    f"{self.rate * longest:.6g} jumps, more than numpy's Poisson sampler takes "
                    f"({_POISSON_MEAN_MAX:.6g})"
                )
        return dts

    def _draw(self, dts, rng):
        # jump counts per cell, then the jump law's draw for those counts.
        # Equal durations come as a stride-0 view (_repeated): one
        # scalar rate draws the same counts without checking k rates; an empty
        # batch, which numpy gives stride 0 too, takes the array path
        if dts.strides[0] == 0 and dts.size:
            counts = rng.poisson(self.rate * dts[0], dts.shape[0])
        else:
            counts = rng.poisson(self.rate * dts)
        return counts, self.jump._draw_cells(counts, rng)

    def _finish(self, coefficients, raws):
        return self.jump._cell_sums(_stack([c for c, _ in raws]), [draw for _, draw in raws])

    def expansion(self):
        mean, second = self.jump.moments()
        return self.rate * mean, self.rate * second, ()

    def _scaled(self, s):
        return CompoundPoisson(self.rate * s, self.jump)


@dataclass(frozen=True, eq=False)
class PureDrift(LevyModel):
    """Deterministic linear drift, L_t = gamma * t."""

    gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gamma", _vector(self.gamma, "gamma"))

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def _exponent(self, pts):
        return 1j * (pts @ self.gamma)

    def _invariant_drift(self):
        return self.gamma.copy()

    def _draw(self, dts, rng):
        return None

    def _coefficients(self, dts):
        return dts[:, None] * self.gamma

    def _finish(self, shift, raws):
        return np.broadcast_to(shift, (len(raws), *shift.shape))

    def expansion(self):
        return self.gamma.copy(), np.zeros((self.dim, self.dim)), ()

    def _scaled(self, s):
        return PureDrift(self.gamma * s)


@dataclass(frozen=True, eq=False)
class SumModel(LevyModel):
    """Independent sum of catalog models sharing one dimension."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("SumModel needs at least one component")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise DimensionMismatch(f"components disagree on dimension: {sorted(dims)}")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim

    def _exponent(self, pts):
        out = np.zeros(pts.shape[0], dtype=complex)
        for c in self.components:
            out += c._exponent(pts)
        return out

    def _invariant_drift(self):
        drifts = [c._invariant_drift() for c in self.components]
        # each part added in turn to zero, as _weighted_expansion adds the means
        return None if any(m is None for m in drifts) else sum(drifts, np.zeros(self.dim))

    def _draw_values(self, dts):
        return sum(c._draw_values(dts) for c in self.components)

    def _draw(self, dts, rng):
        return tuple(c._draw(dts, rng) for c in self.components)

    def _coefficients(self, dts):
        return tuple(c._coefficients(dts) for c in self.components)

    def _finish(self, coefficients, raws):
        out = 0.0  # each component added in turn to zero, into a new array
        for i, (c, coef) in enumerate(zip(self.components, coefficients)):
            out = out + c._finish(coef, [raw[i] for raw in raws])
        return out

    def expansion(self):
        return _weighted_expansion(((1.0, c) for c in self.components), self.dim)

    def _scaled(self, s):
        return SumModel(tuple(c._scaled(s) for c in self.components))
