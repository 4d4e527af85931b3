"""Recurrence / transience classification of periodic Levy schedules.

Two analytic routes and one empirical diagnostic:

* The Chung-Fuchs integral I(q) of the one-period increment law,
  I(q) = integral over the ball B_a of Re(1 / (q - psi(z))) dz.  Recurrence
  is equivalent to I(q) diverging as q decreases to 0; any finite procedure
  can only fit the divergence, so the verdict states its evidence and admits
  an honest Inconclusive.  psi does not depend on q: a verdict evaluates it
  once and reads every q off the same values.  Its nodes are Gauss-Kronrod
  boxes along the radius alone in d = 1 and for a rotation-invariant law
  plus a drift, psi(z) = i<m, z> - phi(|z|), whose angular integral has a
  closed form (in d >= 4 only with m = 0); along the radius and the angles
  for every other law in d = 2, 3; and scrambled-Sobol nodes for every
  other law from dimension 4 (see _ladder).
* The one-dimensional mean criterion: with a finite one-period mean, the
  process is recurrent exactly when that mean vanishes.
* Occupation-time growth across horizons, a Monte Carlo diagnostic that
  corroborates the analytic verdicts but never proves either alternative.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .models import DimensionMismatch, LevyModel, SumModel
from .schedule import (
    SemiLevySchedule,
    _ensemble,
    _grid_occupancy,
    _grid_times,
    _pool_workers,
    period_exponent,
    period_mean,
)
from .skeleton import _occupation
from .util import check_counts, check_finite, check_increasing, check_positive, check_size, render_line, split_seeds

__all__ = [
    "Decision",
    "Criterion",
    "Verdict",
    "OccupationReport",
    "QuadratureError",
    "chung_fuchs_integral",
    "ball_integral_qmc",
    "chung_fuchs_verdict",
    "radius_sweep",
    "mean_criterion",
    "empirical_diagnostic",
    "empirical_verdict",
]

# relative tolerance demanded of deterministic quadrature (the Gauss-Kronrod boxes)
QUAD_REL_TOL = 1e-6
# composite Gauss-Kronrod boxes are refined until the summed error estimate
# is below this fraction of every ladder level
PANEL_REL_TOL = 1e-9
# refinement budget per ladder, in place of an unbounded bisection: boxes
# (G10/K21 panels in r, their tensor products over (r, theta) in d = 2 and
# with G7/K15 over (r, cos theta, phi) in d = 3), and psi points
MAX_PANELS = 2000
PSI_POINT_BUDGET = 2**24
# psi is evaluated on at most this many points per period_exponent call; a
# QMC ladder draws QMC_REPLICATES scrambled Sobol streams of this many nodes
PSI_CHUNK = 2**16
QMC_REPLICATES = 16
# the Gauss-Kronrod boxes go through psi in groups of at most this many nodes
# (three 21 x 15^2-node boxes in d = 3): smaller temporaries fault fewer fresh pages
GK_CHUNK = 2**14
# analytic zero test for means computed in closed form, relative to the
# summed magnitude of the terms the mean adds up
MEAN_ZERO_TOL = 1e-12
# q-ladder defaults: ratio 4 separates sqrt-divergence, log-divergence and
# convergence cleanly within double precision
DEFAULT_Q0 = 1e-2
DEFAULT_LEVELS = 8
# ladder levels a verdict accepts: 6 for the fits, at most 32 (q down to
# q0 * 4**-31) so that the (levels, points) integrand arrays stay bounded
MIN_LEVELS = 6
MAX_LEVELS = 32
Q_RATIO = 4.0
# divergence-fit acceptance thresholds
POWER_BETA_MIN = 0.05
FIT_R2_MIN = 0.99
# Cauchy-convergence acceptance: remaining variation below 1% of the last value
REMAINING_FRAC_MAX = 0.01
GEOMETRIC_RHO_MAX = 0.95
# verdicts require the ladder signal to exceed 5x the integration error estimate
SIGNAL_FACTOR = 5.0


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the required relative tolerance."""


class Decision(Enum):
    RECURRENT = "Recurrent"
    TRANSIENT = "Transient"
    INCONCLUSIVE = "Inconclusive"


class Criterion(Enum):
    CHUNG_FUCHS = "ChungFuchs"
    MEAN_CRITERION = "MeanCriterion"
    EMPIRICAL = "Empirical"


@dataclass(frozen=True)
class Verdict:
    """A classification decision with the numeric evidence that produced it."""

    decision: Decision
    criterion: Criterion
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.decision is Decision.INCONCLUSIVE and "reason" not in self.evidence:
            raise ValueError("Inconclusive verdicts must carry a reason")

    def pairs(self) -> list:
        """The (key, value) pairs of to_line: decision, criterion, then the evidence by key."""
        return [("decision", self.decision.value), ("criterion", self.criterion.value), *sorted(self.evidence.items())]

    def to_line(self) -> str:
        """One diffable line: decision=... criterion=... key=value ... (keys sorted)."""
        return render_line(self.pairs())


# ---------------------------------------------------------------------------
# Chung-Fuchs integral
# ---------------------------------------------------------------------------


def _cf_integrand(psi: np.ndarray, q: float) -> np.ndarray:
    # Re(1/(q - psi)) = (q - Re psi) / ((q - Re psi)^2 + (Im psi)^2) >= 0; an
    # overflow would turn a huge exponent into a silent zero, and a tiny q
    # whose square underflows divides by zero, so both raise
    re = q - psi.real
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return re / (re * re + psi.imag * psi.imag)
    except FloatingPointError as exc:
        raise QuadratureError(f"Chung-Fuchs integrand out of range at q={q:g}") from exc


def _radial_integrand(qs: np.ndarray, re_psi: np.ndarray, r: np.ndarray, drift: float, dim: int) -> np.ndarray:
    # r^(d-1) times the mean over the unit sphere of Re(1/(q - psi(r u))) at
    # every level q, shape (levels, len(r)), for psi(z) = i<m, z> - phi(|z|):
    # with A = q + phi(r) = q - re_psi, B = r |m| and t the cosine to m, the
    # mean of A / (A^2 + B^2 t^2) is 1 / sqrt(A^2 + B^2) in d = 2 and
    # arctan(B/A) / B in d = 3 (1/A at B = 0), and 1/A from d = 4 on, where
    # m = 0.  As in _cf_integrand, a square that overflows or underflows
    # raises, and so does an infinite A or B, whose mean would be a silent
    # zero; a nan passes on to _check_integrals
    a, b = qs[:, None] - re_psi, r * drift
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        square = a * a + b * b
        if dim == 2:
            mean = 1.0 / np.sqrt(square)
        elif dim == 3 and drift:
            x = b / a
            mean = np.where(x == 0.0, 1.0, np.arctan(x) / x) / a
        else:
            mean = 1.0 / a
    bad = (np.isinf(square) | (square == 0.0)).any(axis=1)
    if bad.any():
        raise QuadratureError(f"Chung-Fuchs integrand out of range at q={qs[bad.argmax()]:g}")
    return r ** (dim - 1) * mean


def _origin_ladder(a: float) -> np.ndarray:
    # geometric breakpoints accumulating at 0: the integrand peak at the
    # origin can be as narrow as O(q), far below what adaptive subdivision
    # finds on its own, so every decade down to machine scale gets a panel
    return a * 10.0 ** (-np.arange(1, 17, dtype=float))


# QUADPACK qk21 and qk15 (Piessens et al. 1983) on [-1, 1], each listed from
# its largest node down to 0: the Kronrod nodes and weights, and the Gauss
# weights (G10 and G7), which sit on every other node.  Mirroring gives the
# whole rule with its nodes ascending: (nodes, Kronrod weights, Gauss weights).
def _gk_rule(xgk, wgk, wg) -> tuple:
    xgk, wgk, wg = (np.array(v) for v in (xgk, wgk, wg))
    return np.concatenate([-xgk, xgk[-2::-1]]), np.concatenate([wgk, wgk[-2::-1]]), np.concatenate([wg, wg[-2::-1]])


# keyed by their number of Kronrod nodes
_GK_RULES = {
    21: _gk_rule(
        [0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845, 0.7808177265864169,
         0.6794095682990244, 0.5627571346686047, 0.4333953941292472, 0.2943928627014602, 0.14887433898163122, 0.0],
        [0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996, 0.0931254545836976,
         0.10938715880229764, 0.12349197626206584, 0.13470921731147334, 0.14277593857706009, 0.14773910490133849,
         0.1494455540029169],
        [0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204, 0.0, 0.26926671930999635, 0.0,
         0.29552422471475287, 0.0],
    ),
    15: _gk_rule(
        [0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945, 0.5860872354676911,
         0.4058451513773972, 0.20778495500789848, 0.0],
        [0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592, 0.1690047266392679,
         0.19035057806478542, 0.20443294007529889, 0.20948214108472782],
        [0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0, 0.4179591836734694],
    ),
}


class _Psi:
    """psi of one schedule on demand, counted against the budget; callers pass at most PSI_CHUNK points."""

    def __init__(self, schedule: SemiLevySchedule, qs: np.ndarray):
        self.schedule, self.qs, self.points = schedule, qs, 0

    def affords(self, n: int) -> bool:
        return self.points + n <= PSI_POINT_BUDGET

    def exponent(self, z: np.ndarray) -> np.ndarray:
        """psi(z), counted."""
        self.points += len(z)
        with np.errstate(over="ignore", invalid="ignore"):  # _check_integrals refuses what inf and nan give
            return period_exponent(self.schedule, z)

    def integrand(self, z: np.ndarray) -> np.ndarray:
        """_cf_integrand(psi(z), q) at every level q, shape (levels, len(z))."""
        psi = self.exponent(z)
        out = np.empty((self.qs.size, len(z)))
        for level, q in enumerate(self.qs):
            out[level] = _cf_integrand(psi, float(q))
        return out

    @cached_property
    def drift(self) -> Optional[float]:
        """|m| where the integrand's mean over each sphere has a closed form (_radial_integrand):
        psi(z) = i<m, z> - phi(|z|) with phi real (_invariant_drift) in d = 2, 3, and with
        m = 0 from d = 4 on; None for every other law, and in d = 1."""
        dim = self.schedule.dim
        m = None if dim == 1 else _invariant_drift(self.schedule)
        return None if m is None or (dim >= 4 and m.any()) else math.hypot(*m)

    @cached_property
    def pole(self) -> np.ndarray:
        """Reflection taking e_3 to the direction of the one-period mean, or the identity.

        A drift m puts a sharp peak on the plane <m, z> = 0; with the pole
        along m that plane is u = 0, where the first halving along u puts a
        box edge.  A reflection maps the ball onto itself, keeping volume, so
        it changes the cost of I(q), never its value.  Only the angular boxes
        read it, so it serves the drifting laws in d = 3 that are not rotation
        invariant.  It pays there: BM with drift (0.2, -0.4, 0.1) and cov
        diag(1, 2, 0.5) settles in 6,062,175 psi points, where the identity
        frame runs out of budget at an error of 3.8e-4 of I(0.01).
        """
        m, frame = period_mean(self.schedule), np.eye(3)
        norm = 0.0 if m is None else float(np.linalg.norm(m))
        if 0.0 < norm < np.inf:
            v = frame[2] - m / norm
            if np.any(v):
                frame -= 2.0 * np.outer(v, v) / (v @ v)
        return frame

    def sphere(self, x: np.ndarray) -> np.ndarray:
        """r^(d-1) times the integrand at z = r times a unit direction, per row of x.

        A (r,) row takes the direction e_1 in d = 1, and from d = 2 on the
        integrand's mean over the sphere of radius r, in closed form from
        psi(r e_1) and drift (_radial_integrand).  A (r, phi) row in d = 2
        takes (cos phi, sin phi); a (r, u, phi) row in d = 3 takes
        (s cos phi, s sin phi, u) with s = sqrt(1 - u^2), reflected by pole.
        """
        r, dim = x[:, 0], self.schedule.dim
        if x.shape[1] == 1 and dim > 1:
            return _radial_integrand(self.qs, self.exponent(r[:, None] * np.eye(1, dim)).real, r, self.drift, dim)
        if x.shape[1] == 1:
            directions = np.eye(1, dim)
        elif dim == 2:
            phi = x[:, 1]
            directions = np.column_stack([np.cos(phi), np.sin(phi)])
        else:
            u, phi = x[:, 1], x[:, 2]
            s = np.sqrt(1.0 - u * u)
            directions = np.column_stack([s * np.cos(phi), s * np.sin(phi), u]) @ self.pole
        return r ** (dim - 1) * self.integrand(r[:, None] * directions)


def _qk(fx: np.ndarray, half: np.ndarray, kronrod: np.ndarray, gauss: np.ndarray):
    # QUADPACK qk21 / qk15 along the last axis of fx: the Kronrod value and its error estimate
    resk = fx @ kronrod
    err = np.abs(resk - fx @ gauss) * half
    resasc = np.abs(fx - 0.5 * resk[..., None]) @ kronrod * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    err = np.maximum(50.0 * np.finfo(float).eps * (np.abs(fx) @ kronrod) * half, err)
    return resk * half, err


def _gk_panels(f, lo: np.ndarray, hi: np.ndarray, rules: Sequence[tuple]):
    # tensor Kronrod value of every level on each box [lo, hi], shape (n, D),
    # with rules[k] = (nodes, Kronrod weights, Gauss weights) along axis k, and
    # per axis the _qk error along it of the Kronrod sum over the other axes
    # (times their half-widths); f sees the boxes in groups of at most
    # GK_CHUNK nodes
    n, dim = lo.shape
    shape = tuple(nodes.size for nodes, _, _ in rules)
    grid = np.stack(np.meshgrid(*(nodes for nodes, _, _ in rules), indexing="ij"), axis=-1).reshape(-1, dim)
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    step = max(1, GK_CHUNK // len(grid))
    values, errs = [], []
    for i in range(0, n, step):
        c, h = center[i : i + step], half[i : i + step]
        nodes = (c[:, None] + h[:, None] * grid).reshape(-1, dim)
        fx = f(nodes).reshape(-1, len(c), *shape)
        parts = []
        for axis in range(dim):
            # contracting the last other axis first keeps this one in place
            g = fx
            for other in reversed(range(dim)):
                if other != axis:
                    g = np.moveaxis(g, 2 + other, -1) @ rules[other][1]
            parts.append(_qk(g * np.prod(np.delete(h, axis, axis=1), axis=1)[:, None], h[:, axis], *rules[axis][1:]))
        values.append(parts[0][0])
        errs.append(np.stack([err for _, err in parts], axis=-1))
    return np.concatenate(values, axis=1), np.concatenate(errs, axis=1)


def _gk_ladder(f, psi: _Psi, lo: np.ndarray, hi: np.ndarray, rules: Sequence[tuple]):
    """Tensor Gauss-Kronrod integral of every level of f over the boxes [lo, hi], shape (n, D),
    with the rule rules[k] along axis k.

    Boxes are halved, all levels at once, along their axis of largest error
    where their error estimate exceeds an equal share of PANEL_REL_TOL, until
    the summed estimate meets it at every level or a budget runs out.
    """
    value, err = _gk_panels(f, lo, hi, rules)
    box_nodes = math.prod(nodes.size for nodes, _, _ in rules)
    while True:
        total = np.maximum(np.abs(value.sum(axis=1)), 1e-300)
        box_err = err.sum(axis=2)
        if np.all(box_err.sum(axis=1) <= PANEL_REL_TOL * total):
            break
        bad = np.max(box_err / total[:, None], axis=0) > PANEL_REL_TOL / len(lo)
        n_bad = int(bad.sum())  # zero only when an estimate is NaN
        cost = 2 * n_bad * box_nodes
        if not 0 < n_bad <= MAX_PANELS - len(lo) or not psi.affords(cost):
            break
        axis = np.argmax(np.max(err[:, bad] / total[:, None, None], axis=0), axis=1)
        split = np.arange(lo.shape[1]) == axis[:, None]
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], np.where(split, mid, lo[bad])])
        new_hi = np.concatenate([np.where(split, mid, hi[bad]), hi[bad]])
        parts = zip((value, err), _gk_panels(f, new_lo, new_hi, rules))
        value, err = (np.concatenate([old[:, ~bad], new], axis=1) for old, new in parts)
        lo, hi = np.concatenate([lo[~bad], new_lo]), np.concatenate([hi[~bad], new_hi])
    return value.sum(axis=1), box_err.sum(axis=1)


def _invariant_drift(schedule: SemiLevySchedule) -> Optional[np.ndarray]:
    """The m with the one-period psi(z) - i<m, z> real and rotation invariant: the segment
    models' (LevyModel._invariant_drift) weighted by their durations, or None when one has none."""
    m = np.zeros(schedule.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # an m of inf or nan fails the ladder later
        for duration, model in schedule.segments:
            part = model._invariant_drift()
            if part is None:
                return None
            m = m + duration * part
    return m


def _sphere_area(dim: int) -> float:
    # |S^(d-1)| = 2 pi^(d/2) / Gamma(d/2), written out as 2, 2 pi and 4 pi in d <= 3; math.lgamma,
    # not scipy.special, since a cold import of scipy.special would cost more than the whole ladder
    if dim <= 3:
        return {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[dim]
    return 2.0 * math.exp(0.5 * dim * math.log(math.pi) - math.lgamma(0.5 * dim))


def _gk_boxes(dim: int, a: float, radial: bool) -> tuple:
    """The starting boxes of a Gauss-Kronrod ladder over B_a, (lo, hi, rules, area): I(q) is
    area times the integral of _Psi.sphere over the boxes.

    Each radial panel on the _origin_ladder breakpoints starts as one box,
    G10/K21 along r.  radial, in any dimension: the panel alone, on the ray
    along e_1 in d = 1 and on the mean over each sphere from d = 2 on, and
    area is the sphere's, |S^(d-1)| (_sphere_area).  Otherwise, in d = 2, 3,
    the angles join it.  Re 1/(q - psi(z)) is even in z, since psi(-z) is the
    conjugate of psi(z), so d = 2 takes theta in [0, pi] on K21 and area 2;
    d = 3 takes the whole sphere, (cos theta, phi) on G7/K15, and area 1.
    """
    radii = np.concatenate([[0.0], _origin_ladder(a)[::-1], [a]])
    spans = [] if radial else {2: [(0.0, np.pi)], 3: [(-1.0, 1.0), (0.0, 2.0 * np.pi)]}[dim]
    rules = [_GK_RULES[21]] + [_GK_RULES[21 if dim < 3 else 15]] * len(spans)
    lo = np.column_stack([radii[:-1], *(np.full(radii.size - 1, low) for low, _ in spans)])
    hi = np.column_stack([radii[1:], *(np.full(radii.size - 1, high) for _, high in spans)])
    area = _sphere_area(dim) if radial else {2: 2.0, 3: 1.0}[dim]
    return lo, hi, rules, area


def _ball_volume(dim: int, a: float) -> float:
    # scipy.special and scipy.stats are imported where the QMC engine needs
    # them: they take most of a cold start, which every command would pay
    from scipy.special import gammaln

    return math.exp(0.5 * dim * math.log(math.pi) - gammaln(0.5 * dim + 1.0)) * a**dim


def _ball_points(dim: int, a: float, seed: int) -> np.ndarray:
    """PSI_CHUNK scrambled-Sobol points mapped uniformly onto the ball of radius a.

    The first dim coordinates become a direction through the inverse normal
    map; the last coordinate becomes the radius through the power map, which
    is the exact radial CDF inverse for the uniform ball law.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc

    sob = qmc.Sobol(d=dim + 1, scramble=True, seed=seed)
    u = sob.random(PSI_CHUNK)  # a power of 2, as the Sobol balance properties need
    g = ndtri(np.clip(u[:, :dim], 1e-15, 1.0 - 1e-15))
    norms = np.maximum(np.linalg.norm(g, axis=1), 1e-300)
    radius = a * u[:, dim] ** (1.0 / dim)
    return (radius / norms)[:, None] * g


def _qmc_ladder(psi: _Psi, a: float, seed: int):
    """I(q) at every level of psi and its standard error over QMC_REPLICATES scrambled Sobol streams.

    Each stream's PSI_CHUNK ball points go through psi in one call; a level's
    estimates (ball volume times mean integrand) are reduced as one row.  The
    nodes of all streams, dim + 1 coordinates each, go through check_size
    before any is drawn: from dim 128 on they are refused.
    """
    dim = psi.schedule.dim
    check_size(replicates=QMC_REPLICATES, nodes=PSI_CHUNK, coordinates=dim + 1)
    vol = _ball_volume(dim, a)
    streams = split_seeds(seed, range(QMC_REPLICATES))
    means = [psi.integrand(_ball_points(dim, a, s)).mean(axis=1) for s in streams]
    estimates = vol * np.column_stack(means)
    return estimates.mean(axis=1), estimates.std(axis=1, ddof=1) / math.sqrt(QMC_REPLICATES)


def _ladder(schedule: SemiLevySchedule, a: float, qs, seed: int):
    """I(q) over B_a at every q, the error estimate of each value, and a report of the work.

    The only code that maps a dimension and a law to an engine.  psi does
    not depend on q, so one _Psi evaluates it once on a fixed node set and
    every level is a weighted sum over it.  Tensor Gauss-Kronrod boxes
    (_gk_boxes), of two kinds.  Radial: G10/K21 panels in r alone, times
    the sphere's area.  In d = 1 they take the integrand along e_1, on the
    half line r >= 0, doubled.  From d = 2 on they take r^(d-1) times the
    integrand's mean over the sphere of radius r, in closed form from
    psi(r e_1) (_radial_integrand), for a law with psi(z) = i<m, z> -
    phi(|z|), phi real (_invariant_drift): any m in d = 2, 3, and m = 0
    from d = 4 on (_Psi.drift).  Angular, for every other law in d = 2, 3:
    the same panels times _Psi.sphere's angles, half the circle in d = 2,
    doubled, and the whole sphere in d = 3 on G7/K15 angle axes.  Their
    absolute error estimates must stay within QUAD_REL_TOL of their values;
    the report's quad_rel_err is their largest ratio.  Every other law from
    d = 4 on: scrambled-Sobol batches, whose standard errors the report
    holds as stderrs.  The report also holds psi_points.
    """
    psi, dim = _Psi(schedule, np.asarray(qs, dtype=float)), schedule.dim
    if dim >= 4 and psi.drift is None:
        values, errors = _qmc_ladder(psi, a, seed)
        _check_integrals(psi.qs, values, dim, a)
        return values, errors, {"psi_points": psi.points, "stderrs": errors}
    # the boxes go through psi in groups of at most GK_CHUNK nodes of dim coordinates
    check_size(nodes=GK_CHUNK, coordinates=dim)
    lo, hi, rules, area = _gk_boxes(dim, a, radial=dim == 1 or psi.drift is not None)
    values, errors = (area * x for x in _gk_ladder(psi.sphere, psi, lo, hi, rules))
    _check_integrals(psi.qs, values, dim, a)
    for q, value, error in zip(psi.qs, values, errors):
        if not error <= QUAD_REL_TOL * value:
            raise QuadratureError(
                f"{dim}-d quadrature error {error:g} exceeds relative tolerance {QUAD_REL_TOL:g} "
                f"at q={q:g}, a={a:g}"
            )
    return values, errors, {"psi_points": psi.points, "quad_rel_err": float(np.max(errors / values))}


def _check_integrals(qs: np.ndarray, values: np.ndarray, dim: int, a: float) -> None:
    """QuadratureError unless every I(q) is finite and positive, as it is for every Levy exponent."""
    for q, value in zip(qs, values):
        if not (np.isfinite(value) and value > 0.0):
            raise QuadratureError(f"{dim}-d Chung-Fuchs integral is {value} at q={q:g}, a={a:g}")


def ball_integral_qmc(schedule: SemiLevySchedule, a: float, q: float, seed: int = 0) -> tuple[float, float]:
    """Quasi-Monte Carlo value of the Chung-Fuchs integral with its standard error.

    Uses QMC_REPLICATES = 16 independently scrambled Sobol streams of
    PSI_CHUNK = 2**16 nodes each (2**20 > 1e6 nodes), the same as the
    ladder of a d >= 4 law that is not rotation invariant or has a drift;
    the standard error is the spread of the per-stream estimates.  In every
    other case it stays QMC, an independent check on the Gauss-Kronrod
    ladder.
    """
    check_positive(a=a, q=q)
    values, stderrs = _qmc_ladder(_Psi(schedule, np.array([q], dtype=float)), a, seed)
    return float(values[0]), float(stderrs[0])


def chung_fuchs_integral(
    schedule: SemiLevySchedule, a: float, q: float, seed: int = 0
) -> float:
    """I(q) = integral over B_a of Re(1/(q - psi(z))) dz for the one-period law.

    Computed by the verdict's ladder integrator (see _ladder for the engine
    each dimension and law uses), so a failure to reach its accuracy raises
    QuadratureError rather than returning a silently wrong value; the
    standard error of a quasi-Monte Carlo value is available through
    ball_integral_qmc.
    """
    check_positive(a=a, q=q)
    values, _, _ = _ladder(schedule, a, [q], seed)
    return float(values[0])


# ---------------------------------------------------------------------------
# verdict from the q-ladder
# ---------------------------------------------------------------------------


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and R^2 of y against x; R^2 is 0 when the spread of y squares to 0,
    as the values of a ladder over a ball of radius 1e-70 in d = 3 do (about 1e-205 each)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0.0:
        return float(slope), 0.0
    return float(slope), 1.0 - float(np.sum(resid**2)) / ss_tot


def check_levels(levels: int) -> None:
    """ValueError unless a ladder of this many levels is one a verdict accepts: a whole number (6.0 counts) in range."""
    if not (isinstance(levels, numbers.Real) and float(levels).is_integer()):
        raise ValueError(f"levels must be a whole number, got {levels!r}")
    if not MIN_LEVELS <= levels <= MAX_LEVELS:
        raise ValueError(f"levels must be between {MIN_LEVELS} and {MAX_LEVELS}, got {levels}")


def chung_fuchs_verdict(
    schedule: SemiLevySchedule,
    a: float = 1.0,
    q0: float = DEFAULT_Q0,
    levels: int = DEFAULT_LEVELS,
    seed: int = 0,
) -> Verdict:
    """Classify by the behavior of I(q) along the ladder q_k = q0 * 4**(-k).

    Transient when the ladder is Cauchy-convergent (successive differences
    decay geometrically and the remaining variation is under 1% of the last
    value); recurrent when a power law c * q**(-beta) with beta >= 0.05 or a
    logarithmic growth fits with R^2 >= 0.99; otherwise Inconclusive with the
    fit diagnostics attached.  The evidence holds the ladder's report (see
    _ladder: psi_points, and the engine's own error key), and no decision is
    issued unless the ladder moves by more than SIGNAL_FACTOR times its
    largest error estimate.
    """
    check_levels(levels)
    check_positive(a=a, q0=q0)

    qs = q0 * Q_RATIO ** (-np.arange(levels, dtype=float))
    values, errors, report = _ladder(schedule, a, qs, seed)
    # a and q0 as floats and levels as an integer however given, so a config
    # built in code prints what its text form would
    evidence: dict = {"a": float(a), "q0": float(q0), "levels": int(levels), "qs": qs, "integrals": values, **report}

    last = float(values[-1])
    scale = max(abs(last), 1e-300)

    # noise guard: a ladder that moved less than its integration error
    # supports no classification at all
    noise_floor = SIGNAL_FACTOR * float(errors.max())
    if float(values.max() - values.min()) < noise_floor:
        evidence["reason"] = "ladder variation below the integration noise floor"
        evidence["noise_floor"] = noise_floor
        return Verdict(Decision.INCONCLUSIVE, Criterion.CHUNG_FUCHS, evidence)

    # transience: the ladder has settled (Cauchy-convergent)
    diffs = np.abs(np.diff(values))
    if diffs.max() <= 1e-12 * scale:
        evidence["remaining_frac"] = 0.0
        evidence["fit"] = "converged"
        return Verdict(Decision.TRANSIENT, Criterion.CHUNG_FUCHS, evidence)
    positive = diffs > 0.0
    ratios = diffs[1:][positive[:-1]] / diffs[:-1][positive[:-1]]
    rho = float(np.median(ratios)) if ratios.size else 0.0
    evidence["rho"] = rho
    if rho < GEOMETRIC_RHO_MAX and diffs[-1] < diffs[0]:
        remaining = diffs[-1] * rho / (1.0 - rho)
        evidence["remaining_frac"] = float(remaining / scale)
        if remaining < REMAINING_FRAC_MAX * scale:
            evidence["fit"] = "converged"
            return Verdict(Decision.TRANSIENT, Criterion.CHUNG_FUCHS, evidence)

    # recurrence: an unbounded growth model fits the ladder
    x = np.log(1.0 / qs)
    beta, power_r2 = _line_fit(x, np.log(values))
    log_slope, log_r2 = _line_fit(x, values)
    evidence.update(beta=beta, power_r2=power_r2, log_slope=log_slope, log_r2=log_r2)
    power_ok = beta >= POWER_BETA_MIN and power_r2 >= FIT_R2_MIN
    log_ok = log_slope > 0.0 and log_r2 >= FIT_R2_MIN
    if power_ok or log_ok:
        if power_ok and log_ok:
            evidence["fit"] = "power" if power_r2 >= log_r2 else "log"
        else:
            evidence["fit"] = "power" if power_ok else "log"
        return Verdict(Decision.RECURRENT, Criterion.CHUNG_FUCHS, evidence)

    evidence["reason"] = "ladder neither settles nor fits an unbounded growth model"
    return Verdict(Decision.INCONCLUSIVE, Criterion.CHUNG_FUCHS, evidence)


def radius_sweep(
    schedule: SemiLevySchedule,
    a_values: Sequence[float] = (0.5, 1.0, 2.0),
    q0: float = DEFAULT_Q0,
    levels: int = DEFAULT_LEVELS,
    seed: int = 0,
) -> list[tuple[float, Verdict]]:
    """Verdicts across ball radii; the decision must not depend on the radius.

    The criterion holds for every radius at once, so the default a = 1 is a
    numerical convenience; disagreement across the sweep flags a quadrature
    or fit problem rather than a property of the process.
    """
    check_levels(levels)
    return [
        (float(a), chung_fuchs_verdict(schedule, a=float(a), q0=q0, levels=levels, seed=seed))
        for a in a_values
    ]


# ---------------------------------------------------------------------------
# mean criterion (dimension 1)
# ---------------------------------------------------------------------------


def _unit_means(model: LevyModel):
    """The unit means a model's mean adds up: each component of a sum on its own."""
    if isinstance(model, SumModel):
        for component in model.components:
            yield from _unit_means(component)
    else:
        yield model.mean(1.0)


def mean_criterion(schedule: SemiLevySchedule) -> Verdict:
    """Zero test of the one-period mean; stated for dimension 1 only.

    Uses analytic segment means, never Monte Carlo: the criterion is an exact
    zero test and sampling noise would make equality untestable.  Zero is
    relative, |mean| <= MEAN_ZERO_TOL * sum_k d_k |mean_k| over the terms the
    mean adds up, so rounding is no drift and scaling every drift keeps the
    decision.  An infinite mean yields Inconclusive, since recurrence then
    cannot be read off the mean at all; an overflowing one is an error.
    """
    if schedule.dim != 1:
        raise DimensionMismatch("the mean criterion is stated for dimension 1")
    mu = period_mean(schedule)
    if mu is None:
        return Verdict(Decision.INCONCLUSIVE, Criterion.MEAN_CRITERION, {"reason": "E[|X_p|] possibly infinite"})
    check_finite(mu, "the one-period mean")
    # the tolerance multiplies first, so that large finite terms cannot overflow the bound
    bound = sum(d * (MEAN_ZERO_TOL * abs(float(m[0]))) for d, model in schedule.segments for m in _unit_means(model))
    value = float(mu[0])
    decision = Decision.RECURRENT if abs(value) <= bound else Decision.TRANSIENT
    return Verdict(decision, Criterion.MEAN_CRITERION, {"period_mean": value})


# ---------------------------------------------------------------------------
# empirical occupation diagnostic
# ---------------------------------------------------------------------------

FLAG_RECURRENT = "growth-consistent-with-recurrence"
FLAG_TRANSIENT = "saturation-consistent-with-transience"
# whole paths are held a block at a time, each reduced to occupations at once;
# the size check counts max(this, pool workers) of them, at most n_paths
DIAGNOSTIC_HELD_PATHS = 16
# fewest paths and horizons the diagnostic accepts: growth is read off the last pair
DIAGNOSTIC_MIN_PATHS = 50
DIAGNOSTIC_MIN_HORIZONS = 2


@dataclass(frozen=True)
class OccupationReport:
    """Occupation-time growth of the ball B_a across horizons and paths: each
    path's occupation time at each horizon, and their mean per horizon.

    A Monte Carlo diagnostic, never a proof: the flag only records whether
    the observed growth pattern is consistent with one alternative.
    """

    a: float
    step: float
    horizons: np.ndarray
    occupations: np.ndarray  # (n_paths, n_horizons)
    mean: np.ndarray
    flag: Optional[str]


def empirical_diagnostic(
    schedule: SemiLevySchedule,
    a: float,
    horizons: Sequence[float],
    n_paths: int,
    seed: int,
    step: float = 0.1,
) -> OccupationReport:
    """Occupation times of B_a per horizon over a path ensemble.

    Path i is sample_path with split_seed(seed, i).  One ensemble draws all
    the paths, and each of its blocks reduces its own paths to their
    occupations at the horizons, so whole paths are held a block at a time.
    Growth of the mean occupation by at least 20% over the last pair of
    horizons is flagged as consistent with recurrence, growth under 2% as
    consistent with transience; anything between stays unflagged.  Each
    horizon is read at the last grid point at or before it, so horizons
    should be large relative to the step.
    """
    horizons = check_increasing(horizons, "horizons", least=DIAGNOSTIC_MIN_HORIZONS)
    check_counts(least=DIAGNOSTIC_MIN_PATHS, n_paths=n_paths)
    check_positive(a=a)

    check_size(paths=n_paths, horizons=horizons.size)
    held = min(n_paths, max(DIAGNOSTIC_HELD_PATHS, _pool_workers(n_paths)))
    grid = _grid_times(float(horizons[-1]), step, held, schedule.dim)
    dt = np.diff(grid)
    idx = np.clip(np.searchsorted(grid, horizons * (1.0 + 1e-12), side="right") - 1, 0, None)
    seeds = split_seeds(seed, range(n_paths))
    occ = _ensemble(schedule, _grid_occupancy(schedule, grid), seeds, lambda v: _occupation(v, dt, a)[:, idx])

    mean = occ.mean(axis=0)
    growth = mean[-1] / max(mean[-2], 1e-300)
    if growth >= 1.20:
        flag = FLAG_RECURRENT
    elif growth < 1.02:
        flag = FLAG_TRANSIENT
    else:
        flag = None
    return OccupationReport(
        a=float(a),
        step=float(step),
        horizons=horizons,
        occupations=occ,
        mean=mean,
        flag=flag,
    )


def empirical_verdict(report: OccupationReport) -> Verdict:
    """Wrap a diagnostic report as a Verdict; always Inconclusive by design."""
    evidence = {
        "reason": "occupation growth is a diagnostic, not a proof",
        "a": report.a,
        "step": report.step,
        "horizons": report.horizons,
        "mean_occupation": report.mean,
        "flag": report.flag or "none",
    }
    return Verdict(Decision.INCONCLUSIVE, Criterion.EMPIRICAL, evidence)
