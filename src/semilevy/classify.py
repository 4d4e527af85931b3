"""Recurrence / transience classification of periodic Levy schedules.

Two analytic routes and one empirical diagnostic:

* The Chung-Fuchs integral I(q) of the one-period increment law,
  I(q) = integral over the ball B_a of Re(1 / (q - psi(z))) dz.  Recurrence
  is equivalent to I(q) diverging as q decreases to 0; any finite procedure
  can only fit the divergence, so the verdict states its evidence and admits
  an honest Inconclusive.  psi does not depend on q: a verdict evaluates it
  once, on composite Gauss-Kronrod boxes in dimensions 1-2 (intervals in
  dimension 1, tensor-product boxes over radius and angle in dimension 2) or
  on scrambled-Sobol nodes in dimension 3 and up, and reads every q off the
  same values.
* The one-dimensional mean criterion: with a finite one-period mean, the
  process is recurrent exactly when that mean vanishes.  The drift test is
  the same zero test applied to a plain Levy model.
* Occupation-time growth across horizons, a Monte Carlo diagnostic that
  corroborates the analytic verdicts but never proves either alternative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .models import DimensionMismatch, LevyModel
from .schedule import (
    SemiLevySchedule,
    _block_members,
    _check_values,
    _ensemble,
    _grid_occupancy,
    _grid_times,
    period_exponent,
    period_mean,
)
from .skeleton import _occupation
from .util import format_float, split_seeds

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
    "drift_test",
    "empirical_diagnostic",
    "empirical_verdict",
]

# relative tolerance demanded of deterministic quadrature (d <= 2)
QUAD_REL_TOL = 1e-6
# composite Gauss-Kronrod boxes are refined until the summed error estimate
# is below this fraction of every ladder level
PANEL_REL_TOL = 1e-9
# refinement budget per ladder, in place of an unbounded bisection: boxes
# (G10/K21 panels in d = 1, their tensor squares over (r, theta) in d = 2),
# and psi points
MAX_PANELS = 2000
PSI_POINT_BUDGET = 2**24
# psi is evaluated on at most this many points per period_exponent call
PSI_CHUNK = 2**16
# analytic zero test for means computed in closed form
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
# QMC verdicts require the ladder signal to exceed 5x the integration noise
QMC_SIGNAL_FACTOR = 5.0


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the required relative tolerance."""


class Decision(Enum):
    RECURRENT = "Recurrent"
    TRANSIENT = "Transient"
    INCONCLUSIVE = "Inconclusive"


class Criterion(Enum):
    CHUNG_FUCHS = "ChungFuchs"
    MEAN_CRITERION = "MeanCriterion"
    DRIFT_TEST = "DriftTest"
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

    def to_line(self) -> str:
        """One diffable line: decision=... criterion=... key=value ... (keys sorted)."""
        parts = [f"decision={self.decision.value}", f"criterion={self.criterion.value}"]
        for key in sorted(self.evidence):
            parts.append(f"{key}={_render_value(self.evidence[key])}")
        return " ".join(parts)


def _render_value(v) -> str:
    if isinstance(v, str):
        return v.replace(" ", "_")
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if isinstance(v, (tuple, list, np.ndarray)):
        return ",".join(format_float(float(x)) for x in np.asarray(v).ravel())
    return str(v)


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


def _origin_ladder(a: float) -> np.ndarray:
    # geometric breakpoints accumulating at 0: the integrand peak at the
    # origin can be as narrow as O(q), far below what adaptive subdivision
    # finds on its own, so every decade down to machine scale gets a panel
    return a * 10.0 ** (-np.arange(1, 17, dtype=float))


# QUADPACK qk21 (Piessens et al. 1983) on [-1, 1], listed from the node
# 0.9956... down to 0: the 21-point Kronrod nodes and weights, and the
# 10-point Gauss weights, which sit on every other node.  Mirroring gives the
# whole rule with its nodes ascending.
_XGK = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122, 0.0,
])
_WGK = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849, 0.1494455540029169,
])
_WG = np.array([
    0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0, 0.21908636251598204,
    0.0, 0.26926671930999635, 0.0, 0.29552422471475287, 0.0,
])
_GK_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_GK_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GK_GAUSS = np.concatenate([_WG, _WG[-2::-1]])


class _Psi:
    """psi of one schedule on demand, in bounded chunks, counted against the budget."""

    def __init__(self, schedule: SemiLevySchedule, qs: np.ndarray):
        self.schedule, self.qs, self.points = schedule, qs, 0

    def affords(self, n: int) -> bool:
        return self.points + n <= PSI_POINT_BUDGET

    def integrand(self, z: np.ndarray) -> np.ndarray:
        """_cf_integrand(psi(z), q) at every level q, shape (levels, len(z))."""
        self.points += len(z)
        out = np.empty((self.qs.size, len(z)))
        for i in range(0, len(z), PSI_CHUNK):
            psi = period_exponent(self.schedule, z[i : i + PSI_CHUNK])
            for level, q in enumerate(self.qs):
                out[level, i : i + PSI_CHUNK] = _cf_integrand(psi, float(q))
        return out

    def polar(self, x: np.ndarray) -> np.ndarray:
        """r times the integrand at z = r (cos theta, sin theta), for the (r, theta) rows of x."""
        r, theta = x[:, 0], x[:, 1]
        return r * self.integrand(r[:, None] * np.column_stack([np.cos(theta), np.sin(theta)]))


def _qk21(fx: np.ndarray, half: np.ndarray):
    # QUADPACK qk21 along the last axis of fx: the K21 value and its error estimate
    resk = fx @ _GK_KRONROD
    err = np.abs(resk - fx @ _GK_GAUSS) * half
    resasc = np.abs(fx - 0.5 * resk[..., None]) @ _GK_KRONROD * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (err > 0.0), scaled, err)
    err = np.maximum(50.0 * np.finfo(float).eps * (np.abs(fx) @ _GK_KRONROD) * half, err)
    return resk * half, err


def _gk_panels(f, lo: np.ndarray, hi: np.ndarray):
    # K21 x K21 value of every level on each box [lo, hi], shape (n, D) with
    # D = 1 or 2, and per axis the qk21 error of the K21 sum over the other
    # axis; f sees the boxes in groups of at most PSI_CHUNK nodes
    n, dim = lo.shape
    grid = _GK_NODES[np.indices((_GK_NODES.size,) * dim).reshape(dim, -1).T]
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    step = max(1, PSI_CHUNK // len(grid))
    values, errs = [], []
    for i in range(0, n, step):
        c, h = center[i : i + step], half[i : i + step]
        nodes = (c[:, None] + h[:, None] * grid).reshape(-1, dim)
        fx = f(nodes).reshape(-1, len(c), *(_GK_NODES.size,) * dim)
        if dim == 2:
            along = [fx @ _GK_KRONROD * h[:, 1, None], np.swapaxes(fx, 2, 3) @ _GK_KRONROD * h[:, 0, None]]
        else:
            along = [fx]
        parts = [_qk21(g, h[:, axis]) for axis, g in enumerate(along)]
        values.append(parts[0][0])
        errs.append(np.stack([err for _, err in parts], axis=-1))
    return np.concatenate(values, axis=1), np.concatenate(errs, axis=1)


def _gk_ladder(f, psi: _Psi, lo: np.ndarray, hi: np.ndarray):
    """Tensor G10/K21 integral of every level of f over the boxes [lo, hi], shape (n, D).

    Boxes are halved, all levels at once, along their axis of largest error
    where their error estimate exceeds an equal share of PANEL_REL_TOL, until
    the summed estimate meets it at every level or a budget runs out.
    """
    value, err = _gk_panels(f, lo, hi)
    while True:
        total = np.maximum(np.abs(value.sum(axis=1)), 1e-300)
        box_err = err.sum(axis=2)
        if np.all(box_err.sum(axis=1) <= PANEL_REL_TOL * total):
            break
        bad = np.max(box_err / total[:, None], axis=0) > PANEL_REL_TOL / len(lo)
        n_bad = int(bad.sum())  # zero only when an estimate is NaN
        cost = 2 * n_bad * _GK_NODES.size ** lo.shape[1]
        if not 0 < n_bad <= MAX_PANELS - len(lo) or not psi.affords(cost):
            break
        axis = np.argmax(np.max(err[:, bad] / total[:, None, None], axis=0), axis=1)
        split = np.arange(lo.shape[1]) == axis[:, None]
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], np.where(split, mid, lo[bad])])
        new_hi = np.concatenate([np.where(split, mid, hi[bad]), hi[bad]])
        parts = zip((value, err), _gk_panels(f, new_lo, new_hi))
        value, err = (np.concatenate([old[:, ~bad], new], axis=1) for old, new in parts)
        lo, hi = np.concatenate([lo[~bad], new_lo]), np.concatenate([hi[~bad], new_hi])
    return value.sum(axis=1), box_err.sum(axis=1)


def _ball_volume(dim: int, a: float) -> float:
    # scipy.special and scipy.stats are imported where d >= 3 needs them:
    # they take most of a cold start, which every command would pay
    from scipy.special import gammaln

    return math.exp(0.5 * dim * math.log(math.pi) - gammaln(0.5 * dim + 1.0)) * a**dim


def _ball_points(dim: int, a: float, n_log2: int, seed: int) -> np.ndarray:
    """Scrambled-Sobol points mapped uniformly onto the ball of radius a.

    The first dim coordinates become a direction through the inverse normal
    map; the last coordinate becomes the radius through the power map, which
    is the exact radial CDF inverse for the uniform ball law.
    """
    from scipy.special import ndtri
    from scipy.stats import qmc

    sob = qmc.Sobol(d=dim + 1, scramble=True, seed=seed)
    u = sob.random_base2(m=n_log2)
    g = ndtri(np.clip(u[:, :dim], 1e-15, 1.0 - 1e-15))
    norms = np.maximum(np.linalg.norm(g, axis=1), 1e-300)
    radius = a * u[:, dim] ** (1.0 / dim)
    return (radius / norms)[:, None] * g


def _qmc_ladder(schedule: SemiLevySchedule, a: float, qs, seed: int, n_log2=16, replicates=16):
    # one psi batch per scrambled Sobol stream, shared by every level; each
    # stream estimates I(q) as the ball volume times its mean integrand
    vol = _ball_volume(schedule.dim, a)
    batches = [
        period_exponent(schedule, _ball_points(schedule.dim, a, n_log2, stream))
        for stream in split_seeds(seed, range(replicates))
    ]
    values, stderrs = np.empty(len(qs)), np.empty(len(qs))
    for level, q in enumerate(qs):
        estimates = np.array([vol * float(np.mean(_cf_integrand(psi, float(q)))) for psi in batches])
        values[level] = estimates.mean()
        stderrs[level] = estimates.std(ddof=1) / math.sqrt(replicates)
    return values, stderrs, replicates << n_log2


def _ladder(schedule: SemiLevySchedule, a: float, qs, seed: int):
    """I(q) over B_a at every q, the error of each value, and the work done.

    psi does not depend on q, so it is evaluated once on a fixed node set and
    every level is a weighted sum of _cf_integrand(psi, q) over it: composite
    G10/K21 panels on the _origin_ladder breakpoints in d = 1, tensor
    G10/K21 boxes over (r, theta) in d = 2, each radial panel on the same
    breakpoints starting as one box over the whole turn (absolute error
    estimates in both), scrambled-Sobol batches in d >= 3 (standard errors).
    I(q) is finite and positive for every Levy exponent, so any other value
    raises QuadratureError, as does, in d <= 2, an error above QUAD_REL_TOL
    of the value.
    """
    qs = np.asarray(qs, dtype=float)
    dim = schedule.dim
    if dim >= 3:
        values, errors, points = _qmc_ladder(schedule, a, qs, seed)
    else:
        psi, ladder = _Psi(schedule, qs), _origin_ladder(a)
        if dim == 1:
            breaks = np.concatenate([[-a], -ladder, [0.0], ladder[::-1], [a]])
            values, errors = _gk_ladder(psi.integrand, psi, breaks[:-1, None], breaks[1:, None])
        else:
            radii = np.concatenate([[0.0], ladder[::-1], [a]])
            lo = np.column_stack([radii[:-1], np.zeros(radii.size - 1)])
            hi = np.column_stack([radii[1:], np.full(radii.size - 1, 2.0 * np.pi)])
            values, errors = _gk_ladder(psi.polar, psi, lo, hi)
        points = psi.points
    for q, value, error in zip(qs, values, errors):
        if not (np.isfinite(value) and value > 0.0):
            raise QuadratureError(f"{dim}-d Chung-Fuchs integral is {value!r} at q={q:g}, a={a:g}")
        if dim <= 2 and not error <= QUAD_REL_TOL * value:
            raise QuadratureError(
                f"{dim}-d quadrature error {error:g} exceeds relative tolerance {QUAD_REL_TOL:g} "
                f"at q={q:g}, a={a:g}"
            )
    return values, errors, {"psi_points": int(points)}


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def ball_integral_qmc(
    schedule: SemiLevySchedule,
    a: float,
    q: float,
    seed: int = 0,
    n_log2: int = 16,
    replicates: int = 16,
) -> tuple[float, float]:
    """Quasi-Monte Carlo value of the Chung-Fuchs integral with its standard error.

    Uses `replicates` independently scrambled Sobol streams of 2**n_log2 nodes
    each (the defaults give 2**20 > 1e6 nodes); the standard error is the
    spread of the per-stream estimates.
    """
    _check_positive(a=a, q=q)
    if replicates < 2:
        raise ValueError(f"replicates must be at least 2 for a standard error, got {replicates}")
    _check_values(replicates, 2**n_log2, schedule.dim + 1)
    values, stderrs, _ = _qmc_ladder(schedule, a, [q], seed, n_log2, replicates)
    return float(values[0]), float(stderrs[0])


def chung_fuchs_integral(
    schedule: SemiLevySchedule, a: float, q: float, seed: int = 0
) -> float:
    """I(q) = integral over B_a of Re(1/(q - psi(z))) dz for the one-period law.

    Deterministic composite Gauss-Kronrod quadrature for dimensions 1 and 2
    (relative tolerance 1e-6, raising QuadratureError rather than returning a
    silently wrong value); quasi-Monte Carlo over the ball for dimension >= 3,
    with the standard error available through ball_integral_qmc.
    """
    _check_positive(a=a, q=q)
    values, _, _ = _ladder(schedule, a, [q], seed)
    return float(values[0])


# ---------------------------------------------------------------------------
# verdict from the q-ladder
# ---------------------------------------------------------------------------


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and R^2 of y against x."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot <= 0.0:
        return float(slope), 0.0
    return float(slope), 1.0 - float(np.sum(resid**2)) / ss_tot


def _check_levels(levels: int) -> None:
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
    fit diagnostics attached.  For dimension >= 3 the ladder must move by
    more than 5x the integration standard error before any verdict is issued.
    """
    _check_levels(levels)
    _check_positive(a=a, q0=q0)

    qs = q0 * Q_RATIO ** (-np.arange(levels, dtype=float))
    values, errors, work = _ladder(schedule, a, qs, seed)
    evidence: dict = {
        "a": a,
        "q0": q0,
        "levels": levels,
        "qs": qs,
        "integrals": values,
        "psi_points": work["psi_points"],
    }
    if schedule.dim <= 2:
        evidence["quad_rel_err"] = float(np.max(errors / values))
    else:
        evidence["stderrs"] = errors

    last = float(values[-1])
    scale = max(abs(last), 1e-300)

    # noise guard for stochastic integration: a ladder that moved less than
    # the noise floor supports no classification at all
    if schedule.dim >= 3:
        noise_floor = QMC_SIGNAL_FACTOR * float(errors.max())
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
    _check_levels(levels)
    return [
        (float(a), chung_fuchs_verdict(schedule, a=float(a), q0=q0, levels=levels, seed=seed))
        for a in a_values
    ]


# ---------------------------------------------------------------------------
# mean criterion and drift test (dimension 1)
# ---------------------------------------------------------------------------


def mean_criterion(schedule: SemiLevySchedule) -> Verdict:
    """Zero test of the one-period mean; stated for dimension 1 only.

    Uses analytic segment means, never Monte Carlo: the criterion is an exact
    zero test and sampling noise would make equality untestable.  An infinite
    mean yields Inconclusive, since recurrence then cannot be read off the
    mean at all.
    """
    if schedule.dim != 1:
        raise DimensionMismatch("the mean criterion is stated for dimension 1")
    mu = period_mean(schedule)
    if mu is None:
        return Verdict(
            Decision.INCONCLUSIVE,
            Criterion.MEAN_CRITERION,
            {"reason": "E[|X_p|] possibly infinite"},
        )
    value = float(mu[0])
    decision = Decision.RECURRENT if abs(value) <= MEAN_ZERO_TOL else Decision.TRANSIENT
    return Verdict(decision, Criterion.MEAN_CRITERION, {"period_mean": value})


def drift_test(model: LevyModel) -> Verdict:
    """Recurrent iff E[L_1] = 0, for one-dimensional models with a finite mean."""
    if model.dim != 1:
        raise DimensionMismatch("the drift test is stated for dimension 1")
    mu = model.mean(1.0)
    if mu is None:
        return Verdict(
            Decision.INCONCLUSIVE,
            Criterion.DRIFT_TEST,
            {"reason": "E[|L_1|] possibly infinite"},
        )
    value = float(mu[0])
    decision = Decision.RECURRENT if abs(value) <= MEAN_ZERO_TOL else Decision.TRANSIENT
    return Verdict(decision, Criterion.DRIFT_TEST, {"unit_mean": value})


# ---------------------------------------------------------------------------
# empirical occupation diagnostic
# ---------------------------------------------------------------------------

FLAG_RECURRENT = "growth-consistent-with-recurrence"
FLAG_TRANSIENT = "saturation-consistent-with-transience"
# fewest paths drawn and reduced at a time by empirical_diagnostic
DIAGNOSTIC_CHUNK = 16


@dataclass(frozen=True)
class OccupationReport:
    """Occupation-time growth of the ball B_a across horizons and paths.

    A Monte Carlo diagnostic, never a proof: the flag only records whether
    the observed growth pattern is consistent with one alternative.
    """

    a: float
    step: float
    horizons: np.ndarray
    occupations: np.ndarray  # (n_paths, n_horizons)
    mean: np.ndarray
    q10: np.ndarray
    q50: np.ndarray
    q90: np.ndarray
    flag: Optional[str]
    seed: int

    @property
    def n_paths(self) -> int:
        return self.occupations.shape[0]

    def final_occupations(self) -> np.ndarray:
        return self.occupations[:, -1]


def empirical_diagnostic(
    schedule: SemiLevySchedule,
    a: float,
    horizons: Sequence[float],
    n_paths: int,
    seed: int,
    step: float = 0.1,
) -> OccupationReport:
    """Occupation times of B_a per horizon over a path ensemble.

    Path i is sample_path with split_seed(seed, i), drawn in chunks of at
    least DIAGNOSTIC_CHUNK paths (more for short paths: as many as one block
    of the ensemble sampler holds), so only one chunk is held at a time.
    Growth of the mean occupation by at least 20% over the last pair of
    horizons is flagged as consistent with recurrence, growth under 2% as
    consistent with transience; anything between stays unflagged.  Horizons
    are read at the nearest grid point, so they should be large relative to
    the step.
    """
    horizons = np.asarray(horizons, dtype=float)
    if horizons.ndim != 1 or horizons.size < 2:
        raise ValueError("need at least two horizons")
    if np.any(np.diff(horizons) <= 0) or horizons[0] <= 0:
        raise ValueError("horizons must be positive and increasing")
    if n_paths < 50:
        raise ValueError("need at least 50 paths for the diagnostic")

    _check_values(n_paths, horizons.size)
    grid = _grid_times(float(horizons[-1]), step, min(n_paths, DIAGNOSTIC_CHUNK), schedule.dim)
    occupancy = _grid_occupancy(schedule, grid)
    dt = np.diff(grid)
    idx = np.clip(np.searchsorted(grid, horizons * (1.0 + 1e-12), side="right") - 1, 0, None)
    # at least one block of the ensemble sampler, so short paths are finished together
    chunk = max(DIAGNOSTIC_CHUNK, _block_members(dt.size * schedule.dim))

    occ = np.empty((n_paths, horizons.size))
    for lo in range(0, n_paths, chunk):
        seeds = split_seeds(seed, range(lo, min(lo + chunk, n_paths)))
        occ[lo : lo + len(seeds)] = _occupation(_ensemble(schedule, occupancy, seeds), dt, a)[:, idx]

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
        q10=np.quantile(occ, 0.1, axis=0),
        q50=np.quantile(occ, 0.5, axis=0),
        q90=np.quantile(occ, 0.9, axis=0),
        flag=flag,
        seed=int(seed),
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
