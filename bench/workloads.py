"""Workloads of the semilevy benchmark: the CLI runs fed to `semilevy.cli.main`.

Every op is one `semilevy <command> --config FILE --out DIR` run.  Config
text is generated from the benchmark seed: each op's config `seed` is derived
from the benchmark seed and the op name, and the program sees only the text.
Configs never set `threads`, so every pool runs at the CLI default
(`os.cpu_count()`), and the configs stay valid if that key is removed.

Sizes are plain data on each op (`Op.sizes`) and are printed with every
result, so each ratio reported from a run has its base.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Seg:
    """One segment kind of the config grammar, with its per-unit-time moments.

    `mean` and `var` are the closed-form mean and variance of one unit of
    time in dimension 1, or None when infinite (or not needed, in d >= 2).
    """

    text: str
    mean: Optional[float]
    var: Optional[float]


def brownian(drift, var, dim: int = 1) -> Seg:
    vec = ",".join([str(drift)] + ["0"] * (dim - 1))
    return Seg(f"brownian drift={vec} var={var}", drift if dim == 1 else None, var if dim == 1 else None)


def stable(alpha, scale, dim: int = 1) -> Seg:
    mean = 0.0 if alpha > 1 and dim == 1 else None
    return Seg(f"stable alpha={alpha} scale={scale} dim={dim}", mean, None)


def point_poisson(rate, x) -> Seg:
    return Seg(f"cpoisson rate={rate} jump=point jump_x={x}", rate * x, rate * x * x)


def gauss_poisson(rate, mean, var) -> Seg:
    return Seg(
        f"cpoisson rate={rate} jump=gauss jump_mean={mean} jump_var={var}",
        rate * mean,
        rate * (var + mean * mean),
    )


def uniform_poisson(rate, lo, hi) -> Seg:
    second = (hi**3 - lo**3) / (3.0 * (hi - lo))
    return Seg(f"cpoisson rate={rate} jump=uniform jump_lo={lo} jump_hi={hi}", rate * (lo + hi) / 2.0, rate * second)


def laplace_poisson(rate, loc, scale) -> Seg:
    return Seg(
        f"cpoisson rate={rate} jump=laplace jump_loc={loc} jump_scale={scale}",
        rate * loc,
        rate * (2.0 * scale * scale + loc * loc),
    )


def drift(gamma) -> Seg:
    return Seg(f"drift gamma={gamma}", gamma, 0.0)


@dataclass(frozen=True)
class Schedule:
    pieces: tuple  # ((duration, Seg), ...)

    @property
    def period(self) -> float:
        return sum(d for d, _ in self.pieces)

    def text(self) -> str:
        lines = [f"period = {self.period!r}"]
        lines += [f"segment = {d!r} {seg.text}" for d, seg in self.pieces]
        return "\n".join(lines)

    def period_moments(self) -> tuple[Optional[float], Optional[float]]:
        """Closed-form mean and variance of one period's increment (d = 1)."""
        means = [seg.mean for _, seg in self.pieces]
        variances = [seg.var for _, seg in self.pieces]
        mean = None if None in means else sum(d * m for (d, _), m in zip(self.pieces, means))
        var = None if None in variances else sum(d * v for (d, _), v in zip(self.pieces, variances))
        return mean, var


def sched(*pieces) -> Schedule:
    return Schedule(tuple(pieces))


@dataclass(frozen=True)
class Op:
    """One CLI run and what its outputs must show.

    `expect` holds the analytic answer the output is checked against:
    `decision` for Chung-Fuchs verdicts, `flag`/`wlln_flag` for LLN runs.
    `known_wrong` marks verdicts the classifier is known to get wrong today
    (slowly converging ladders taken for log growth); they still count as
    failed ops.
    """

    name: str
    command: str
    schedule: Schedule
    run: dict
    sizes: dict
    expect: dict = field(default_factory=dict)
    known_wrong: bool = False

    def config_seed(self, bench_seed: int) -> int:
        digest = hashlib.sha256(f"{bench_seed}/{self.name}".encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def config_text(self, bench_seed: int) -> str:
        keys = [f"{k} = {v}" for k, v in self.run.items()]
        return (
            f"[schedule]\n{self.schedule.text()}\n\n[run]\n"
            f"seed = {self.config_seed(bench_seed)}\n" + "\n".join(keys) + "\n"
        )


def _verdict(name, schedule, decision, sweep=False, known_wrong=False) -> Op:
    run = {"criterion": "chung-fuchs"}
    if sweep:
        run["sweep"] = "true"
    return Op(
        name,
        "classify",
        schedule,
        run,
        sizes={"verdicts": 4 if sweep else 1},
        expect={"decision": decision},
        known_wrong=known_wrong,
    )


def _simulate(name, schedule, cells_per_period, periods, n_paths) -> Op:
    step = schedule.period / cells_per_period
    return Op(
        name,
        "simulate",
        schedule,
        {"horizon": repr(step * cells_per_period * periods), "step": repr(step), "n_paths": n_paths},
        sizes={"paths": n_paths, "cells": cells_per_period * periods},
        expect={"cells_per_period": cells_per_period},
    )


def _skeleton(name, schedule, n_walks, n_steps) -> Op:
    return Op(
        name,
        "skeleton",
        schedule,
        {"rs": "1/2", "n_steps": n_steps, "n_walks": n_walks, "a": 1.0},
        sizes={"walks": n_walks, "steps": n_steps},
    )


def _lln(name, schedule, horizons, n_paths, t_grid, n_samples, flag, wlln_flag) -> Op:
    return Op(
        name,
        "lln",
        schedule,
        {
            "horizons": ",".join(repr(float(h)) for h in horizons),
            "n_paths": n_paths,
            "t_grid": ",".join(repr(float(t)) for t in t_grid),
            "n_samples": n_samples,
        },
        sizes={"paths": n_paths, "horizons": len(horizons), "samples": n_samples},
        expect={"flag": flag, "wlln_flag": wlln_flag},
    )


def _empirical(name, schedule, n_paths, step, horizons) -> Op:
    return Op(
        name,
        "classify",
        schedule,
        {
            "criterion": "empirical",
            "a": 1.0,
            "horizons": ",".join(repr(float(h)) for h in horizons),
            "n_paths": n_paths,
            "step": repr(step),
        },
        sizes={"paths": n_paths, "cells": round(horizons[-1] / step)},
    )


BM2 = sched((1.0, brownian(0, 1, dim=2)))
CAUCHY = sched((1.0, stable(1, 1)))
# three kinds in one period; finite mean, infinite variance
THREE = sched((1.0, brownian(0.1, 1)), (1.0, stable(1.5, 0.5)), (1.0, uniform_poisson(2, -1, 1)))
# brownian, point-jump Poisson and drift; finite variance, so moments are checked
SIM = sched((0.5, brownian(0.2, 1)), (0.25, point_poisson(1, 0.5)), (0.25, drift(-0.4)))
# brownian plus Gaussian-jump Poisson; light tails, so the strong and weak laws hold
BM_CP = sched((1.0, brownian(0.5, 1)), (1.0, gauss_poisson(2, -0.25, 0.5)))
# stable index below 1 with drift and Laplace jumps; infinite mean, so LLN diverges
HEAVY = sched((1.0, stable(0.8, 1)), (0.5, drift(0.3)), (0.5, laplace_poisson(1, 0, 1)))

# classify-ladder: Chung-Fuchs verdicts with known analytic answers.
# Why: the psi evaluation and quadrature layers do nearly all the work here
# and the samplers and CSV writing almost none.  The d=3 QMC runs use classify
# differently from d<=2, so a d<=2 quadrature change shows beside an
# unchanged QMC cost.  The three `known_wrong` configs are the known
# mis-verdicts (1-d splice with mean 1e-3, 1-d stable alpha=0.95, 2-d stable
# alpha=1.9) and stay in the mix.  Every workload must report every
# end-to-end metric, so three sets of simulate, skeleton and lln side runs
# sit among the verdicts, together near a third of a pass.  A run holds only
# a few passes; three smaller copies spread over the pass give each side
# metric three times as many samples as one large op would.  They use few
# long streams: short streams on the thread pool swing more.
def _side_ops(tag: str) -> tuple:
    return (
        _simulate(f"side_simulate_{tag}", SIM, cells_per_period=8, periods=8_000, n_paths=2),
        _skeleton(f"side_skeleton_{tag}", THREE, n_walks=4, n_steps=100_000),
        _lln(
            f"side_lln_{tag}",
            BM_CP,
            (10, 40, 160, 640, 2560),
            70,
            (1, 4, 16, 64),
            700_000,
            "slln-consistent",
            "tail-vanishes",
        ),
    )


CLASSIFY_LADDER = (
    _verdict("bm1", sched((1.0, brownian(0, 1))), "Recurrent"),
    _verdict("splice0", sched((1.0, brownian(1, 1)), (2.0, brownian(-0.5, 1))), "Recurrent"),
    _verdict("cauchy1", CAUCHY, "Recurrent"),
    _verdict("stable15_laplace", sched((1.0, stable(1.5, 1)), (1.0, laplace_poisson(2, 0, 0.5))), "Recurrent"),
    _verdict(
        "mix3_mean-0.2",
        sched((1.0, brownian(-0.4, 1)), (1.0, stable(1.5, 0.5)), (1.0, gauss_poisson(1, 0.2, 0.25))),
        "Transient",
    ),
    *_side_ops("a"),
    _verdict(
        "splice_mean1e-3",
        sched((1.0, brownian(1.001, 1)), (2.0, brownian(-0.5, 1))),
        "Transient",
        known_wrong=True,
    ),
    _verdict("stable095", sched((1.0, stable(0.95, 1))), "Transient", known_wrong=True),
    _verdict("bm2", BM2, "Recurrent"),
    _verdict("bm2_drift", sched((1.0, brownian(0.5, 1, dim=2))), "Transient"),
    _verdict("stable19_d2", sched((1.0, stable(1.9, 1, dim=2))), "Transient", known_wrong=True),
    *_side_ops("b"),
    _verdict("bm3", sched((1.0, brownian(0, 1, dim=3))), "Transient"),
    _verdict("stable15_d3", sched((1.0, stable(1.5, 1, dim=3))), "Transient"),
    _verdict("cauchy1_sweep", CAUCHY, "Recurrent", sweep=True),
    _verdict("bm2_sweep", BM2, "Recurrent", sweep=True),
    *_side_ops("c"),
)

# ensemble-short: many short, independent streams.
# Why: the fixed cost per path dominates here (split_seed, Generator
# construction, a Python loop over segments and sample validation), and the
# thread pool runs on tiny tasks.  A single ensemble sampler would act here.
# The op list is three interleaved sets of the same four ops, each taking
# about 0.2 s, so a run holds some thirty samples of each command: many short
# ops outvote the machine's bursts of load better than a few long ones.
# simulate writes one CSV file per path, so with hundreds of short paths its
# time followed the shared disk and swung by a third between runs; here it is
# a side op of two paths, there because every workload reports simulate_s.
def _short_ops(tag: str) -> tuple:
    return (
        _skeleton(f"skeleton_{tag}", THREE, n_walks=500, n_steps=32),
        _lln(
            f"lln_{tag}",
            BM_CP,
            (10, 20, 40, 80, 160, 320),
            150,
            (1, 4, 16, 64),
            10**5,
            "slln-consistent",
            "tail-vanishes",
        ),
        _simulate(f"side_simulate_{tag}", SIM, cells_per_period=8, periods=2500, n_paths=2),
        _empirical(
            f"empirical_{tag}",
            sched((0.5, stable(1.5, 1)), (0.5, brownian(0, 1))),
            n_paths=330,
            step=0.1,
            horizons=(1.6, 3.2),
        ),
    )


ENSEMBLE_SHORT = (*_short_ops("a"), *_short_ops("b"), *_short_ops("c"))

# ensemble-long: few long streams.
# Why: the same sampling layers are used the other way round.  Vectorised
# model kernels, CSV rendering and whole-ensemble memory dominate, and the
# per-path overhead is negligible.  A change that speeds up short ensembles
# and costs long ones shows here.  Streams keep their length of about 1e5
# cells or steps, and the path counts are kept small (lln needs 50), so a
# pass takes about 2 s and a run holds about ten timed passes.
ENSEMBLE_LONG = (
    _simulate("simulate", SIM, cells_per_period=50, periods=2500, n_paths=1),
    _empirical(
        "empirical_d2",
        sched((0.5, brownian(0, 1, dim=2)), (0.5, stable(1.5, 0.5, dim=2))),
        n_paths=50,
        step=0.1,
        horizons=(2500, 5000, 10_000),
    ),
    _skeleton("skeleton", THREE, n_walks=5, n_steps=100_000),
    _lln(
        "lln",
        HEAVY,
        (10, 100, 1000, 10**4, 10**5),
        50,
        (1, 10, 100, 1000),
        5 * 10**5,
        "divergence-consistent",
        "tail-persists",
    ),
)

WORKLOADS = {
    "classify-ladder": CLASSIFY_LADDER,
    "ensemble-short": ENSEMBLE_SHORT,
    "ensemble-long": ENSEMBLE_LONG,
}


def write_configs(workload: str, bench_seed: int, directory: Path) -> list[tuple[Op, Path]]:
    """Write one config file per op of the workload; return (op, path) pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    pairs = []
    for op in WORKLOADS[workload]:
        path = directory / f"{op.name}.cfg"
        path.write_text(op.config_text(bench_seed))
        pairs.append((op, path))
    return pairs
