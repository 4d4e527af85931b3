"""Batch front end: plain-text configs in, CSV files and verdict reports out.

Usage::

    semilevy simulate|classify|skeleton|lln --config FILE --out DIR

Configuration grammar (one ``key = value`` per line, ``#`` starts a comment)::

    [schedule]
    period = 3.0
    segment = 1.0 brownian drift=1.0 var=1.0
    segment = 2.0 brownian drift=-0.5 var=1.0

    [run]
    command = classify
    seed = 42

Model kinds for ``segment = <duration> <kind> key=value...``:

* ``brownian``: ``drift=<vector>`` plus ``var=<scalar or diagonal>`` or
  ``cov=<matrix>`` (rows separated by ``;``, entries by ``,``).
* ``stable``:   ``alpha=<float> scale=<float>`` and optional ``dim=<int>``.
* ``cpoisson``: ``rate=<float> jump=point|uniform|gauss|laplace`` with jump
  parameters ``jump_x`` / ``jump_lo jump_hi`` / ``jump_mean jump_cov`` (or
  ``jump_var``) / ``jump_loc jump_scale``.
* ``drift``:    ``gamma=<vector>``.

Run keys: ``command`` (or given as the CLI subcommand), ``seed`` (required,
never defaulted from system entropy), ``out``, and per command:
``horizon step n_paths`` (simulate), ``criterion a q0 levels sweep`` plus
optional ``horizons n_paths step`` for the occupation diagnostic (classify),
``rs n_steps n_walks a`` (skeleton), ``horizons n_paths t_grid n_samples``
(lln).  Identical config text and seed give byte-identical outputs; side
activities (occupation diagnostic, weak-law estimates) draw from the derived
stream split_seed(seed, 1) so they never share a stream with the main
command.  Parallelism is automatic: long paths and walks are drawn on a
thread pool sized from the stream length and the CPU count, and every
output is the same whatever the pool size.

Exit codes: 0 success (an Inconclusive verdict is a success), 1 usage or
parse failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .classify import (
    QuadratureError,
    chung_fuchs_verdict,
    drift_test,
    empirical_diagnostic,
    empirical_verdict,
    mean_criterion,
    radius_sweep,
)
from .lln import divergence_check, slln_check, wlln_conditions
from .models import (
    BrownianDrift,
    CompoundPoisson,
    GaussianJump,
    LaplaceJump,
    LevyModel,
    PointMass,
    PureDrift,
    SymmetricStable,
    UniformJump,
)
from .schedule import SemiLevySchedule, equivalent_levy_model, period_mean, sample_paths
from .skeleton import RationalStep, ball_visit_curve, occupations_csv, sample_walks
from .util import format_float, split_seed

__all__ = ["ConfigError", "RunConfig", "parse_config", "render_config", "run", "main"]

COMMANDS = ("simulate", "classify", "skeleton", "lln")
CRITERIA = ("auto", "chung-fuchs", "mean", "drift", "empirical")


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""


@dataclass(frozen=True)
class RunConfig:
    """A parsed, validated run: schedule plus command parameters."""

    schedule: SemiLevySchedule
    command: str
    seed: int
    out: Optional[str] = None
    a: Optional[float] = None
    q0: Optional[float] = None
    levels: Optional[int] = None
    criterion: Optional[str] = None
    sweep: bool = False
    horizon: Optional[float] = None
    step: Optional[float] = None
    n_paths: Optional[int] = None
    n_steps: Optional[int] = None
    n_walks: Optional[int] = None
    rs: Optional[RationalStep] = None
    horizons: Optional[tuple] = None
    t_grid: Optional[tuple] = None
    n_samples: Optional[int] = None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _fail(lineno: Optional[int], message: str):
    prefix = f"line {lineno}: " if lineno is not None else ""
    raise ConfigError(prefix + message)


def _float(s: str, lineno: Optional[int], name: str) -> float:
    try:
        return float(s)
    except ValueError:
        _fail(lineno, f"{name}: expected a number, got {s!r}")


def _int(s: str, lineno: Optional[int], name: str) -> int:
    try:
        return int(s)
    except ValueError:
        _fail(lineno, f"{name}: expected an integer, got {s!r}")


def _vector(s: str, lineno: Optional[int], name: str) -> np.ndarray:
    return np.array([_float(tok, lineno, name) for tok in s.split(",")])


def _matrix(s: str, lineno: Optional[int], name: str) -> np.ndarray:
    rows = [_vector(row, lineno, name) for row in s.split(";")]
    if len({r.shape[0] for r in rows}) != 1:
        _fail(lineno, f"{name}: matrix rows have unequal lengths")
    return np.array(rows)


def _kv_pairs(tokens: list[str], lineno: int) -> dict:
    params = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep or not key or not value:
            _fail(lineno, f"expected key=value, got {tok!r}")
        if key in params:
            _fail(lineno, f"duplicate parameter {key!r}")
        params[key.lower()] = value
    return params


def _pop(params: dict, key: str, lineno: int, kind: str):
    if key not in params:
        _fail(lineno, f"{kind} segment is missing {key!r}")
    return params.pop(key)


def _parse_jump(params: dict, lineno: int):
    jump_kind = _pop(params, "jump", lineno, "cpoisson").lower()
    if jump_kind == "point":
        return PointMass(_vector(_pop(params, "jump_x", lineno, "cpoisson"), lineno, "jump_x"))
    if jump_kind == "uniform":
        lo = _vector(_pop(params, "jump_lo", lineno, "cpoisson"), lineno, "jump_lo")
        hi = _vector(_pop(params, "jump_hi", lineno, "cpoisson"), lineno, "jump_hi")
        return UniformJump(lo, hi)
    if jump_kind == "gauss":
        mu = _vector(_pop(params, "jump_mean", lineno, "cpoisson"), lineno, "jump_mean")
        if "jump_cov" in params:
            cov = _matrix(params.pop("jump_cov"), lineno, "jump_cov")
        elif "jump_var" in params:
            cov = np.diag(np.broadcast_to(_vector(params.pop("jump_var"), lineno, "jump_var"), mu.shape))
        else:
            _fail(lineno, "gauss jump needs jump_cov or jump_var")
        return GaussianJump(mu, cov)
    if jump_kind == "laplace":
        loc = _vector(_pop(params, "jump_loc", lineno, "cpoisson"), lineno, "jump_loc")
        scale = _vector(_pop(params, "jump_scale", lineno, "cpoisson"), lineno, "jump_scale")
        return LaplaceJump(loc, scale)
    _fail(lineno, f"unknown jump kind {jump_kind!r} (point, uniform, gauss, laplace)")


def _parse_segment(lineno: int, text: str) -> tuple[float, LevyModel]:
    tokens = text.split()
    if len(tokens) < 2:
        _fail(lineno, "segment needs '<duration> <kind> [key=value ...]'")
    duration = _float(tokens[0], lineno, "duration")
    if duration <= 0:
        _fail(lineno, "segment duration must be positive")
    kind = tokens[1].lower()
    params = _kv_pairs(tokens[2:], lineno)
    try:
        if kind == "brownian":
            drift = _vector(_pop(params, "drift", lineno, "brownian"), lineno, "drift")
            if "cov" in params:
                cov = _matrix(params.pop("cov"), lineno, "cov")
            elif "var" in params:
                cov = np.diag(np.broadcast_to(_vector(params.pop("var"), lineno, "var"), drift.shape))
            else:
                _fail(lineno, "brownian segment needs cov or var")
            model: LevyModel = BrownianDrift(drift, cov)
        elif kind == "stable":
            alpha = _float(_pop(params, "alpha", lineno, "stable"), lineno, "alpha")
            scale = _float(_pop(params, "scale", lineno, "stable"), lineno, "scale")
            dim = _int(params.pop("dim"), lineno, "dim") if "dim" in params else 1
            model = SymmetricStable(alpha, scale, dim)
        elif kind == "cpoisson":
            rate = _float(_pop(params, "rate", lineno, "cpoisson"), lineno, "rate")
            model = CompoundPoisson(rate, _parse_jump(params, lineno))
        elif kind == "drift":
            model = PureDrift(_vector(_pop(params, "gamma", lineno, "drift"), lineno, "gamma"))
        else:
            _fail(lineno, f"unknown model kind {kind!r} (brownian, stable, cpoisson, drift)")
    except ConfigError:
        raise
    except ValueError as exc:
        _fail(lineno, f"invalid {kind} segment: {exc}")
    if params:
        _fail(lineno, f"unknown {kind} parameters: {', '.join(sorted(params))}")
    return duration, model


def _parse_float_list(s: str, lineno: int, name: str) -> tuple:
    values = tuple(_float(tok, lineno, name) for tok in s.split(","))
    if any(v <= 0 for v in values) or any(b <= a for a, b in zip(values, values[1:])):
        _fail(lineno, f"{name} must be positive and strictly increasing")
    return values


def _parse_rs(s: str, lineno: int) -> RationalStep:
    num, sep, den = s.partition("/")
    if not sep:
        _fail(lineno, "rs must look like n1/n2")
    return RationalStep(_int(num, lineno, "rs"), _int(den, lineno, "rs"))


def _parse_bool(s: str, lineno: int, name: str) -> bool:
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    _fail(lineno, f"{name}: expected true or false, got {s!r}")


def parse_config(text: str, default_command: Optional[str] = None) -> RunConfig:
    """Parse and validate a configuration document.

    Errors carry line numbers; schedule invariant violations (durations not
    tiling the period, dimension mismatches) name the failing constraint.
    `default_command` lets the CLI supply the subcommand when the text has no
    ``command`` key; a conflicting key is an error.
    """
    period: Optional[float] = None
    period_line: Optional[int] = None
    declared_dim: Optional[int] = None
    segments: list = []
    run_raw: dict = {}
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("schedule", "run"):
                _fail(lineno, f"unknown section [{section}] (expected [schedule] or [run])")
            continue
        key, sep, value = line.partition("=")
        if not sep:
            _fail(lineno, "expected 'key = value'")
        key = key.strip().lower()
        value = value.strip()
        if section is None:
            _fail(lineno, "key outside a section; start with [schedule] or [run]")
        if section == "schedule":
            if key == "period":
                if period is not None:
                    _fail(lineno, "duplicate period")
                period = _float(value, lineno, "period")
                period_line = lineno
            elif key == "segment":
                segments.append(_parse_segment(lineno, value))
            elif key == "dim":
                declared_dim = _int(value, lineno, "dim")
            else:
                _fail(lineno, f"unknown schedule key {key!r}")
        else:
            if key in run_raw:
                _fail(lineno, f"duplicate run key {key!r}")
            run_raw[key] = (lineno, value)

    if period is None:
        _fail(None, "schedule section must set period")
    if not segments:
        _fail(None, "schedule section must define at least one segment")
    try:
        schedule = SemiLevySchedule(period=period, segments=tuple(segments))
    except ValueError as exc:
        _fail(period_line, f"invalid schedule: {exc}")
    if declared_dim is not None and declared_dim != schedule.dim:
        _fail(None, f"declared dim {declared_dim} but segments have dimension {schedule.dim}")

    fields: dict = {}

    def take(key):
        return run_raw.pop(key, None)

    item = take("command")
    if item is not None:
        lineno, value = item
        command = value.lower()
        if command not in COMMANDS:
            _fail(lineno, f"unknown command {command!r} (expected one of {', '.join(COMMANDS)})")
        if default_command is not None and command != default_command:
            _fail(lineno, f"config says command={command} but the CLI subcommand is {default_command}")
    elif default_command is not None:
        command = default_command
    else:
        _fail(None, "run section must set command (or pass it as the CLI subcommand)")

    item = take("seed")
    if item is None:
        _fail(None, "run section must set seed (seeds are never defaulted from system entropy)")
    fields["seed"] = _int(item[1], item[0], "seed")

    item = take("out")
    if item is not None:
        fields["out"] = item[1]

    positive_floats = {"a": "a", "q0": "q0", "horizon": "horizon", "step": "step"}
    for key, name in positive_floats.items():
        item = take(key)
        if item is not None:
            val = _float(item[1], item[0], name)
            if val <= 0:
                _fail(item[0], f"{name} must be positive")
            fields[name] = val

    positive_ints = {"levels": 6, "n_paths": 1, "n_steps": 1, "n_walks": 1, "n_samples": 1}
    for key, floor in positive_ints.items():
        item = take(key)
        if item is not None:
            val = _int(item[1], item[0], key)
            if val < floor:
                _fail(item[0], f"{key} must be at least {floor}")
            fields[key] = val

    item = take("criterion")
    if item is not None:
        crit = item[1].lower()
        if crit not in CRITERIA:
            _fail(item[0], f"unknown criterion {crit!r} (expected one of {', '.join(CRITERIA)})")
        fields["criterion"] = crit
    item = take("sweep")
    if item is not None:
        fields["sweep"] = _parse_bool(item[1], item[0], "sweep")
    item = take("rs")
    if item is not None:
        fields["rs"] = _parse_rs(item[1], item[0])
    for key in ("horizons", "t_grid"):
        item = take(key)
        if item is not None:
            fields[key] = _parse_float_list(item[1], item[0], key)

    if run_raw:
        lineno = min(ln for ln, _ in run_raw.values())
        _fail(lineno, f"unknown run keys: {', '.join(sorted(run_raw))}")

    return RunConfig(schedule=schedule, command=command, **fields)


# ---------------------------------------------------------------------------
# rendering (canonical inverse of parse_config)
# ---------------------------------------------------------------------------


def _render_vector(v: np.ndarray) -> str:
    return ",".join(format_float(x) for x in np.atleast_1d(v))


def _render_matrix(m: np.ndarray) -> str:
    return ";".join(_render_vector(row) for row in np.atleast_2d(m))


def _render_segment(duration: float, model: LevyModel) -> str:
    dur = format_float(duration)
    if isinstance(model, BrownianDrift):
        return f"{dur} brownian drift={_render_vector(model.drift)} cov={_render_matrix(model.cov)}"
    if isinstance(model, SymmetricStable):
        return (
            f"{dur} stable alpha={format_float(model.alpha)} "
            f"scale={format_float(model.scale)} dim={model.dim}"
        )
    if isinstance(model, CompoundPoisson):
        head = f"{dur} cpoisson rate={format_float(model.rate)}"
        j = model.jump
        if isinstance(j, PointMass):
            return f"{head} jump=point jump_x={_render_vector(j.x)}"
        if isinstance(j, UniformJump):
            return f"{head} jump=uniform jump_lo={_render_vector(j.lo)} jump_hi={_render_vector(j.hi)}"
        if isinstance(j, GaussianJump):
            return f"{head} jump=gauss jump_mean={_render_vector(j.mu)} jump_cov={_render_matrix(j.cov)}"
        if isinstance(j, LaplaceJump):
            return f"{head} jump=laplace jump_loc={_render_vector(j.loc)} jump_scale={_render_vector(j.scale)}"
        raise ConfigError(f"jump distribution {type(j).__name__} is not expressible in the config grammar")
    if isinstance(model, PureDrift):
        return f"{dur} drift gamma={_render_vector(model.gamma)}"
    raise ConfigError(f"model {type(model).__name__} is not expressible in the config grammar")


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = ["[schedule]", f"period = {format_float(config.schedule.period)}"]
    for duration, model in config.schedule.segments:
        lines.append(f"segment = {_render_segment(duration, model)}")
    lines += ["", "[run]", f"command = {config.command}", f"seed = {config.seed}"]
    scalars = {
        "a": config.a,
        "q0": config.q0,
        "horizon": config.horizon,
        "step": config.step,
    }
    ints = {
        "levels": config.levels,
        "n_paths": config.n_paths,
        "n_steps": config.n_steps,
        "n_walks": config.n_walks,
        "n_samples": config.n_samples,
    }
    for key in sorted(scalars):
        if scalars[key] is not None:
            lines.append(f"{key} = {format_float(scalars[key])}")
    for key in sorted(ints):
        if ints[key] is not None:
            lines.append(f"{key} = {ints[key]}")
    if config.criterion is not None:
        lines.append(f"criterion = {config.criterion}")
    if config.sweep:
        lines.append("sweep = true")
    if config.rs is not None:
        lines.append(f"rs = {config.rs.num}/{config.rs.den}")
    if config.horizons is not None:
        lines.append("horizons = " + ",".join(format_float(v) for v in config.horizons))
    if config.t_grid is not None:
        lines.append("t_grid = " + ",".join(format_float(v) for v in config.t_grid))
    if config.out is not None:
        lines.append(f"out = {config.out}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _require(value, key: str, command: str):
    if value is None:
        raise ConfigError(f"command {command!r} needs run key {key!r}")
    return value


def _run_simulate(config: RunConfig, out: Path) -> str:
    horizon = _require(config.horizon, "horizon", "simulate")
    step = _require(config.step, "step", "simulate")
    n_paths = config.n_paths or 1
    paths = sample_paths(config.schedule, horizon, step, n_paths, config.seed)
    for i, path in enumerate(paths):
        (out / f"path_{i:04d}.csv").write_text(path.to_csv())
    return (
        f"simulate: n_paths={n_paths} horizon={format_float(horizon)} "
        f"step={format_float(step)} seed={config.seed}"
    )


def _run_classify(config: RunConfig, out: Path) -> str:
    schedule = config.schedule
    a = config.a if config.a is not None else 1.0
    criterion = config.criterion or "auto"
    if criterion == "auto":
        criterion = "mean" if schedule.dim == 1 and period_mean(schedule) is not None else "chung-fuchs"
    given = {"levels": config.levels is not None, "q0": config.q0 is not None, "sweep": config.sweep}
    ignored = [key for key, is_set in given.items() if is_set]
    if ignored and criterion != "chung-fuchs":
        raise ConfigError(
            f"run keys {', '.join(ignored)} apply only to criterion chung-fuchs, "
            f"but this run uses criterion {criterion}"
        )

    def diagnostic(horizons):
        report = empirical_diagnostic(
            schedule,
            a,
            horizons,
            config.n_paths or 100,
            split_seed(config.seed, 1),
            step=config.step or 0.1,
        )
        (out / "occupation.csv").write_text(occupations_csv(report.final_occupations()))
        return report

    lines = []
    if criterion == "mean":
        verdict = mean_criterion(schedule)
    elif criterion == "drift":
        verdict = drift_test(equivalent_levy_model(schedule))
    elif criterion == "chung-fuchs":
        kwargs = {"seed": config.seed}
        if config.q0 is not None:
            kwargs["q0"] = config.q0
        if config.levels is not None:
            kwargs["levels"] = config.levels
        verdict = chung_fuchs_verdict(schedule, a=a, **kwargs)
        if config.sweep:
            # the middle radius is the main verdict's own
            low, high = radius_sweep(schedule, (0.5 * a, 2.0 * a), **kwargs)
            for a_value, sweep_verdict in (low, (a, verdict), high):
                lines.append(f"sweep a={format_float(a_value)} {sweep_verdict.to_line()}")
    elif criterion == "empirical":
        horizons = _require(config.horizons, "horizons", "classify (criterion=empirical)")
        verdict = empirical_verdict(diagnostic(horizons))
    else:  # pragma: no cover - parse_config already rejects unknown criteria
        raise ConfigError(f"unknown criterion {criterion!r}")

    lines.insert(0, verdict.to_line())
    if criterion != "empirical" and config.horizons is not None:
        report = diagnostic(config.horizons)
        lines.append(
            "diagnostic flag=" + (report.flag or "none")
            + " mean_occupation=" + ",".join(format_float(v) for v in report.mean)
        )
    (out / "verdict.txt").write_text("\n".join(lines) + "\n")
    return "classify: " + verdict.to_line()


def _run_skeleton(config: RunConfig, out: Path) -> str:
    rs = _require(config.rs, "rs", "skeleton")
    n_steps = _require(config.n_steps, "n_steps", "skeleton")
    n_walks = _require(config.n_walks, "n_walks", "skeleton")
    a = _require(config.a, "a", "skeleton")
    walks = sample_walks(config.schedule, rs, n_steps, n_walks, config.seed)
    curve = ball_visit_curve(walks, a)
    (out / "ball_visits.csv").write_text(curve.to_csv())
    return (
        f"skeleton: n_walks={n_walks} n_steps={n_steps} rs={rs.num}/{rs.den} "
        f"a={format_float(a)} final_partial_sum={format_float(curve.partial_sum[-1])}"
    )


def _run_lln(config: RunConfig, out: Path) -> str:
    schedule = config.schedule
    horizons = _require(config.horizons, "horizons", "lln")
    n_paths = config.n_paths or 100
    if period_mean(schedule) is not None:
        report = slln_check(schedule, horizons, n_paths, config.seed)
    else:
        report = divergence_check(schedule, horizons, n_paths, config.seed)
    (out / "lln.csv").write_text(report.deviations_csv())
    summary = f"lln: flag={report.flag or 'none'}"
    if config.t_grid is not None:
        conditions = wlln_conditions(
            schedule, config.t_grid, config.n_samples or 10**5, split_seed(config.seed, 1)
        )
        (out / "wlln.csv").write_text(conditions.conditions_csv())
        summary += f" wlln_flag={conditions.flag or 'none'}"
    return summary


_RUNNERS = {
    "simulate": _run_simulate,
    "classify": _run_classify,
    "skeleton": _run_skeleton,
    "lln": _run_lln,
}


def run(config: RunConfig, out_dir=None) -> int:
    """Execute a parsed config, writing artifacts under the output directory.

    Prints a one-line summary on success and returns 0 (an Inconclusive
    verdict is still a success); errors raise and are mapped to exit codes by
    main().
    """
    target = out_dir if out_dir is not None else config.out
    if target is None:
        raise ConfigError("no output directory: pass --out or set out in the [run] section")
    out = Path(target)
    out.mkdir(parents=True, exist_ok=True)
    summary = _RUNNERS[config.command](config, out)
    print(summary)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semilevy", description="Periodic Levy schedule laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("simulate", "sample paths to CSV"),
        ("classify", "recurrence/transience verdict"),
        ("skeleton", "discrete-skeleton ball-visit statistics"),
        ("lln", "law-of-large-numbers checks"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="configuration file")
        cmd.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = Path(args.config).read_text()
        config = parse_config(text, default_command=args.command)
        return run(config, out_dir=args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
