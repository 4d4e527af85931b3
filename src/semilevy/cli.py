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
never defaulted from system entropy), and per command:
``horizon step n_paths`` (simulate), ``criterion a q0 levels sweep`` plus
optional ``horizons n_paths step`` for the occupation diagnostic (classify),
``rs n_steps n_walks a`` (skeleton), ``horizons n_paths t_grid n_samples``
(lln).  Identical config text and seed give byte-identical outputs; side
activities (occupation diagnostic, weak-law estimates) draw from the derived
stream split_seed(seed, 1) so they never share a stream with the main
command.  Parallelism is automatic: long paths and walks are drawn on a
thread pool sized from the stream length and the CPU count, and every
output is the same whatever the pool or block size.

Exit codes: 0 success (an Inconclusive verdict is a success), 1 usage or
parse failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .classify import (
    MAX_LEVELS,
    MIN_LEVELS,
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
# value readers and writers
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


def _diagonal(s: str, lineno: int, name: str):
    # a covariance by its diagonal; one value stands for that multiple of the identity
    v = _vector(s, lineno, name)
    return v[0] if v.size == 1 else np.diag(v)


def _checked(read, ok, rule: str):
    """Reader that applies `read`, then fails with '<name> <rule>' unless ok(value)."""

    def checked(s: str, lineno: int, name: str):
        value = read(s, lineno, name)
        if not ok(value):
            _fail(lineno, f"{name} {rule}")
        return value

    return checked


def _choice(options: tuple):
    rule = f"must be one of {', '.join(options)}"
    return _checked(lambda s, lineno, name: s.lower(), options.__contains__, rule)


def _bool(s: str, lineno: int, name: str) -> bool:
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    _fail(lineno, f"{name}: expected true or false, got {s!r}")


def _rational_step(s: str, lineno: int, name: str) -> RationalStep:
    num, sep, den = s.partition("/")
    if not sep:
        _fail(lineno, f"{name} must look like n1/n2")
    return RationalStep(_int(num, lineno, name), _int(den, lineno, name))


def _floats(s: str, lineno: int, name: str) -> tuple:
    return tuple(_float(tok, lineno, name) for tok in s.split(","))


def _render_vector(v) -> str:
    return ",".join(format_float(x) for x in np.atleast_1d(v))


def _render_matrix(m: np.ndarray) -> str:
    return ";".join(_render_vector(row) for row in np.atleast_2d(m))


# ---------------------------------------------------------------------------
# the grammar's tables: model kinds, jump kinds and run keys
# ---------------------------------------------------------------------------


def _read_kind(kinds: dict, what: str, text: str, params: dict, lineno: int):
    """The catalog object of kind `text` in `kinds`, its parameters popped from params."""
    kind = text.lower()
    if kind not in kinds:
        _fail(lineno, f"unknown {what} kind {kind!r} ({', '.join(kinds)})")
    cls, spec, defaults = kinds[kind]
    values = {}
    for name, field, (read, _) in spec:
        if name in params and field not in values:
            values[field] = read(params, name, lineno)
    for _, field, _ in spec:
        if field not in values and field not in defaults:
            _fail(lineno, f"{kind} {what} needs {' or '.join(n for n, f, _ in spec if f == field)}")
    try:
        return cls(**{**defaults, **values})
    except ValueError as exc:
        _fail(lineno, f"invalid {kind} {what}: {exc}")


def _render_kind(obj) -> str:
    """`<kind> <parameter>=<value> ...` of a catalog object; the inverse of _read_kind."""
    if type(obj) not in _KIND_OF:
        raise ConfigError(f"{type(obj).__name__} is not expressible in the config grammar")
    kind, spec = _KIND_OF[type(obj)]
    tokens = [f"{name}={write(getattr(obj, field))}" for name, field, (_, write) in spec if write]
    return " ".join([kind, *tokens])


def _read_jump(params: dict, name: str, lineno: int):
    # a jump law: its kind, whose own parameters sit in the same segment
    return _read_kind(JUMP_KINDS, name, params.pop(name), params, lineno)


def _param(read, write):
    """Codec of a segment parameter: pop and read its text; write a field value."""
    return (lambda params, name, lineno: read(params.pop(name), lineno, name)), write


_VECTOR = _param(_vector, _render_vector)
_MATRIX = _param(_matrix, _render_matrix)
_DIAGONAL = _param(_diagonal, None)  # the diagonal spelling of a matrix, never written
_FLOAT = _param(_float, format_float)
_INT = _param(_int, str)
_JUMP = (_read_jump, _render_kind)

# config kind -> (class, ((config parameter, dataclass field, codec), ...),
# defaults of the optional fields).  Render writes the parameters in this
# order; a field given in two spellings keeps the first, and the second is
# reported as an unknown parameter.
MODEL_KINDS = {
    "brownian": (
        BrownianDrift,
        (("drift", "drift", _VECTOR), ("cov", "cov", _MATRIX), ("var", "cov", _DIAGONAL)),
        {},
    ),
    "stable": (
        SymmetricStable,
        (("alpha", "alpha", _FLOAT), ("scale", "scale", _FLOAT), ("dim", "dim", _INT)),
        {"dim": 1},
    ),
    "cpoisson": (CompoundPoisson, (("rate", "rate", _FLOAT), ("jump", "jump", _JUMP)), {}),
    "drift": (PureDrift, (("gamma", "gamma", _VECTOR),), {}),
}
JUMP_KINDS = {
    "point": (PointMass, (("jump_x", "x", _VECTOR),), {}),
    "uniform": (UniformJump, (("jump_lo", "lo", _VECTOR), ("jump_hi", "hi", _VECTOR)), {}),
    "gauss": (
        GaussianJump,
        (("jump_mean", "mu", _VECTOR), ("jump_cov", "cov", _MATRIX), ("jump_var", "cov", _DIAGONAL)),
        {},
    ),
    "laplace": (LaplaceJump, (("jump_loc", "loc", _VECTOR), ("jump_scale", "scale", _VECTOR)), {}),
}
_KIND_OF = {cls: (kind, spec) for kind, (cls, spec, _) in {**MODEL_KINDS, **JUMP_KINDS}.items()}

_POSITIVE = _checked(_float, lambda v: 0 < v < np.inf, "must be positive and finite")
_COUNT = _checked(_int, lambda v: v >= 1, "must be at least 1")
_INCREASING = _checked(
    _floats, lambda v: min(v) > 0 and all(np.diff(v) > 0), "must be positive and strictly increasing"
)

# run key -> (reader, writer); render writes the keys that differ from their
# RunConfig default, in this order
RUN_KEYS = {
    "command": (_choice(COMMANDS), str),
    "seed": (_int, str),
    "a": (_POSITIVE, format_float),
    "horizon": (_POSITIVE, format_float),
    "q0": (_POSITIVE, format_float),
    "step": (_POSITIVE, format_float),
    "levels": (
        _checked(_int, lambda v: MIN_LEVELS <= v <= MAX_LEVELS, f"must be between {MIN_LEVELS} and {MAX_LEVELS}"),
        str,
    ),
    "n_paths": (_COUNT, str),
    "n_samples": (_COUNT, str),
    "n_steps": (_COUNT, str),
    "n_walks": (_COUNT, str),
    "criterion": (_choice(CRITERIA), str),
    "sweep": (_bool, lambda v: str(v).lower()),
    "rs": (_rational_step, lambda rs: f"{rs.num}/{rs.den}"),
    "horizons": (_INCREASING, _render_vector),
    "t_grid": (_INCREASING, _render_vector),
}


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


def _kv_pairs(tokens: list[str], lineno: int) -> dict:
    params = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        key = key.lower()
        if not sep or not key or not value:
            _fail(lineno, f"expected key=value, got {tok!r}")
        if key in params:
            _fail(lineno, f"duplicate parameter {key!r}")
        params[key] = value
    return params


def _parse_segment(lineno: int, text: str) -> tuple[float, LevyModel]:
    tokens = text.split()
    if len(tokens) < 2:
        _fail(lineno, "segment needs '<duration> <kind> [key=value ...]'")
    duration = _float(tokens[0], lineno, "duration")
    if duration <= 0:
        _fail(lineno, "segment duration must be positive")
    params = _kv_pairs(tokens[2:], lineno)
    model = _read_kind(MODEL_KINDS, "model", tokens[1], params, lineno)
    if params:
        _fail(lineno, f"unknown {tokens[1].lower()} parameters: {', '.join(sorted(params))}")
    return duration, model


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
                if declared_dim is not None:
                    _fail(lineno, "duplicate dim")
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

    unknown = sorted(set(run_raw) - set(RUN_KEYS))
    if unknown:
        _fail(min(run_raw[key][0] for key in unknown), f"unknown run keys: {', '.join(unknown)}")
    values = {key: RUN_KEYS[key][0](value, lineno, key) for key, (lineno, value) in run_raw.items()}
    command = values.setdefault("command", default_command)
    if command is None:
        _fail(None, "run section must set command (or pass it as the CLI subcommand)")
    if default_command not in (None, command):
        lineno = run_raw["command"][0]
        _fail(lineno, f"config says command={command} but the CLI subcommand is {default_command}")
    if "seed" not in values:
        _fail(None, "run section must set seed (seeds are never defaulted from system entropy)")
    return RunConfig(schedule=schedule, **values)


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = ["[schedule]", f"period = {format_float(config.schedule.period)}"]
    for duration, model in config.schedule.segments:
        lines.append(f"segment = {format_float(duration)} {_render_kind(model)}")
    lines += ["", "[run]"]
    defaults = {f.name: f.default for f in fields(RunConfig)}
    for key, (_, write) in RUN_KEYS.items():
        value = getattr(config, key)
        if value != defaults[key]:
            lines.append(f"{key} = {write(value)}")
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
    conditions = None
    if config.t_grid is not None:
        conditions = wlln_conditions(
            schedule, config.t_grid, config.n_samples or 10**5, split_seed(config.seed, 1)
        )
    # both reports exist before either file is written, so a failed run leaves neither
    (out / "lln.csv").write_text(report.deviations_csv())
    summary = f"lln: flag={report.flag or 'none'}"
    if conditions is not None:
        (out / "wlln.csv").write_text(conditions.conditions_csv())
        summary += f" wlln_flag={conditions.flag or 'none'}"
    return summary


# command -> (runner, help text)
_RUNNERS = {
    "simulate": (_run_simulate, "sample paths to CSV"),
    "classify": (_run_classify, "recurrence/transience verdict"),
    "skeleton": (_run_skeleton, "discrete-skeleton ball-visit statistics"),
    "lln": (_run_lln, "law-of-large-numbers checks"),
}


def run(config: RunConfig, out_dir) -> int:
    """Execute a parsed config, writing artifacts under the output directory.

    Prints a one-line summary on success and returns 0 (an Inconclusive
    verdict is still a success); errors raise and are mapped to exit codes by
    main().
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _RUNNERS[config.command][0](config, out)
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
    for name, (_, text) in _RUNNERS.items():
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
    # LinAlgError is a ValueError, so the numerical clause comes first
    except (QuadratureError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
