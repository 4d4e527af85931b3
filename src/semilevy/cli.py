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

Run keys: ``command`` (or given as the CLI subcommand), ``seed`` (needed,
never defaulted from system entropy), then those its command reads, each with
its default or ``needed``; ``none`` leaves out the occupation diagnostic or
the weak-law estimates, and then the keys only it reads are refused: without
``horizons`` a classify run takes no ``n_paths`` or ``step`` (nor ``a`` under
mean or drift), and without ``t_grid`` lln takes no ``n_samples``.  A classify
run reads the keys of its criterion (auto is mean on a 1-d schedule with a
finite one-period mean, else chung-fuchs)::

    simulate: horizon=needed step=needed n_paths=1
    classify mean: criterion=auto a=1.0 horizons=none n_paths=100 step=0.1
    classify drift: criterion=auto a=1.0 horizons=none n_paths=100 step=0.1
    classify chung-fuchs: criterion=auto a=1.0 horizons=none n_paths=100 step=0.1 levels=8 q0=0.01 sweep=false
    classify empirical: criterion=auto a=1.0 horizons=needed n_paths=100 step=0.1
    skeleton: rs=needed n_steps=needed n_walks=needed a=needed
    lln: horizons=needed n_paths=100 t_grid=none n_samples=100000

Any other key is an error at its line.  Identical config text and seed give
byte-identical outputs; side activities draw from the derived stream
split_seed(seed, 1).  Parallelism is automatic, and no output depends on it.

Exit codes: 0 success (an Inconclusive verdict is a success), 1 usage or
parse failure, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .classify import (
    DEFAULT_LEVELS,
    DEFAULT_Q0,
    DIAGNOSTIC_MIN_HORIZONS,
    DIAGNOSTIC_MIN_PATHS,
    QuadratureError,
    check_levels,
    chung_fuchs_verdict,
    drift_test,
    empirical_diagnostic,
    empirical_verdict,
    mean_criterion,
    radius_sweep,
)
from .lln import MIN_PATHS, MIN_SAMPLES, strong_law_check, strong_law_horizons, wlln_conditions
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
from .util import check_counts, check_increasing, check_positive, format_float, split_seed

__all__ = ["ConfigError", "RunConfig", "parse_config", "render_config", "run", "main"]


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


# RunConfig field -> its value when the config text does not set the key
_UNSET = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}


# ---------------------------------------------------------------------------
# value readers and writers
# ---------------------------------------------------------------------------


def _fail(lineno: Optional[int], message: str):
    prefix = f"line {lineno}: " if lineno is not None else ""
    raise ConfigError(prefix + message)


def _cast(cast, what: str):
    """Reader of the value cast(text), which refuses a text by a ValueError or KeyError."""

    def read(s: str, lineno: Optional[int], name: str):
        try:
            return cast(s)
        except (ValueError, KeyError):
            _fail(lineno, f"{name}: expected {what}, got {s!r}")

    return read


_float = _cast(float, "a number")
_int = _cast(int, "an integer")
_bool = _cast(lambda s: {"true": True, "false": False}[s.lower()], "true or false")


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


def _in_line(lineno: int, call, *args):
    """call(*args), the library's ValueError re-raised as the config error of the line."""
    try:
        return call(*args)
    except ValueError as exc:
        _fail(lineno, str(exc))


def _checked(read, check):
    """Reader that applies `read`, then the library's check(value, name)."""

    def checked(s: str, lineno: int, name: str):
        value = read(s, lineno, name)
        _in_line(lineno, check, value, name)
        return value

    return checked


def _choice(options: tuple):
    def choice(s: str, lineno: int, name: str) -> str:
        value = s.lower()
        if value not in options:
            _fail(lineno, f"{name} must be one of {', '.join(options)}")
        return value

    return choice


def _rational_step(s: str, lineno: int, name: str) -> RationalStep:
    num, sep, den = s.partition("/")
    if not sep:
        _fail(lineno, f"{name} must look like n1/n2")
    return _in_line(lineno, RationalStep, _int(num, lineno, name), _int(den, lineno, name))


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


def _at_least(least: int):
    """check(value, name[, schedule]) of a count of at least `least`."""
    return lambda value, name, schedule=None: check_counts(least=least, **{name: value})


_POSITIVE = _checked(_float, lambda value, name: check_positive(**{name: value}))
_COUNT = _checked(_int, _at_least(1))
_INCREASING = _checked(_floats, check_increasing)

NEEDED = object()  # the default of a run key its command cannot run without

_CLASSIFY = {
    "criterion": ("auto", None),
    "a": (1.0, None),
    "horizons": (None, lambda value, name, schedule: check_increasing(value, name, least=DIAGNOSTIC_MIN_HORIZONS)),
    "n_paths": (100, _at_least(DIAGNOSTIC_MIN_PATHS)),
    "step": (0.1, None),
}
_LADDER = {"levels": (DEFAULT_LEVELS, None), "q0": (DEFAULT_Q0, None), "sweep": (False, None)}
# (command, the resolved criterion of a classify run) -> run key it reads
# beyond command and seed -> (its default or NEEDED, the check(value, name,
# schedule) its runner applies beyond the key's reader, or None).  A default
# of None leaves a side activity out: the occupation diagnostic, the weak law.
COMMAND_KEYS = {
    ("simulate", None): {"horizon": (NEEDED, None), "step": (NEEDED, None), "n_paths": (1, None)},
    ("classify", "chung-fuchs"): {**_CLASSIFY, **_LADDER},
    ("classify", "mean"): _CLASSIFY,
    ("classify", "drift"): _CLASSIFY,
    ("classify", "empirical"): {**_CLASSIFY, "horizons": (NEEDED, _CLASSIFY["horizons"][1])},
    ("skeleton", None): dict.fromkeys(("rs", "n_steps", "n_walks", "a"), (NEEDED, None)),
    ("lln", None): {
        # the strong-law check's own horizon rule: 2 of them with an infinite one-period mean
        "horizons": (NEEDED, lambda value, name, s: strong_law_horizons(s, value)),
        "n_paths": (100, _at_least(MIN_PATHS)),
        "t_grid": (None, None),
        "n_samples": (10**5, _at_least(MIN_SAMPLES)),
    },
}
# (command, criterion) -> (the run key whose default of None leaves a side
# activity out, the keys of the row only that activity reads); while the
# activity is out, setting one of its keys is refused like an unread key
SIDE_KEYS = {
    ("classify", "chung-fuchs"): ("horizons", ("n_paths", "step")),
    ("classify", "mean"): ("horizons", ("a", "n_paths", "step")),
    ("classify", "drift"): ("horizons", ("a", "n_paths", "step")),
    ("lln", None): ("t_grid", ("n_samples",)),
}

# run key -> (reader, writer); render writes the keys that differ from their
# RunConfig default, in this order
RUN_KEYS = {
    "command": (_choice(tuple(dict.fromkeys(command for command, _ in COMMAND_KEYS))), str),
    "seed": (_int, str),
    "a": (_POSITIVE, format_float),
    "horizon": (_POSITIVE, format_float),
    "q0": (_POSITIVE, format_float),
    "step": (_POSITIVE, format_float),
    "levels": (_checked(_int, lambda value, name: check_levels(value)), str),
    "n_paths": (_COUNT, str),
    "n_samples": (_COUNT, str),
    "n_steps": (_COUNT, str),
    "n_walks": (_COUNT, str),
    "criterion": (_choice(("auto", *(criterion for _, criterion in COMMAND_KEYS if criterion))), str),
    "sweep": (_bool, lambda v: str(v).lower()),
    "rs": (_rational_step, lambda rs: f"{rs.num}/{rs.den}"),
    "horizons": (_INCREASING, _render_vector),
    "t_grid": (_INCREASING, _render_vector),
}


def _settings(config: RunConfig, lines: Optional[dict] = None) -> dict:
    """Run key -> value of each key the config's command reads, its default where unset.

    Refuses a key the command does not read, a value its check refuses, a key
    of a side activity left out and a missing needed key; `lines` maps the run
    keys of a config text to their lines.
    """
    lines, schedule, criterion = lines or {}, config.schedule, None
    if config.command == "classify":
        # the criterion in use: auto's pick, or the one named if the dimension allows it
        criterion, one_d = config.criterion or "auto", schedule.dim == 1
        if criterion == "auto":
            criterion = "mean" if one_d and period_mean(schedule) is not None else "chung-fuchs"
        elif criterion in ("mean", "drift") and not one_d:
            _fail(lines.get("criterion"), f"criterion {criterion} is stated for dimension 1, not {schedule.dim}")
    row = COMMAND_KEYS[config.command, criterion]
    reader = config.command + (f" with criterion {criterion}" if criterion else "")
    given = {key for key, unset in _UNSET.items() if key in lines or getattr(config, key) != unset}

    def refuse(keys: list, why: str = ""):
        if keys:
            line = min(map(lines.get, keys)) if lines else None
            _fail(line, f"{reader} does not read run keys{why}: {', '.join(keys)}")

    refuse(sorted(given - row.keys()))
    settings = {key: getattr(config, key) if key in given else default for key, (default, _) in row.items()}
    for key, (_, check) in row.items():
        if check is not None and key in given:
            _in_line(lines.get(key), check, settings[key], key, schedule)
    switch, side = SIDE_KEYS.get((config.command, criterion), (None, ()))
    if switch not in given:
        refuse(sorted(given.intersection(side)), f" without {switch}")
    missing = [key for key, value in settings.items() if value is NEEDED]
    if missing:
        _fail(None, f"{reader} needs run keys: {', '.join(missing)}")
    return {**settings, "criterion": criterion} if criterion else settings


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
    duration = _POSITIVE(tokens[0], lineno, "duration")
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
    dim_line: Optional[int] = None
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
                period = _POSITIVE(value, lineno, "period")
                period_line = lineno
            elif key == "segment":
                segments.append(_parse_segment(lineno, value))
            elif key == "dim":
                if declared_dim is not None:
                    _fail(lineno, "duplicate dim")
                declared_dim, dim_line = _int(value, lineno, "dim"), lineno
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
        _fail(dim_line, f"declared dim {declared_dim} but segments have dimension {schedule.dim}")

    unknown = sorted(set(run_raw) - set(RUN_KEYS))
    if unknown:
        _fail(min(run_raw[key][0] for key in unknown), f"unknown run keys: {', '.join(unknown)}")
    values = {key: RUN_KEYS[key][0](value, lineno, key) for key, (lineno, value) in run_raw.items()}
    command = values.setdefault("command", default_command)
    if command is None:
        _fail(None, "run section must set command (or pass it as the CLI subcommand)")
    if default_command not in (None, command):
        _fail(run_raw["command"][0], f"config says command={command} but the CLI subcommand is {default_command}")
    if "seed" not in values:
        _fail(None, "run section must set seed (seeds are never defaulted from system entropy)")
    config = RunConfig(schedule=schedule, **values)
    _settings(config, {key: lineno for key, (lineno, _) in run_raw.items()})
    return config


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = ["[schedule]", f"period = {format_float(config.schedule.period)}"]
    for duration, model in config.schedule.segments:
        lines.append(f"segment = {format_float(duration)} {_render_kind(model)}")
    lines += ["", "[run]"]
    for key, (_, write) in RUN_KEYS.items():
        value = getattr(config, key)
        if value != _UNSET.get(key):
            lines.append(f"{key} = {write(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------


def _run_simulate(schedule, seed, out: Path, horizon, step, n_paths) -> str:
    paths = sample_paths(schedule, horizon, step, n_paths, seed)
    for i, path in enumerate(paths):
        (out / f"path_{i:04d}.csv").write_text(path.to_csv())
    return f"simulate: n_paths={n_paths} horizon={format_float(horizon)} step={format_float(step)} seed={seed}"


def _run_classify(schedule, seed, out: Path, criterion, a, horizons, n_paths, step, sweep=False, **ladder) -> str:
    def diagnostic(horizons):
        report = empirical_diagnostic(schedule, a, horizons, n_paths, split_seed(seed, 1), step=step)
        (out / "occupation.csv").write_text(occupations_csv(report.final_occupations()))
        return report

    lines = []
    if criterion == "mean":
        verdict = mean_criterion(schedule)
    elif criterion == "drift":
        verdict = drift_test(equivalent_levy_model(schedule))
    elif criterion == "chung-fuchs":
        verdict = chung_fuchs_verdict(schedule, a=a, seed=seed, **ladder)
        if sweep:
            # the middle radius is the main verdict's own
            low, high = radius_sweep(schedule, (0.5 * a, 2.0 * a), seed=seed, **ladder)
            for a_value, sweep_verdict in (low, (a, verdict), high):
                lines.append(f"sweep a={format_float(a_value)} {sweep_verdict.to_line()}")
    else:  # empirical, whose horizons are needed
        verdict = empirical_verdict(diagnostic(horizons))

    lines.insert(0, verdict.to_line())
    if criterion != "empirical" and horizons is not None:
        report = diagnostic(horizons)
        lines.append(f"diagnostic flag={report.flag or 'none'} mean_occupation={_render_vector(report.mean)}")
    (out / "verdict.txt").write_text("\n".join(lines) + "\n")
    return "classify: " + verdict.to_line()


def _run_skeleton(schedule, seed, out: Path, rs, n_steps, n_walks, a) -> str:
    walks = sample_walks(schedule, rs, n_steps, n_walks, seed)
    curve = ball_visit_curve(walks, a)
    (out / "ball_visits.csv").write_text(curve.to_csv())
    return (
        f"skeleton: n_walks={n_walks} n_steps={n_steps} rs={rs.num}/{rs.den} "
        f"a={format_float(a)} final_partial_sum={format_float(curve.partial_sum[-1])}"
    )


def _run_lln(schedule, seed, out: Path, horizons, n_paths, t_grid, n_samples) -> str:
    report = strong_law_check(schedule, horizons, n_paths, seed)
    conditions = None if t_grid is None else wlln_conditions(schedule, t_grid, n_samples, split_seed(seed, 1))
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

    A config built in code is held to COMMAND_KEYS as parse_config holds a
    text.  Prints a one-line summary on success and returns 0 (an Inconclusive
    verdict is still a success); errors raise and are mapped to exit codes by
    main().
    """
    settings = _settings(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    print(_RUNNERS[config.command][0](config.schedule, config.seed, out, **settings))
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
    try:
        args = _build_parser().parse_args(argv)
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
