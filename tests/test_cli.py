"""Config grammar, round-tripping, command execution, and exit codes."""

import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semilevy
from semilevy import classify as classify_module
from semilevy import models as models_module
from semilevy.classify import MAX_LEVELS, MIN_LEVELS, Criterion, chung_fuchs_verdict, empirical_diagnostic, radius_sweep
from semilevy.cli import COMMAND_KEYS, RUN_KEYS, ConfigError, RunConfig, main, parse_config, render_config, run
from semilevy.models import (
    BrownianDrift,
    CompoundPoisson,
    GaussianJump,
    LaplaceJump,
    PointMass,
    PureDrift,
    SumModel,
    SymmetricStable,
    UniformJump,
)
from semilevy import schedule as schedule_module
from semilevy.lln import strong_law_check, wlln_conditions
from semilevy.schedule import SemiLevySchedule, make_splice, period_mean, sample_path, sample_paths, single_segment
from semilevy.skeleton import RationalStep, ball_visit_curve, occupations_csv, sample_walks
from semilevy.util import CSV_CHUNK_VALUES, check_size, split_seed, write_csv

BASIC = """
[schedule]
period = 3.0
segment = 1.0 brownian drift=1.0 var=1.0
segment = 2.0 brownian drift=-0.5 var=1.0

[run]
command = classify
seed = 42
"""


# command -> (the run keys it needs, the run keys it may take) beyond command
# and seed; a classify run under criterion chung-fuchs also takes LADDER
READS = {
    "simulate": ("horizon step", "n_paths"),
    "classify": ("", "criterion a horizons n_paths step"),
    "skeleton": ("rs n_steps n_walks a", ""),
    "lln": ("horizons", "n_paths t_grid n_samples"),
}
LADDER = "levels q0 sweep"
# (command, resolved criterion) -> (the key that switches a side activity on,
# the keys only that activity reads, refused without it)
SIDE = {
    ("classify", "mean"): ("horizons", "a n_paths step"),
    ("classify", "chung-fuchs"): ("horizons", "n_paths step"),
    ("lln", None): ("t_grid", "n_samples"),
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_basic_splice():
    config = parse_config(BASIC)
    assert config.command == "classify"
    assert config.seed == 42
    assert config.schedule.period == 3.0
    assert config.schedule.segments[0][0] == 1.0
    assert isinstance(config.schedule.segments[0][1], BrownianDrift)
    # this fixture has one-period mean 1*1 + 2*(-0.5) = 0
    from semilevy.schedule import period_mean

    assert period_mean(config.schedule) == pytest.approx([0.0])


def test_parse_single_segment_accepted():
    text = (
        "[schedule]\nperiod = 1.0\nsegment = 1.0 stable alpha=1.0 scale=1.0\n"
        "[run]\ncommand = lln\nseed = 1\nhorizons = 10,20\n"
    )
    config = parse_config(text)
    assert config.schedule.n_segments == 1


def test_parse_errors_carry_line_numbers():
    text = "[schedule]\nperiod = 2.0\nsegment = 0.7 drift gamma=1.0\nsegment = 1.2 drift gamma=1.0\n[run]\ncommand = classify\nseed = 1\n"
    with pytest.raises(ConfigError, match="tile the period"):
        parse_config(text)
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[schedule]\nperiod = 1.0\nsegment = 1.0 warp x=1\n[run]\nseed = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[schedule]\nperiod = abc\n")


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown run keys"):
        parse_config(BASIC + "frobnicate = 1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(BASIC + "seed = 43\n")


def test_parse_rejects_duplicates_differing_in_case():
    segment = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=1.0 {}=-5.0\n[run]\nseed = 1\n"
    with pytest.raises(ConfigError, match="line 3: duplicate parameter 'gamma'"):
        parse_config(segment.format("GAMMA"))
    with pytest.raises(ConfigError, match="line 3: duplicate parameter 'gamma'"):
        parse_config(segment.format("gamma"))


def test_parse_rejects_duplicate_dim():
    text = "[schedule]\nperiod = 1.0\ndim = 1\nsegment = 1.0 drift gamma=1.0\ndim = 2\n[run]\nseed = 1\n"
    with pytest.raises(ConfigError, match="line 5: duplicate dim"):
        parse_config(text, default_command="simulate")


def test_out_is_an_unknown_run_key(tmp_path, capsys):
    # the output directory is the required --out argument, never a config key
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASIC + "out = x\n")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown run keys: out" in capsys.readouterr().err


def test_threads_is_an_unknown_run_key(tmp_path, capsys):
    # the pool is chosen from the stream length; there is no key for it
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASIC + "threads = 2\n")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "unknown run keys: threads" in capsys.readouterr().err


def test_parse_requires_seed():
    text = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\ncommand = classify\n"
    with pytest.raises(ConfigError, match="seed"):
        parse_config(text)


def test_parse_command_via_cli_argument():
    text = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\nseed = 5\nhorizon = 2.0\nstep = 0.5\n"
    config = parse_config(text, default_command="simulate")
    assert config.command == "simulate"
    with pytest.raises(ConfigError, match="subcommand"):
        parse_config(BASIC, default_command="simulate")


def test_parse_validates_ranges():
    with pytest.raises(ConfigError, match="levels"):
        parse_config(BASIC + "levels = 3\n")
    with pytest.raises(ConfigError, match="levels"):
        parse_config(BASIC + f"levels = {MAX_LEVELS + 1}\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config(BASIC + "a = -1.0\n")
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(BASIC + "horizons = 10.0,5.0\n")


# lines 1-5; a run key appended to it sits on line 6
DRIFT = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\nseed = 4\n"


def _segment(text: str) -> str:
    return f"[schedule]\nperiod = 1.0\nsegment = 1.0 {text}\n[run]\nseed = 4\n"


# case -> (config text, the one line of its error); every case runs the
# simulate subcommand except those named in _CONFIG_ERROR_COMMANDS and no-command
_CONFIG_ERRORS = {
    # syntax
    "key-value": (_segment("drift gamma"), "line 3: expected key=value, got 'gamma'"),
    "segment-one-token": (_segment(""), "line 3: segment needs '<duration> <kind> [key=value ...]'"),
    "segment-parameter": (_segment("drift gamma=0.0 speed=2"), "line 3: unknown drift parameters: speed"),
    "section": (DRIFT + "[output]\n", "line 6: unknown section [output] (expected [schedule] or [run])"),
    "no-equals": (DRIFT + "n_paths 3\n", "line 6: expected 'key = value'"),
    "outside-section": ("period = 1.0\n" + DRIFT, "line 1: key outside a section; start with [schedule] or [run]"),
    "duplicate-period": (DRIFT.replace("period = 1.0\n", "period = 1.0\n" * 2), "line 3: duplicate period"),
    "schedule-key": (DRIFT.replace("period = 1.0\n", "period = 1.0\nlength = 2\n"),
                     "line 3: unknown schedule key 'length'"),
    "no-period": (DRIFT.replace("period = 1.0\n", ""), "schedule section must set period"),
    "no-segment": (DRIFT.replace("segment = 1.0 drift gamma=0.0\n", ""),
                   "schedule section must define at least one segment"),
    "dim-mismatch": (DRIFT.replace("period = 1.0\n", "period = 1.0\ndim = 2\n"),
                     "line 3: declared dim 2 but segments have dimension 1"),
    "no-command": (DRIFT, "run section must set command (or pass it as the CLI subcommand)"),
    "no-seed": (DRIFT.replace("seed = 4\n", ""),
                "run section must set seed (seeds are never defaulted from system entropy)"),
    "command-mismatch": (DRIFT + "command = lln\n",
                         "line 6: config says command=lln but the CLI subcommand is simulate"),
    # values
    "integer": (DRIFT.replace("seed = 4", "seed = four"), "line 5: seed: expected an integer, got 'four'"),
    "matrix-rows": (_segment("brownian drift=0,0 cov=1,0;0"), "line 3: cov: matrix rows have unequal lengths"),
    "boolean": (DRIFT + "sweep = yes\n", "line 6: sweep: expected true or false, got 'yes'"),
    "choice": (DRIFT + "criterion = best\n",
               "line 6: criterion must be one of auto, chung-fuchs, mean, empirical"),
    "rs-no-slash": (DRIFT + "rs = 2\n", "line 6: rs must look like n1/n2"),
    "kind-parameter": (_segment("brownian drift=0"), "line 3: brownian model needs cov or var"),
    "jump-kind": (_segment("cpoisson rate=1 jump=cauchy"),
                  "line 3: unknown jump kind 'cauchy' (point, uniform, gauss, laplace)"),
    "model-value": (_segment("stable alpha=3 scale=1"), "line 3: invalid stable model: alpha must be in (0, 2]"),
    # the library's own rules, reported at the line
    "rs-zero": (DRIFT + "rs = 0/1\n", "line 6: num must be an integer of at least 1, got 0"),
    "rs-negative": (DRIFT + "rs = -1/2\n", "line 6: num must be an integer of at least 1, got -1"),
    "rs-int64": (DRIFT + "rs = 1/1180591620717411303424\n",
                 "line 6: 1/1180591620717411303424 reaches 2^63, past the int64 arithmetic of walk steps"),
    "count": (DRIFT + "n_paths = 0\n", "line 6: n_paths must be an integer of at least 1, got 0"),
    "levels": (DRIFT + "levels = 3\n", "line 6: levels must be between 6 and 32, got 3"),
    "positive": (DRIFT + "a = 0\n", "line 6: a must be positive and finite, got 0.0"),
    "increasing": (DRIFT + "horizons = 2, 1\n",
                   "line 6: horizons must be positive and finite, and strictly increasing"),
    # a command's own count bounds, reported at the line rather than when the command runs
    "lln-paths": (DRIFT + "n_paths = 10\n", "line 6: n_paths must be an integer of at least 50, got 10"),
    "lln-samples": (DRIFT + "n_samples = 100\n", "line 6: n_samples must be an integer of at least 10000, got 100"),
    "diagnostic-paths": (DRIFT + "n_paths = 49\n", "line 6: n_paths must be an integer of at least 50, got 49"),
    "diagnostic-horizons": (DRIFT + "horizons = 5\n", "line 6: horizons must be a 1-d sequence of at least 2 values"),
    # on an infinite one-period mean the strong-law check compares two horizons
    "lln-divergence-horizons": (_segment("stable alpha=0.8 scale=1.0") + "n_paths = 50\nhorizons = 10\n",
                                "line 7: horizons must be a 1-d sequence of at least 2 values"),
    # a usage error exits 1, not argparse's 2; the rest of its text is argparse's
    "usage": (DRIFT, "argument command: invalid choice: 'bogus'"),
}


_CONFIG_ERROR_COMMANDS = {"usage": "bogus", "lln-paths": "lln", "lln-samples": "lln", "diagnostic-paths": "classify",
                          "diagnostic-horizons": "classify", "lln-divergence-horizons": "lln"}


@pytest.mark.parametrize("case", list(_CONFIG_ERRORS))
def test_config_errors_exit_one_with_their_line(tmp_path, capsys, case):
    text, message = _CONFIG_ERRORS[case]
    if case == "no-command":
        # the CLI always passes its subcommand; a library caller may not
        with pytest.raises(ConfigError) as refused:
            parse_config(text)
        assert str(refused.value) == message
        return
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    command = _CONFIG_ERROR_COMMANDS.get(case, "simulate")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# rendering round-trip
# ---------------------------------------------------------------------------

finite = st.floats(-3.0, 3.0).map(lambda x: float(np.float64(x)))
positive = st.floats(0.1, 3.0).map(lambda x: float(np.float64(x)))


def models_strategy():
    brownian = st.builds(
        lambda d, v: BrownianDrift(d, v), d=finite, v=positive
    )
    stable = st.builds(
        lambda alpha, c: SymmetricStable(alpha, c, 1),
        alpha=st.floats(0.3, 2.0),
        c=positive,
    )
    jumps = st.one_of(
        st.builds(lambda x: PointMass(x), x=finite),
        st.builds(lambda lo, w: UniformJump(lo, lo + w), lo=finite, w=positive),
        st.builds(lambda m, v: GaussianJump(m, v), m=finite, v=positive),
        st.builds(lambda l, s: LaplaceJump(l, s), l=finite, s=positive),
    )
    cpoisson = st.builds(lambda r, j: CompoundPoisson(r, j), r=positive, j=jumps)
    drift = st.builds(lambda g: PureDrift(g), g=finite)
    return st.one_of(brownian, stable, cpoisson, drift)


def models_2d_strategy():
    vec = st.lists(finite, min_size=2, max_size=2).map(np.array)
    pos = st.lists(positive, min_size=2, max_size=2).map(np.array)
    # A A^T is positive semi-definite, and a full matrix exercises the ';' rows
    squares = st.lists(finite, min_size=4, max_size=4).map(lambda a: np.reshape(a, (2, 2)))
    cov = squares.map(lambda a: a @ a.T)
    brownian = st.builds(BrownianDrift, vec, cov)
    stable = st.builds(lambda alpha, c: SymmetricStable(alpha, c, 2), alpha=st.floats(0.3, 2.0), c=positive)
    jumps = st.one_of(
        st.builds(PointMass, vec),
        st.builds(lambda lo, w: UniformJump(lo, lo + w), vec, pos),
        st.builds(GaussianJump, vec, cov),
        st.builds(LaplaceJump, vec, pos),
    )
    cpoisson = st.builds(CompoundPoisson, positive, jumps)
    return st.one_of(brownian, stable, cpoisson, st.builds(PureDrift, vec))


@st.composite
def configs(draw):
    n_seg = draw(st.integers(1, 3))
    durations = [draw(positive) for _ in range(n_seg)]
    period = float(np.sum(durations))
    models = draw(st.sampled_from([models_strategy(), models_2d_strategy()]))
    segments = tuple((d, draw(models)) for d in durations)
    schedule = SemiLevySchedule(period=period, segments=segments)
    command = draw(st.sampled_from(list(READS)))

    def times(least):
        return st.lists(positive, min_size=least, max_size=4).map(lambda xs: tuple(np.cumsum(xs).tolist()))

    # the reader bounds lln's and the occupation diagnostic's paths and horizons, and lln's draws, from below
    values = {
        "criterion": st.sampled_from(["auto", "chung-fuchs", "empirical"] + ["mean"] * (schedule.dim == 1)),
        "a": positive,
        "horizon": positive,
        "step": positive,
        "q0": positive,
        "levels": st.integers(MIN_LEVELS, MAX_LEVELS),
        "sweep": st.just(True),
        "n_paths": st.integers(1 if command == "simulate" else 50, 500),
        "n_steps": st.integers(1, 10**6),
        "n_walks": st.integers(1, 10**6),
        "n_samples": st.integers(10**4, 10**6),
        "rs": st.builds(RationalStep, st.integers(1, 5), st.integers(1, 5)),
        "horizons": times(2),
        "t_grid": times(1),
    }
    needed, optional = READS[command]
    kwargs = {key: draw(values[key]) for key in needed.split()}
    kwargs.update({key: draw(values[key]) for key in optional.split() if draw(st.booleans())})
    if kwargs.get("criterion") == "empirical" and "horizons" not in kwargs:
        kwargs["horizons"] = draw(values["horizons"])
    # a side activity's keys come with the key that switches the activity on
    criterion = kwargs.get("criterion", "auto") if command == "classify" else None
    if criterion == "auto":
        criterion = "mean" if schedule.dim == 1 and period_mean(schedule) is not None else "chung-fuchs"
    switch, side = SIDE.get((command, criterion), (None, ""))
    if switch not in kwargs and kwargs.keys() & set(side.split()):
        kwargs[switch] = draw(values[switch])
    if kwargs.get("criterion") == "chung-fuchs":
        kwargs.update({key: draw(values[key]) for key in LADDER.split() if draw(st.booleans())})
    return RunConfig(schedule=schedule, command=command, seed=draw(st.integers(0, 2**63 - 1)), **kwargs)


@settings(max_examples=60, deadline=None)
@given(config=configs())
def test_render_parse_round_trip(config):
    assert parse_config(render_config(config)) == config


def test_diagonal_spellings_parse_to_their_matrix_forms():
    head = "[schedule]\nperiod = 1.0\nsegment = 1.0 "
    tail = "\n[run]\ncommand = simulate\nseed = 1\nhorizon = 2.0\nstep = 0.5\n"

    def model(segment):
        return parse_config(head + segment + tail).schedule.segments[0][1]

    for var, cov in (("2.0", "2.0"), ("2.0", "2.0,0.0;0.0,2.0"), ("1.0,3.0", "1.0,0.0;0.0,3.0")):
        drift = "0.5" if cov == "2.0" else "0.5,-1.0"
        assert model(f"brownian drift={drift} var={var}") == model(f"brownian drift={drift} cov={cov}")
        jump = f"cpoisson rate=1.5 jump=gauss jump_mean={drift}"
        assert model(f"{jump} jump_var={var}") == model(f"{jump} jump_cov={cov}")


def test_render_covers_all_catalog_kinds():
    schedule = SemiLevySchedule(
        period=4.0,
        segments=(
            (1.0, BrownianDrift(0.5, 1.5)),
            (1.0, SymmetricStable(1.3, 0.9, 1)),
            (1.0, CompoundPoisson(2.0, GaussianJump(0.1, 0.7))),
            (1.0, PureDrift(-0.25)),
        ),
    )
    config = RunConfig(schedule=schedule, command="simulate", seed=9, horizon=2.0, step=0.5)
    assert parse_config(render_config(config)) == config
    # a sum of models has no segment kind
    summed = replace(config, schedule=single_segment(SumModel((PureDrift(1.0), BrownianDrift(0.0, 1.0)))))
    with pytest.raises(ConfigError, match="^SumModel is not expressible in the config grammar$"):
        render_config(summed)
    # as a later segment of a splice too
    spliced = replace(config, schedule=make_splice(PureDrift(1.0), summed.schedule.models[0], 0.5, 1.0))
    with pytest.raises(ConfigError, match="^SumModel is not expressible in the config grammar$"):
        render_config(spliced)


CANONICAL = """\
[schedule]
period = 6.0
segment = 1.0 brownian drift=0.5,-1.0 cov=2.0,0.5;0.5,1.0
segment = 1.0 stable alpha=1.5 scale=0.25 dim=2
segment = 1.0 cpoisson rate=2.0 jump=point jump_x=1.0,0.0
segment = 1.0 cpoisson rate=0.5 jump=uniform jump_lo=-1.0,0.0 jump_hi=1.0,0.5
segment = 1.0 cpoisson rate=1.5 jump=gauss jump_mean=0.1,0.2 jump_cov=3.0,0.0;0.0,4.0
segment = 0.5 cpoisson rate=3.0 jump=laplace jump_loc=0.0,1.0 jump_scale=0.5,2.0
segment = 0.5 drift gamma=0.1,-0.3

[run]
command = classify
seed = 7
a = 1.5
horizon = 10.0
q0 = 0.02
step = 0.1
levels = 8
n_paths = 50
n_samples = 20000
n_steps = 100
n_walks = 30
criterion = chung-fuchs
sweep = true
rs = 1/3
horizons = 1.0,2.5
t_grid = 0.5,4.0
"""


def test_render_canonical_text():
    # every kind, every jump law and every run key, in the canonical order and spelling
    schedule = SemiLevySchedule(
        period=6.0,
        segments=(
            (1.0, BrownianDrift([0.5, -1.0], [[2.0, 0.5], [0.5, 1.0]])),
            (1.0, SymmetricStable(1.5, 0.25, 2)),
            (1.0, CompoundPoisson(2.0, PointMass([1.0, 0.0]))),
            (1.0, CompoundPoisson(0.5, UniformJump([-1.0, 0.0], [1.0, 0.5]))),
            (1.0, CompoundPoisson(1.5, GaussianJump([0.1, 0.2], [3.0, 4.0]))),
            (0.5, CompoundPoisson(3.0, LaplaceJump([0.0, 1.0], [0.5, 2.0]))),
            (0.5, PureDrift([0.1, -0.3])),
        ),
    )
    config = RunConfig(
        schedule=schedule, command="classify", seed=7, a=1.5, q0=0.02, levels=8, criterion="chung-fuchs",
        sweep=True, horizon=10.0, step=0.1, n_paths=50, n_steps=100, n_walks=30, rs=RationalStep(2, 6),
        horizons=(1.0, 2.5), t_grid=(0.5, 4.0), n_samples=20000,
    )
    assert render_config(config) == CANONICAL
    # the parse half: one canonical config per command, with the keys it reads
    for command, (needed, optional) in READS.items():
        keys = {*needed.split(), *optional.split(), *(LADDER.split() if command == "classify" else ())}
        own = RunConfig(schedule=schedule, command=command, seed=7, **{key: getattr(config, key) for key in keys})
        text = "".join(
            line for line in CANONICAL.replace("classify", command).splitlines(keepends=True)
            if line.partition(" = ")[0] not in RUN_KEYS.keys() - keys - {"command", "seed"}
        )
        assert render_config(own) == text
        assert parse_config(text) == own


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def test_run_classify_transient_drift(tmp_path, capsys):
    # both segments drift the same way: transient by the mean criterion
    text = (
        "[schedule]\nperiod = 2.0\nsegment = 0.7 drift gamma=1.0\nsegment = 1.3 drift gamma=1.0\n"
        "[run]\ncommand = classify\nseed = 1\n"
    )
    config = parse_config(text)
    assert run(config, out_dir=tmp_path) == 0
    line = (tmp_path / "verdict.txt").read_text().strip()
    assert line.startswith("decision=Transient criterion=MeanCriterion")
    assert "classify: decision=Transient" in capsys.readouterr().out


def test_run_outputs_byte_identical(tmp_path, capsys):
    config = parse_config(BASIC + "criterion = chung-fuchs\nlevels = 6\n")
    run(config, out_dir=tmp_path / "a")
    run(config, out_dir=tmp_path / "b")
    capsys.readouterr()
    assert (tmp_path / "a" / "verdict.txt").read_bytes() == (tmp_path / "b" / "verdict.txt").read_bytes()


def test_run_simulate_writes_paths(tmp_path, capsys):
    text = (
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\ncommand = simulate\nseed = 7\nhorizon = 2.0\nstep = 0.5\nn_paths = 3\n"
    )
    run(parse_config(text), out_dir=tmp_path)
    capsys.readouterr()
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["path_0000.csv", "path_0001.csv", "path_0002.csv"]
    header = (tmp_path / "path_0000.csv").read_text().splitlines()[0]
    assert header == "t,x1"


def test_lln_single_horizon_runs_on_a_finite_mean(tmp_path):
    # the strong-law check needs one horizon on a finite mean, two only on an infinite one
    text = "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n[run]\ncommand = lln\nseed = 5\n"
    run(parse_config(text + "horizons = 10\nn_paths = 50\n"), out_dir=tmp_path)
    assert (tmp_path / "lln.csv").read_text().startswith("T,mean_dev,max_dev\n10,")


def test_run_skeleton_and_lln(tmp_path, capsys):
    skeleton_text = (
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\ncommand = skeleton\nseed = 3\nrs = 1/1\nn_steps = 20\nn_walks = 50\na = 1.0\n"
    )
    run(parse_config(skeleton_text), out_dir=tmp_path / "sk")
    assert (tmp_path / "sk" / "ball_visits.csv").read_text().startswith("n,p_hat,partial_sum")

    lln_text = (
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\ncommand = lln\nseed = 5\nhorizons = 10.0,40.0\nn_paths = 50\n"
        "t_grid = 1.0,5.0\nn_samples = 10000\n"
    )
    run(parse_config(lln_text), out_dir=tmp_path / "ll")
    assert (tmp_path / "ll" / "lln.csv").read_text().startswith("T,mean_dev,max_dev")
    assert (tmp_path / "ll" / "wlln.csv").read_text().startswith("t,tail,tail_se,trunc_mean,trunc_se")
    out = capsys.readouterr().out
    assert "skeleton:" in out and "lln:" in out


def test_run_classify_with_diagnostic(tmp_path, capsys):
    text = (
        "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=1.0\n"
        "[run]\ncommand = classify\nseed = 2\nhorizons = 5.0,10.0\nn_paths = 50\nstep = 0.05\n"
    )
    run(parse_config(text), out_dir=tmp_path)
    capsys.readouterr()
    verdict = (tmp_path / "verdict.txt").read_text()
    assert "decision=Transient" in verdict
    assert "diagnostic flag=saturation-consistent-with-transience" in verdict
    assert (tmp_path / "occupation.csv").read_text().startswith("path_id,occupation")


def test_run_classify_sweep_uses_config_ladder(tmp_path, capsys):
    text = (
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\ncommand = classify\nseed = 3\ncriterion = chung-fuchs\n"
        "levels = 6\nq0 = 0.02\nsweep = true\n"
    )
    run(parse_config(text), out_dir=tmp_path)
    capsys.readouterr()
    main_line, *sweep = (tmp_path / "verdict.txt").read_text().splitlines()
    assert [line.split()[1] for line in sweep] == ["a=0.5", "a=1.0", "a=2.0"]
    for line in [main_line, *sweep]:
        assert " levels=6 " in line and " q0=0.02 " in line
    # the middle radius is the main verdict itself
    assert sweep[1] == "sweep a=1.0 " + main_line


BM_RUN = "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n[run]\n"
DRIFTS_RUN = "[schedule]\nperiod = 1.0\nsegment = 0.5 drift gamma=0.25\nsegment = 0.5 drift gamma=0.5\n[run]\n"
ONE_DRIFT = single_segment(PureDrift([0.5]), 1.0)

# config (its text, or a RunConfig built in code) -> its stdout line.  The
# configs built in code set horizon, step and a as integers, printed as floats
# like the parsed ones.
PINNED_STDOUT = {
    "simulate": (
        BM_RUN + "command = simulate\nseed = 7\nhorizon = 2.0\nstep = 0.5\nn_paths = 3\n",
        "simulate: n_paths=3 horizon=2.0 step=0.5 seed=7",
    ),
    "simulate-code": (
        RunConfig(schedule=ONE_DRIFT, command="simulate", seed=1, horizon=2, step=1),
        "simulate: n_paths=1 horizon=2.0 step=1.0 seed=1",
    ),
    "skeleton": (
        DRIFTS_RUN + "command = skeleton\nseed = 3\nrs = 1/2\nn_steps = 20\nn_walks = 4\na = 1.5\n",
        "skeleton: n_walks=4 n_steps=20 rs=1/2 a=1.5 final_partial_sum=7.0",
    ),
    "skeleton-code": (
        RunConfig(schedule=ONE_DRIFT, command="skeleton", seed=1, rs=RationalStep(1, 1), n_steps=4, n_walks=2, a=1),
        "skeleton: n_walks=2 n_steps=4 rs=1/1 a=1.0 final_partial_sum=1.0",
    ),
    "lln": (BM_RUN + "command = lln\nseed = 5\nhorizons = 10.0,40.0\nn_paths = 50\n", "lln: flag=slln-consistent"),
    "lln-t_grid": (
        BM_RUN + "command = lln\nseed = 5\nhorizons = 10.0,40.0\nn_paths = 50\nt_grid = 1.0,5.0\nn_samples = 10000\n",
        "lln: flag=slln-consistent wlln_flag=tail-vanishes",
    ),
}


@pytest.mark.parametrize("case", PINNED_STDOUT)
def test_stdout_lines_are_pinned(tmp_path, capsys, case):
    config, line = PINNED_STDOUT[case]
    assert run(parse_config(config) if isinstance(config, str) else config, out_dir=tmp_path) == 0
    assert capsys.readouterr().out == line + "\n"


def _reference_line(pairs) -> str:
    """key=value pairs by the rule README states: floats in shortest exact form,
    integers as integers, sequences comma-joined, spaces as _."""

    def text(v):
        if isinstance(v, str):
            return v.replace(" ", "_")
        if isinstance(v, (int, np.integer)):
            return str(v)
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return ",".join(repr(float(x)) for x in np.ravel(v))

    return " ".join(f"{key}={text(value)}" for key, value in pairs)


def _reference_verdict_line(verdict) -> str:
    pairs = [("decision", verdict.decision.value), ("criterion", verdict.criterion.value)]
    return _reference_line(pairs + sorted(verdict.evidence.items()))


@pytest.mark.parametrize("config, a, diagnostic", [
    (
        parse_config(DRIFTS_RUN + "command = classify\nseed = 2\ncriterion = chung-fuchs\nlevels = 6\nsweep = true\n"
                     "horizons = 5.0,10.0\nn_paths = 50\nstep = 0.25\n"),
        1.0,
        "diagnostic flag=saturation-consistent-with-transience mean_occupation=2.75,2.75",
    ),
    (
        RunConfig(schedule=ONE_DRIFT, command="classify", seed=1, criterion="chung-fuchs", levels=6, sweep=True, a=1,
                  horizons=(5.0, 10.0), n_paths=50, step=1),
        1,
        "diagnostic flag=saturation-consistent-with-transience mean_occupation=2.0,2.0",
    ),
], ids=["text", "code"])
def test_sweep_and_diagnostic_lines_are_pinned(tmp_path, capsys, config, a, diagnostic):
    # the ladder's sums run through BLAS, whose last bits vary by CPU: its verdicts are
    # drawn here and rendered by the stated rule; the line shapes around them are pinned
    schedule = config.schedule
    verdict = chung_fuchs_verdict(schedule, a=a, seed=config.seed, levels=6)
    (_, low), (_, high) = radius_sweep(schedule, (0.5 * a, 2.0 * a), seed=config.seed, levels=6)
    main_line = _reference_verdict_line(verdict)
    sweep = [f"sweep a={r} {_reference_verdict_line(v)}" for r, v in (("0.5", low), ("1.0", verdict), ("2.0", high))]
    assert run(config, out_dir=tmp_path) == 0
    assert capsys.readouterr().out == f"classify: {main_line}\n"
    assert (tmp_path / "verdict.txt").read_text() == "\n".join([main_line, *sweep, diagnostic]) + "\n"


def test_config_built_in_code_runs_as_its_rendered_text(tmp_path, capsys):
    # integers given for the float keys a and q0 print as the parsed floats, in the
    # verdict's evidence as in its sweep lines
    config = RunConfig(schedule=ONE_DRIFT, command="classify", seed=1, criterion="chung-fuchs", levels=6, sweep=True,
                       a=1, q0=1, horizons=(5.0, 10.0), n_paths=50, step=1)
    written = []
    for case, run_config in enumerate((config, parse_config(render_config(config)))):
        assert run(run_config, out_dir=tmp_path / str(case)) == 0
        written.append((capsys.readouterr().out, (tmp_path / str(case) / "verdict.txt").read_text()))
    assert written[0] == written[1]
    assert " a=1.0 " in written[0][0] and " q0=1.0 " in written[0][0]


def test_whole_float_levels_round_trip(tmp_path, capsys):
    # check_levels takes 6.0 as 6 levels; its text form is the integer, which
    # parse_config reads back, and the verdict prints the same integer either way
    config = RunConfig(schedule=ONE_DRIFT, command="classify", seed=1, criterion="chung-fuchs", levels=6.0)
    text = render_config(config)
    assert "\nlevels = 6\n" in text
    assert parse_config(text) == config
    written = []
    for case, run_config in enumerate((config, parse_config(text))):
        assert run(run_config, out_dir=tmp_path / str(case)) == 0
        written.append((capsys.readouterr().out, (tmp_path / str(case) / "verdict.txt").read_text()))
    assert written[0] == written[1]
    assert " levels=6 " in written[0][0]


def test_main_classify_drift_criterion_refused_at_its_line(tmp_path, capsys):
    # mean is the one zero-mean test; the retired drift criterion is no choice
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASIC + "criterion = drift\n")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: line 10: criterion must be one of auto, chung-fuchs, mean, empirical\n"
    assert not (tmp_path / "o").exists()


def test_main_classify_mean_zero_test_is_relative(tmp_path, capsys):
    # 0.7 * 90000 - 0.9 * 70000 is 0 in decimal and -7.3e-12 in floating point
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.6\nsegment = 0.7 brownian drift=90000 var=1\n"
        "segment = 0.9 brownian drift=-70000 var=1\n[run]\nseed = 1\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    line = "decision=Recurrent criterion=MeanCriterion period_mean=-7.275957614183426e-12"
    assert (tmp_path / "o" / "verdict.txt").read_text() == line + "\n"
    assert capsys.readouterr().out == f"classify: {line}\n"
    # a one-period mean that overflows is a numerical failure
    cfg.write_text(
        "[schedule]\nperiod = 3.0\nsegment = 1.0 brownian drift=1e308 var=1\n"
        "segment = 2.0 brownian drift=-1e308 var=1\n[run]\nseed = 1\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 2
    assert "numerical failure: the one-period mean overflowed" in capsys.readouterr().err
    assert not (tmp_path / "p" / "verdict.txt").exists()


GAMMA_1E160 = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=1e160\n[run]\nseed = 1\na = 1e200\n"


def test_skeleton_ball_of_radius_1e200_holds_steps_whose_squares_overflow(tmp_path, capsys):
    # every step, 1e160 to 3e160, lies inside B_1e200, though its square overflows
    cfg = tmp_path / "c.cfg"
    cfg.write_text(GAMMA_1E160 + "rs = 1/1\nn_steps = 3\nn_walks = 2\n")
    assert main(["skeleton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "o" / "ball_visits.csv").read_text() == "n,p_hat,partial_sum\n0,1,0\n1,1,1\n2,1,2\n3,1,3\n"


def test_empirical_ball_of_radius_1e200_holds_cells_whose_squares_overflow(tmp_path, capsys):
    # the path never leaves B_1e200: its occupations are the horizons 1 and 2 themselves
    cfg = tmp_path / "c.cfg"
    cfg.write_text(GAMMA_1E160 + "criterion = empirical\nhorizons = 1,2\nstep = 0.5\nn_paths = 50\n")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    line = (
        "decision=Inconclusive criterion=Empirical a=1e+200 flag=growth-consistent-with-recurrence "
        "horizons=1.0,2.0 mean_occupation=1.0,2.0 reason=occupation_growth_is_a_diagnostic,_not_a_proof step=0.5"
    )
    assert captured.out == f"classify: {line}\n"
    assert (tmp_path / "o" / "occupation.csv").read_text() == "path_id,occupation\n" + "".join(
        f"{i},2\n" for i in range(50)
    )


def test_run_missing_required_key(tmp_path):
    text = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\ncommand = simulate\nseed = 1\n"
    with pytest.raises(ConfigError, match="^simulate needs run keys: horizon, step$"):
        parse_config(text)


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_success_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASIC)
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o1")]) == 0
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
    capsys.readouterr()
    assert (tmp_path / "o1" / "verdict.txt").read_bytes() == (tmp_path / "o2" / "verdict.txt").read_bytes()


def test_main_exit_codes(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[schedule]\nperiod = 1.0\nsegment = 0.5 drift gamma=1.0\n[run]\nseed = 1\n")
    assert main(["classify", "--config", str(bad), "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_main_numerical_failure_exits_two(tmp_path, capsys):
    # characteristic function oscillating at frequency 1e6 defeats quadrature
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 cpoisson rate=1.0 jump=point jump_x=1000000.0\n"
        "[run]\nseed = 4\ncriterion = chung-fuchs\nlevels = 6\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_main_overflowing_exponent_exits_two(tmp_path, capsys):
    # a recurrent Gaussian whose exponent overflows the integrand: an error,
    # not an all-zero ladder read as Transient
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 stable alpha=2.0 scale=1e200\n"
        "[run]\nseed = 4\ncriterion = chung-fuchs\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "o" / "verdict.txt").exists()


def _cli_process(tmp_path, command: str, text: str) -> subprocess.CompletedProcess:
    """The CLI run on the config text in a fresh interpreter, where numpy's warnings reach stderr."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    src = str(Path(semilevy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "semilevy.cli", command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    return subprocess.run(args, capture_output=True, text=True, timeout=120, env=env)


def test_underflowing_ladder_exits_two_with_one_stderr_line(tmp_path):
    # q0 = 1e-300 squares to zero next to the origin; the division by zero is
    # the numerical failure itself, not a RuntimeWarning printed before it
    done = _cli_process(
        tmp_path,
        "classify",
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\nseed = 4\ncriterion = chung-fuchs\nq0 = 1e-300\n",
    )
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("numerical failure")
    assert not (tmp_path / "o" / "verdict.txt").exists()


HUGE_DRIFTS = (
    "[schedule]\nperiod = 3.0\nsegment = 1.0 brownian drift=1e308 var=1\n"
    "segment = 2.0 brownian drift=-1e308 var=1\n[run]\nseed = 1\n"
)
UNIT_BM = "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0 var=1\n[run]\nseed = 1\n"


@pytest.mark.parametrize(
    "command, text",
    [
        # the one-period mean and the exponent overflow
        ("classify", HUGE_DRIFTS + "criterion = auto\n"),
        ("classify", HUGE_DRIFTS + "criterion = chung-fuchs\n"),
        # ... and so do the draws and their sums
        ("lln", HUGE_DRIFTS + "horizons = 10,20\n"),
        # only the weak law's jumps overflow, in three chunks drawn one ahead on a worker
        ("lln", "[schedule]\nperiod = 1.0\nsegment = 1.0 cpoisson rate=1 jump=laplace jump_loc=0 jump_scale=1e308\n"
                "[run]\nseed = 1\nhorizons = 1e-6\nn_paths = 50\nt_grid = 1\nn_samples = 196608\n"),
        ("simulate", "[schedule]\nperiod = 1.0\nsegment = 1.0 stable alpha=0.3 scale=1e300\n"
                     "[run]\nseed = 1\nhorizon = 10\nstep = 1\n"),
        # psi is inf far out in the ball, and the integral nan
        ("classify", UNIT_BM + "criterion = chung-fuchs\na = 1e200\n"),
    ],
)
def test_overflow_is_one_stderr_line(tmp_path, command, text):
    # every overflow is read by an explicit check, which is the one line printed
    done = _cli_process(tmp_path, command, text)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("numerical failure")


# the schedule of each key that is a schedule or model value; run keys go with 1-d BM
_INFINITE_SCHEDULES = {
    "period": "period = inf\nsegment = inf brownian drift=1 var=1\n",
    "duration": "period = 1.0\nsegment = inf brownian drift=1 var=1\n",
    "rate": "period = 1.0\nsegment = 1.0 cpoisson rate=inf jump=point jump_x=1\n",
    "scale": "period = 1.0\nsegment = 1.0 stable alpha=1.5 scale=inf\n",
}


@pytest.mark.parametrize(
    "command, keys, key",
    [
        ("classify", "criterion = chung-fuchs\na = inf\n", "a"),
        ("classify", "criterion = chung-fuchs\nq0 = inf\n", "q0"),
        ("simulate", "horizon = inf\nstep = 0.5\n", "horizon"),
        ("simulate", "horizon = 2.0\nstep = inf\n", "step"),
        ("lln", "horizons = 10, inf\n", "horizons"),
        ("lln", "horizons = 10, 100\nt_grid = 1, inf\n", "t_grid"),
        *(("classify", "", key) for key in _INFINITE_SCHEDULES),
    ],
)
def test_infinite_positive_keys_exit_one(tmp_path, capsys, command, keys, key):
    schedule = _INFINITE_SCHEDULES.get(key, "period = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[schedule]\n{schedule}[run]\nseed = 4\n{keys}")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert f"{key} must be positive and finite" in capsys.readouterr().err


def test_main_inconclusive_exits_zero(tmp_path, capsys):
    # Cauchy segment: infinite mean, mean criterion is honestly inconclusive
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 stable alpha=1.0 scale=1.0\n"
        "[run]\nseed = 4\ncriterion = mean\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "decision=Inconclusive" in capsys.readouterr().out


def test_ladder_keys_outside_chung_fuchs_exit_one(tmp_path, capsys):
    # auto resolves to the mean criterion here, which has no ladder to honour
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\nseed = 4\nsweep = true\nlevels = 6\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "levels, sweep" in err and "criterion mean" in err
    assert not (tmp_path / "o" / "verdict.txt").exists()
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\nseed = 4\ncriterion = mean\nq0 = 0.1\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "q0" in capsys.readouterr().err


# a value of each run key beyond command and seed that every command reading it accepts
VALUES = {
    "criterion": "mean", "a": 1.0, "horizon": 2.0, "step": 0.5, "q0": 0.02, "levels": 8, "sweep": True,
    "n_paths": 100, "n_steps": 10, "n_walks": 60, "n_samples": 20000, "rs": RationalStep(1, 2),
    "horizons": (5.0, 10.0), "t_grid": (1.0, 2.0),
}


@pytest.mark.parametrize(
    "command, criterion",
    [("simulate", None), ("skeleton", None), ("lln", None),
     *(("classify", criterion) for criterion in ("mean", "chung-fuchs", "empirical"))],
)
def test_each_run_reads_only_its_own_keys(tmp_path, capsys, command, criterion):
    needed, optional = READS[command]
    reads = {*needed.split(), *optional.split(), *(LADDER.split() if criterion == "chung-fuchs" else ())}
    needed = needed.split() + ["horizons"] * (criterion == "empirical")
    reader = command + (f" with criterion {criterion}" if criterion else "")
    base = {key: VALUES[key] for key in needed}
    if criterion:
        base["criterion"] = criterion
    config = RunConfig(schedule=single_segment(BrownianDrift(0.0, 1.0)), command=command, seed=4, **base)
    # lines 1-6 are the schedule, a blank line, [run] and seed; the keys of base follow
    text = render_config(config).replace(f"command = {command}\n", "")
    assert parse_config(text, default_command=command) == config
    cfg = tmp_path / "c.cfg"
    for key, value in VALUES.items():
        if key in base:
            continue
        extra = f"{key} = {RUN_KEYS[key][1](value)}\n"
        if key in reads:
            # a side activity's key is read with the key that switches the activity on
            switch, side = SIDE.get((command, criterion), (None, ""))
            on = {switch: VALUES[switch]} if key in side.split() else {}
            extra = "".join(f"{k} = {RUN_KEYS[k][1](v)}\n" for k, v in on.items()) + extra
            assert parse_config(text + extra, default_command=command) == replace(config, **on, **{key: value})
            continue
        # the reader refuses the key at its line, and run() refuses it in a config built in code
        cfg.write_text(text + extra)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        line = 7 + len(base)
        assert capsys.readouterr().err == f"error: line {line}: {reader} does not read run keys: {key}\n"
        with pytest.raises(ConfigError, match=f"^{reader} does not read run keys: {key}$"):
            run(replace(config, **{key: value}), out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()
    # a missing needed key is refused at parse, before the command runs
    for key in needed:
        with pytest.raises(ConfigError, match=f"^{reader} needs run keys: {key}$"):
            parse_config(text.replace(f"{key} = {RUN_KEYS[key][1](VALUES[key])}\n", ""), default_command=command)


def test_classify_criteria_match_the_criterion_members_one_to_one(tmp_path, capsys):
    # a retired criterion leaves neither a row nor a Criterion member behind
    shown = []
    for command, criterion in COMMAND_KEYS:
        if command != "classify":
            continue
        side = {"horizons": (5.0, 10.0), "n_paths": 50} if criterion == "empirical" else {}
        schedule = single_segment(BrownianDrift(0.0, 1.0))
        run(RunConfig(schedule=schedule, command=command, seed=4, criterion=criterion, **side), tmp_path / criterion)
        shown.append((tmp_path / criterion / "verdict.txt").read_text().split()[1].partition("=")[2])
    capsys.readouterr()
    assert sorted(shown) == sorted(member.value for member in Criterion)


# case -> (command, schedule and run lines 1-5 plus its own, the keys of a side
# activity, the key that switches it on, the one line of the refusal without it)
_SIDE_ACTIVITY_KEYS = {
    "lln": ("lln", DRIFT + "horizons = 10\n", "n_samples = 50000\n", "t_grid = 1,4,16\n",
            "line 7: lln does not read run keys without t_grid: n_samples"),
    "mean": ("classify", DRIFT + "criterion = mean\n", "n_paths = 70\nstep = 0.5\na = 3.0\n", "horizons = 5,10\n",
             "line 7: classify with criterion mean does not read run keys without horizons: a, n_paths, step"),
    # the ladder reads a, so only the diagnostic's own keys are refused
    "chung-fuchs": ("classify", DRIFT + "criterion = chung-fuchs\nlevels = 6\n", "a = 3.0\nstep = 0.5\n",
                    "horizons = 5,10\n",
                    "line 9: classify with criterion chung-fuchs does not read run keys without horizons: step"),
    # auto picks chung-fuchs on an infinite one-period mean
    "auto": ("classify", _segment("stable alpha=1.0 scale=1.0") + "levels = 6\n", "n_paths = 70\n",
             "horizons = 5,10\n",
             "line 7: classify with criterion chung-fuchs does not read run keys without horizons: n_paths"),
}


@pytest.mark.parametrize("case", list(_SIDE_ACTIVITY_KEYS))
def test_side_activity_keys_refused_at_their_line_while_it_is_out(tmp_path, capsys, case):
    command, text, keys, switch, message = _SIDE_ACTIVITY_KEYS[case]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text + keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()
    # run() refuses the same keys in a config built in code
    config = parse_config(text + keys + switch, default_command=command)
    with pytest.raises(ConfigError, match=f"^{message.partition(': ')[2]}$"):
        run(replace(config, **{switch.partition(" = ")[0]: None}), out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()
    # with the activity on, the same keys run
    cfg.write_text(text + keys + switch)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("criterion", ["mean"])
def test_one_dimensional_criteria_refused_at_their_line_above_dimension_one(tmp_path, capsys, criterion):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=1,0\n[run]\nseed = 4\ncriterion = {criterion}\n")
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    message = f"criterion {criterion} is stated for dimension 1, not 2"
    assert capsys.readouterr().err == f"error: line 6: {message}\n"
    schedule = single_segment(PureDrift([1.0, 0.0]))
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run(RunConfig(schedule=schedule, command="classify", seed=4, criterion=criterion), out_dir=tmp_path / "o")
    assert not (tmp_path / "o").exists()


def test_unbounded_compound_poisson_draw_exits_one(tmp_path, capsys):
    # uniform jumps are held one by one: 5e11 of them per cell pass the memory budget
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 cpoisson rate=1e12 jump=uniform jump_lo=0 jump_hi=1\n"
        "[run]\nseed = 4\nhorizon = 1.0\nstep = 0.5\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "more than the bound" in capsys.readouterr().err
    assert not (tmp_path / "o" / "path_0000.csv").exists()


OVERFLOWING = "[schedule]\nperiod = 1.0\nsegment = 1.0 stable alpha=0.1 scale=1e30\n[run]\nseed = 4\n"


@pytest.mark.parametrize(
    "command, keys, written",
    [
        ("simulate", "horizon = 20.0\nstep = 1.0\n", "path_0000.csv"),
        ("lln", "horizons = 10,20\nn_paths = 50\n", "lln.csv"),
        ("classify", "criterion = empirical\nhorizons = 10,20\nn_paths = 50\n", "occupation.csv"),
    ],
)
def test_overflowing_draws_exit_two(tmp_path, capsys, command, keys, written):
    # (1e30 t)^(1/0.1) overflows: an error, never inf or nan rows in a CSV
    cfg = tmp_path / "c.cfg"
    cfg.write_text(OVERFLOWING + keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "o" / written).exists()


@pytest.mark.parametrize(
    "command, keys, module",
    [
        ("simulate", "horizon = 1e18\nstep = 1.0\n", schedule_module),
        ("lln", "horizons = 10,20\nn_paths = 1000000000000\n", schedule_module),
        # counts past the float range: refused by the bound, not a float overflow
        pytest.param("simulate", "horizon = 10.0\nstep = 1.0\nn_paths = 1" + "0" * 400 + "\n", schedule_module,
                     id="simulate-n_paths-1e400"),
        pytest.param("lln", "horizons = 10,20\nn_paths = 1" + "0" * 400 + "\n", schedule_module,
                     id="lln-n_paths-1e400"),
        # 2^26 one-cell members: 2^27 values of sums, but each member's seed and stream
        # state are Python objects of about 770 bytes, counted as 100 values
        pytest.param("lln", "horizons = 10\nn_paths = 67108864\n", schedule_module, id="lln-2^26-members"),
        pytest.param("simulate", "horizon = 1\nstep = 1\nn_paths = 67108864\n", schedule_module,
                     id="simulate-2^26-members"),
        pytest.param("classify", "criterion = empirical\nhorizons = 1,2\nstep = 1\nn_paths = 67108864\n",
                     schedule_module, id="classify-empirical-2^26-members"),
        pytest.param("skeleton", "rs = 1/1\nn_steps = 1\nn_walks = 67108864\na = 1\n", schedule_module,
                     id="skeleton-2^26-members"),
    ],
)
def test_oversized_runs_exit_one_before_drawing(tmp_path, capsys, monkeypatch, command, keys, module):
    # the bound is checked from the sizes, before any grid, seed list or stream state is built
    def no_seeds(*args, **kwargs):
        raise AssertionError("seed list built before the size check")

    monkeypatch.setattr(module, "split_seeds", no_seeds)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\nseed = 4\n" + keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "more than the bound" in capsys.readouterr().err


def test_drawn_jumps_on_a_two_worker_pool_exit_one_before_any_draw(tmp_path, capsys, monkeypatch):
    # each path's last cell expects 5.4e7 uniform jumps in d = 2, each coordinate held with its
    # slot index, and two paths are in flight on a two-worker pool: past the budget, so no jump is
    # drawn (such a run once peaked at 3.3 GB)
    def no_draw(*args):
        raise AssertionError("a compound Poisson batch was drawn before the size check")

    monkeypatch.setattr(schedule_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(CompoundPoisson, "_draw", no_draw)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1e300\nsegment = 0.1 cpoisson rate=3 jump=uniform jump_lo=0,0 jump_hi=1,1\n"
        "segment = 1e300 brownian drift=0,0 var=1\n"
        "[run]\nseed = 4\nhorizons = 1, 1e300, 1.7976931348623157e308\nn_paths = 50\n"
    )
    assert main(["lln", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: one sampling call would hold") and "more than the bound" in err


# A run's traced peak stays within this factor of the values its size checks counted, 8 bytes
# each: fixed before the first run of the test below
MEMORY_FACTOR = 4
SIM = (
    "[schedule]\nperiod = 1.0\nsegment = 0.5 brownian drift=0.2 var=1\n"
    "segment = 0.25 cpoisson rate=1 jump=point jump_x=0.5\nsegment = 0.25 drift gamma=-0.4\n[run]\nseed = 3\n"
)
THREE = (
    "[schedule]\nperiod = 3.0\nsegment = 1.0 brownian drift=0.1 var=1\nsegment = 1.0 stable alpha=1.5 scale=0.5\n"
    "segment = 1.0 cpoisson rate=2 jump=uniform jump_lo=-1 jump_hi=1\n[run]\nseed = 3\n"
)


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", SIM + "horizon = 4096\nstep = 0.125\nn_paths = 2\n"),
        ("classify", "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0,0 var=1\n[run]\nseed = 3\n"
                     "criterion = empirical\nhorizons = 100,200\nn_paths = 60\nstep = 0.1\n"),
        ("skeleton", THREE + "rs = 1/2\nn_steps = 32768\nn_walks = 4\na = 1\n"),
        ("lln", "[schedule]\nperiod = 2.0\nsegment = 1.0 brownian drift=0.5 var=1\n"
                "segment = 1.0 cpoisson rate=2 jump=gauss jump_mean=-0.25 jump_var=0.5\n[run]\nseed = 3\n"
                "horizons = 10,40,160,640\nn_paths = 200\nt_grid = 1,4,16\nn_samples = 200000\n"),
    ],
)
def test_each_command_peaks_within_a_factor_of_what_its_size_checks_count(tmp_path, capsys, monkeypatch, command,
                                                                        text):
    # the sampling commands at a moderate size; a Chung-Fuchs verdict draws nothing, and the
    # arrays of its ladder are bounded by its own chunk sizes
    counted = []

    def spy(*terms, **sizes):
        counted.append(sum(math.prod(map(float, term.values())) for term in terms or [sizes]))
        check_size(*terms, **sizes)

    for module in (schedule_module, models_module, classify_module):
        monkeypatch.setattr(module, "check_size", spy)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    # a first run fills the caches built on first use (the CSV formatter's tables)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "warm")]) == 0
    counted.clear()
    tracemalloc.start()
    try:
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert counted and peak <= MEMORY_FACTOR * 8 * sum(counted)


@pytest.mark.parametrize(
    "command, keys",
    [
        # tables above and below the array formatter's CSV_ARRAY_MIN_VALUES values
        ("simulate", "horizon = 300\nstep = 0.5\nn_paths = 2\n"),
        ("simulate", "horizon = 3\nstep = 0.5\n"),
        ("classify", "criterion = empirical\nhorizons = 5,10\nn_paths = 600\nstep = 0.5\n"),
        ("skeleton", "rs = 1/2\nn_steps = 300\nn_walks = 5\na = 1\n"),
        ("lln", "horizons = " + ",".join(str(h) for h in range(10, 2010, 10)) + "\nn_paths = 50\n"
                "t_grid = 1,2,4\nn_samples = 10000\n"),
    ],
)
def test_each_csv_file_is_its_writers_text(tmp_path, capsys, command, keys):
    # the CLI streams each table to its file a chunk at a time; the bytes are those of the
    # writer's to_csv / *_csv text
    cfg = tmp_path / "c.cfg"
    cfg.write_text(SIM + keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    c = parse_config(cfg.read_text(), command)
    s, seed = c.schedule, c.seed
    if command == "simulate":
        expected = {f"path_{i:04d}.csv": p.to_csv()
                    for i, p in enumerate(sample_paths(s, c.horizon, c.step, c.n_paths or 1, seed))}
    elif command == "classify":
        report = empirical_diagnostic(s, 1.0, c.horizons, c.n_paths, split_seed(seed, 1), step=c.step)
        expected = {"occupation.csv": occupations_csv(report.occupations[:, -1])}
    elif command == "skeleton":
        walks = sample_walks(s, c.rs, c.n_steps, c.n_walks, seed)
        expected = {"ball_visits.csv": ball_visit_curve(walks, c.a).to_csv()}
    else:
        expected = {"lln.csv": strong_law_check(s, c.horizons, c.n_paths, seed).deviations_csv(),
                    "wlln.csv": wlln_conditions(s, c.t_grid, c.n_samples, split_seed(seed, 1)).conditions_csv()}
    written = {f.name: f.read_bytes() for f in (tmp_path / "o").iterdir() if f.suffix == ".csv"}
    assert written == {name: text.encode() for name, text in expected.items()}


def test_writing_a_csv_file_holds_one_chunk_of_text(tmp_path):
    # a path of 2^18 cells is 6.7 MB of CSV text; the file is written a chunk at a time, and
    # writing it holds about one chunk's working set beyond the path (the whole text, joined
    # and encoded, once peaked at 17.6 MB)
    path = sample_path(single_segment(BrownianDrift(0.0, 1.0)), float(1 << 18), 1.0, seed=5)
    write_csv(tmp_path / "warm.csv", *path.csv_table())  # the formatter's tables are built on first use
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_csv(tmp_path / "p.csv", *path.csv_table())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (tmp_path / "p.csv").read_bytes() == path.to_csv().encode()
    assert (tmp_path / "p.csv").stat().st_size > 6e6
    assert peak <= 300 * CSV_CHUNK_VALUES


def test_poisson_mean_past_numpys_bound_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[schedule]\nperiod = 1.0\nsegment = 1.0 cpoisson rate=1e20 jump=point jump_x=1\n"
                   "[run]\nseed = 4\nhorizon = 1.0\nstep = 0.5\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: compound Poisson rate 1e+20 over a duration of 0.5 expects 5e+19 jumps, more than numpy's "
        "Poisson sampler takes (9.22337e+18)\n"
    )
    assert not (tmp_path / "o" / "path_0000.csv").exists()


def test_huge_levels_exit_one_before_any_ladder(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASIC + "criterion = chung-fuchs\nlevels = 1000000000\n")
    t0 = time.perf_counter()
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "levels" in capsys.readouterr().err


def test_failed_weak_law_leaves_no_lln_csv(tmp_path, capsys):
    # the strong-law part succeeds, the weak-law part exceeds the size bound
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\nseed = 4\nhorizons = 10,20\nn_paths = 100\nt_grid = 1,2\nn_samples = 1000000000\n"
    )
    assert main(["lln", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "more than the bound" in capsys.readouterr().err
    assert not (tmp_path / "o" / "lln.csv").exists()
    assert not (tmp_path / "o" / "wlln.csv").exists()


def _scipy_stats_and_special_loaded_after(code: str) -> str:
    # run code in a fresh process and list which of the two it left in sys.modules
    code += "; print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
    src = str(Path(semilevy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_leaves_scipy_stats_and_special_unloaded():
    # scipy.stats and scipy.special are imported only by the QMC path
    assert _scipy_stats_and_special_loaded_after("import sys, semilevy.cli") == "[]"


def test_d3_verdict_leaves_scipy_stats_and_special_unloaded():
    # a 3-d ladder runs on Gauss-Kronrod boxes, so it needs neither module
    code = (
        "import sys, numpy as np; from semilevy.classify import chung_fuchs_verdict; "
        "from semilevy.models import BrownianDrift; from semilevy.schedule import single_segment; "
        "chung_fuchs_verdict(single_segment(BrownianDrift(np.zeros(3), np.eye(3)), 1.0))"
    )
    assert _scipy_stats_and_special_loaded_after(code) == "[]"


def test_invariant_d4_verdict_leaves_scipy_stats_and_special_unloaded():
    # a rotation-invariant 4-d law without a drift takes the radial panels, whose sphere area
    # comes from math.lgamma, so it needs neither module either
    code = (
        "import sys, numpy as np; from semilevy.classify import chung_fuchs_verdict; "
        "from semilevy.models import SymmetricStable; from semilevy.schedule import single_segment; "
        "v = chung_fuchs_verdict(single_segment(SymmetricStable(1.5, 1.0, 4), 1.0)); "
        "assert 'quad_rel_err' in v.evidence"
    )
    assert _scipy_stats_and_special_loaded_after(code) == "[]"


# ---------------------------------------------------------------------------
# the CLI contract under random lln configs
# ---------------------------------------------------------------------------

# parameter texts at the edges of the float range, in the spellings the reader takes: most
# valid, so that most configs reach the samplers, and a few that the reader refuses
POSITIVE = ["5e-324", "2.2250738585072014e-308", "1e-300", "0.5", "1", "1e300", "1.7976931348623157e308"]
NONNEGATIVE = ["0", "-0.0", *POSITIVE]
EDGE = [*NONNEGATIVE, "-1", "-1e300", "-1.7976931348623157e308"]
ALPHAS = ["1e-300", "0.01", "0.3", "1", "1.5", "1.9999999999999998", "2"]
# point and Gaussian jumps hold only a count (and a normal) per cell, so the memory budget
# admits any rate; a cell's count then needs a Poisson mean numpy takes, at most about 9.2e18.
# Uniform and Laplace jumps are drawn one by one, and a batch just below the budget holds about
# 1 GB of them and their slots, so they take rates whose batches, on these durations and times,
# hold a few thousand jumps or pass the budget
RATES = ["1e-300", "0.5", "3", "6710.8864", "67108864", "9.2e18", "9.3e18", "1e300"]
DRAWN_RATES = ["0.5", "3", "1e300"]
TIMES = ["5e-324", "1e-300", "1e-6", "0.5", "1", "10", "1e3", "1e300", "1.7976931348623157e308"]
REFUSED = ["nan", "NaN", "inf", "-inf", "Infinity", "0", "-1", "2.0000000000000004"]
# one to three weak-law chunks, with the thresholds between them
N_SAMPLES = [10**4, 2**16, 2**16 + 1, 2 * 2**16, 2 * 2**16 + 1, 3 * 2**16]


# simulate and empirical steps: every admitted grid, on these times, has at most 4000 cells
STEPS = ["5e-324", "1e-300", "0.25", "0.5", "1", "10", "1e300", "1.7976931348623157e308"]
RATIONAL_STEPS = ["1/1", "1/2", "3/7", "2/1", "9223372036854775807/1", "1/9223372036854775807"]


@st.composite
def config_texts(draw, command: str):
    """(config text, the files a successful run writes): a run of command on a 1- or 2-d
    schedule of edge values, with run keys of edge values too."""
    dim = draw(st.sampled_from([1, 2]))

    def value(values):
        # one value in about twenty is one the reader may refuse
        return draw(st.sampled_from(REFUSED if draw(st.integers(0, 19)) == 0 else values))

    def vec(values=EDGE):
        return ",".join(value(values) for _ in range(dim))

    def box():
        lo, hi = zip(*(sorted(draw(st.lists(st.sampled_from(EDGE), min_size=2, max_size=2)), key=float)
                       for _ in range(dim)))
        return f"jump_lo={','.join(lo)} jump_hi={','.join(hi)}"

    jumps = {
        "point": lambda: f"jump_x={vec()}",
        "uniform": box,
        "gauss": lambda: f"jump_mean={vec()} jump_var={vec(NONNEGATIVE)}",
        "laplace": lambda: f"jump_loc={vec()} jump_scale={vec(POSITIVE)}",
    }
    kinds = {
        "brownian": lambda: f"drift={vec()} var={vec(NONNEGATIVE)}",
        "stable": lambda: f"alpha={value(ALPHAS)} scale={value(POSITIVE)} dim={dim}",
        "cpoisson": lambda: (lambda jump: f"rate={value(DRAWN_RATES if jump in ('uniform', 'laplace') else RATES)} "
                                          f"jump={jump} {jumps[jump]()}")(draw(st.sampled_from(list(jumps)))),
        "drift": lambda: f"gamma={vec()}",
    }
    # 1e290, not 1e300: a period of 1e300 would take 1.8e308 to about 2e8 periods, and a drawn
    # jump law's batch over them below the memory budget on one CPU
    durations = draw(st.lists(st.sampled_from([0.1, 0.2, 0.7, 1.0, 1e-300, 1e290]), min_size=1, max_size=3))
    # a period that misses the durations' sum by a few ulps
    period = float(np.sum(durations))
    for _ in range(draw(st.integers(-3, 3))):
        period = float(np.nextafter(period, np.inf))
    lines = ["[schedule]", f"period = {period!r}"]
    for d in durations:
        kind = draw(st.sampled_from(list(kinds)))
        lines.append(f"segment = {d!r} {kind} {kinds[kind]()}")

    def times(least=1):
        # increasing, but now and then with a refused value among them
        picked = draw(st.lists(st.sampled_from(TIMES), min_size=least, max_size=3, unique=True))
        return ", ".join([value(["1"]) if t == "1" else t for t in sorted(picked, key=float)])

    def pick(values):
        return draw(st.sampled_from(values))

    def step(horizon):
        # mostly no longer than the horizon, as a grid needs
        return value([s for s in STEPS if float(s) <= float(horizon)] or STEPS)

    lines += ["[run]", f"command = {command}", f"seed = {draw(st.integers(0, 2**64 - 1))}"]
    if command == "lln":
        lines += [f"horizons = {times()}", f"n_paths = {pick([50, 64])}"]
        weak = draw(st.booleans())
        if weak:
            lines += [f"t_grid = {times()}", f"n_samples = {pick(N_SAMPLES)}"]
        return "\n".join(lines) + "\n", ["lln.csv", "wlln.csv"] if weak else ["lln.csv"]
    if command == "simulate":
        n_paths, horizon = pick([1, 3]), value(TIMES)
        lines += [f"horizon = {horizon}", f"step = {step(horizon)}", f"n_paths = {n_paths}"]
        return "\n".join(lines) + "\n", [f"path_{i:04d}.csv" for i in range(n_paths)]
    if command == "skeleton":
        lines += [f"rs = {pick(RATIONAL_STEPS)}", f"n_steps = {pick([1, 10, 100])}", f"n_walks = {pick([1, 3])}",
                  f"a = {value(POSITIVE)}"]
        return "\n".join(lines) + "\n", ["ball_visits.csv"]
    # classify: each criterion with the keys it reads, the occupation diagnostic now and then
    criterion = pick(["auto", "mean", "chung-fuchs", "empirical"])
    if criterion != "auto" or draw(st.booleans()):
        lines.append(f"criterion = {criterion}")
    diagnostic = criterion == "empirical" or draw(st.booleans())
    if diagnostic:
        horizons = times(least=2)
        lines += [f"horizons = {horizons}", f"n_paths = {pick([50, 64])}", f"step = {step(horizons.split(',')[-1])}"]
    if diagnostic or criterion == "chung-fuchs":
        lines.append(f"a = {value(POSITIVE)}")
    if criterion == "chung-fuchs":
        lines += [f"levels = {pick([6, 8])}", f"q0 = {value(['1e-300', '0.01', '1', '1e300'])}",
                  f"sweep = {pick(['true', 'false'])}"]
    return "\n".join(lines) + "\n", ["occupation.csv", "verdict.txt"] if diagnostic else ["verdict.txt"]


# the first key of each command's summary line
SUMMARY_KEYS = {"simulate": "n_paths", "classify": "decision", "skeleton": "n_walks", "lln": "flag"}


def _keeps_the_cli_contract(capsys, command: str, text: str, files: list):
    """Exit 0, 1 or 2, no warning and no thread left; a failure prints one stderr line and
    writes no file, a success prints its summary line alone and writes files."""
    capsys.readouterr()
    before = threading.active_count()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg, out = Path(tmp) / "c.cfg", Path(tmp) / "o"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out", str(out)])
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    stdout, stderr = capsys.readouterr()
    assert not caught, [str(w.message) for w in caught]
    assert threading.active_count() == before
    assert code in (0, 1, 2)
    if code:
        assert len(stderr.splitlines()) == 1 and stdout == "" and written == []
        assert stderr.startswith("numerical failure: " if code == 2 else "error: ")
    else:
        assert stderr == "" and stdout.startswith(f"{command}: {SUMMARY_KEYS[command]}=")
        assert len(stdout.splitlines()) == 1
        assert written == files


def _contract(examples: int):
    return settings(max_examples=examples, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


# 400 fixed examples, about 4 s
@_contract(400)
@given(case=config_texts("lln"))
def test_lln_configs_keep_the_cli_contract(capsys, case):
    _keeps_the_cli_contract(capsys, "lln", *case)


# the example counts are fixed with the derandomized seed: 200 runs of each command but
# classify, whose four criteria and diagnostic take 400
@_contract(200)
@given(case=config_texts("simulate"))
def test_simulate_configs_keep_the_cli_contract(capsys, case):
    _keeps_the_cli_contract(capsys, "simulate", *case)


@_contract(400)
@given(case=config_texts("classify"))
def test_classify_configs_keep_the_cli_contract(capsys, case):
    _keeps_the_cli_contract(capsys, "classify", *case)


@_contract(200)
@given(case=config_texts("skeleton"))
def test_skeleton_configs_keep_the_cli_contract(capsys, case):
    _keeps_the_cli_contract(capsys, "skeleton", *case)
