"""Config grammar, round-tripping, command execution, and exit codes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semilevy
from semilevy.classify import MAX_LEVELS, MIN_LEVELS
from semilevy.cli import ConfigError, RunConfig, main, parse_config, render_config, run
from semilevy.models import (
    BrownianDrift,
    CompoundPoisson,
    GaussianJump,
    LaplaceJump,
    PointMass,
    PureDrift,
    SymmetricStable,
    UniformJump,
)
from semilevy import lln
from semilevy import schedule as schedule_module
from semilevy.schedule import SemiLevySchedule, make_splice, single_segment
from semilevy.skeleton import RationalStep

BASIC = """
[schedule]
period = 3.0
segment = 1.0 brownian drift=1.0 var=1.0
segment = 2.0 brownian drift=-0.5 var=1.0

[run]
command = classify
seed = 42
"""


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
    text = "[schedule]\nperiod = 1.0\nsegment = 1.0 stable alpha=1.0 scale=1.0\n[run]\ncommand = lln\nseed = 1\n"
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
    text = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\nseed = 5\n"
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
    command = draw(st.sampled_from(["simulate", "classify", "skeleton", "lln"]))
    kwargs = {}
    if draw(st.booleans()):
        kwargs["a"] = draw(positive)
    if draw(st.booleans()):
        kwargs["horizons"] = (1.0, 2.5, 7.0)
    if draw(st.booleans()):
        kwargs["rs"] = RationalStep(draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    if draw(st.booleans()):
        kwargs["n_paths"] = draw(st.integers(1, 500))
    if draw(st.booleans()):
        kwargs["sweep"] = True
    if draw(st.booleans()):
        kwargs["criterion"] = draw(st.sampled_from(["auto", "mean", "chung-fuchs", "drift", "empirical"]))
    for key in ("q0", "horizon", "step"):
        if draw(st.booleans()):
            kwargs[key] = draw(positive)
    if draw(st.booleans()):
        kwargs["levels"] = draw(st.integers(MIN_LEVELS, MAX_LEVELS))
    for key in ("n_steps", "n_walks", "n_samples"):
        if draw(st.booleans()):
            kwargs[key] = draw(st.integers(1, 10**6))
    if draw(st.booleans()):
        kwargs["t_grid"] = tuple(np.cumsum(draw(st.lists(positive, min_size=1, max_size=4))).tolist())
    return RunConfig(schedule=schedule, command=command, seed=draw(st.integers(0, 2**63 - 1)), **kwargs)


@settings(max_examples=60, deadline=None)
@given(config=configs())
def test_render_parse_round_trip(config):
    assert parse_config(render_config(config)) == config


def test_diagonal_spellings_parse_to_their_matrix_forms():
    head = "[schedule]\nperiod = 1.0\nsegment = 1.0 "
    tail = "\n[run]\ncommand = simulate\nseed = 1\n"

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
n_paths = 40
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
        sweep=True, horizon=10.0, step=0.1, n_paths=40, n_steps=100, n_walks=30, rs=RationalStep(2, 6),
        horizons=(1.0, 2.5), t_grid=(0.5, 4.0), n_samples=20000,
    )
    assert render_config(config) == CANONICAL
    assert parse_config(CANONICAL) == config


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


def test_run_missing_required_key(tmp_path):
    text = "[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\ncommand = simulate\nseed = 1\n"
    with pytest.raises(ConfigError, match="horizon"):
        run(parse_config(text), out_dir=tmp_path)


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


def test_underflowing_ladder_exits_two_with_one_stderr_line(tmp_path):
    # q0 = 1e-300 squares to zero next to the origin; the division by zero is
    # the numerical failure itself, not a RuntimeWarning printed before it
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n"
        "[run]\nseed = 4\ncriterion = chung-fuchs\nq0 = 1e-300\n"
    )
    src = str(Path(semilevy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    args = [sys.executable, "-m", "semilevy.cli", "classify", "--config", str(cfg), "--out", str(tmp_path / "o")]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("numerical failure")
    assert not (tmp_path / "o" / "verdict.txt").exists()


@pytest.mark.parametrize(
    "command, keys, key",
    [
        ("classify", "criterion = chung-fuchs\na = inf\n", "a"),
        ("classify", "criterion = chung-fuchs\nq0 = inf\n", "q0"),
        ("simulate", "horizon = inf\nstep = 0.5\n", "horizon"),
        ("simulate", "horizon = 2.0\nstep = inf\n", "step"),
    ],
)
def test_infinite_positive_keys_exit_one(tmp_path, capsys, command, keys, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[schedule]\nperiod = 1.0\nsegment = 1.0 brownian drift=0.0 var=1.0\n[run]\nseed = 4\n" + keys)
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
        "[run]\nseed = 4\ncriterion = drift\nq0 = 0.1\n"
    )
    assert main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "q0" in capsys.readouterr().err


def test_unbounded_compound_poisson_draw_exits_one(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "[schedule]\nperiod = 1.0\nsegment = 1.0 cpoisson rate=1e12 jump=point jump_x=1.0\n"
        "[run]\nseed = 4\nhorizon = 1.0\nstep = 0.5\n"
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "jumps" in capsys.readouterr().err
    assert not (tmp_path / "o" / "path_0000.csv").exists()


OVERFLOWING = "[schedule]\nperiod = 1.0\nsegment = 1.0 stable alpha=0.1 scale=1e30\n[run]\nseed = 4\n"


@pytest.mark.parametrize(
    "command, keys, written",
    [
        ("simulate", "horizon = 20.0\nstep = 1.0\n", "path_0000.csv"),
        ("lln", "horizons = 10,20\nn_paths = 50\n", "lln.csv"),
    ],
)
def test_overflowing_draws_exit_two(tmp_path, capsys, command, keys, written):
    # (1e30 t)^(1/0.1) overflows: an error, never inf or nan rows in a CSV
    cfg = tmp_path / "c.cfg"
    cfg.write_text(OVERFLOWING + keys)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "o" / written).exists()


@pytest.mark.parametrize(
    "command, keys, module",
    [
        ("simulate", "horizon = 1e18\nstep = 1.0\n", schedule_module),
        ("lln", "horizons = 10,20\nn_paths = 1000000000000\n", lln),
    ],
)
def test_oversized_runs_exit_one_before_drawing(tmp_path, capsys, monkeypatch, command, keys, module):
    # the bound is checked from the sizes, before any grid or seed list is built
    def no_seeds(*args, **kwargs):
        raise AssertionError("seed list built before the size check")

    monkeypatch.setattr(module, "split_seeds", no_seeds)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[schedule]\nperiod = 1.0\nsegment = 1.0 drift gamma=0.0\n[run]\nseed = 4\n" + keys)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "more than the bound" in capsys.readouterr().err


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


def test_cli_import_leaves_scipy_stats_and_special_unloaded():
    # scipy.stats and scipy.special are imported only by the d >= 3 QMC path
    code = (
        "import sys, semilevy.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))"
    )
    src = str(Path(semilevy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
