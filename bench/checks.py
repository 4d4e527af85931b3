"""Output checks for every op: verdicts against analytic answers, CSV shape,
closed-form moments and LLN flags.  Checks read only the artifacts the CLI
wrote and the summary line it printed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# tolerance, in standard errors, of every Monte Carlo moment check
SE_LIMIT = 5.0


@dataclass
class Outcome:
    """Result of checking one op.

    status: "ok"; "inconclusive" (an Inconclusive verdict, not a failure);
    "wrong" (a verdict contradicting the analytic answer); or "error" (the
    run failed or an artifact is malformed).
    """

    status: str
    detail: str = ""


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def digest(out: Path) -> str:
    """sha256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _table(path: Path, header: str, rows: int) -> np.ndarray:
    with path.open() as fh:
        first = fh.readline().rstrip("\n")
    _require(first == header, f"{path.name}: header {first!r}, expected {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[0] == rows, f"{path.name}: {data.shape[0]} rows, expected {rows}")
    _require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite values")
    return data


def _moment_check(label: str, x: np.ndarray, mean: float, var: float):
    """Sample mean and variance of iid draws against closed forms at SE_LIMIT."""
    n = x.size
    m = float(x.mean())
    _require(
        abs(m - mean) <= SE_LIMIT * math.sqrt(var / n),
        f"{label}: mean {m:.6g} vs closed form {mean:.6g} (n={n})",
    )
    c = x - m
    s2 = float(np.mean(c * c))
    se = math.sqrt(max(float(np.mean(c**4)) - s2 * s2, 0.0) / n)
    _require(
        abs(s2 - var) <= SE_LIMIT * se,
        f"{label}: variance {s2:.6g} vs closed form {var:.6g} (n={n})",
    )


def _decisions(out: Path) -> list[str]:
    lines = (out / "verdict.txt").read_text().splitlines()
    found = []
    for line in lines:
        words = line.split()
        if words and words[0] == "sweep":
            words = words[2:]
        _require(
            len(words) >= 2 and words[0].startswith("decision=") and words[1] == "criterion=ChungFuchs",
            f"verdict.txt: unexpected line {line[:80]!r}",
        )
        found.append(words[0].split("=", 1)[1])
    return found


def _check_verdict(op, out: Path) -> Outcome:
    decisions = _decisions(out)
    _require(len(decisions) == op.sizes["verdicts"], f"verdict.txt: {len(decisions)} verdicts")
    _require(
        set(decisions) <= {"Recurrent", "Transient", "Inconclusive"},
        f"unknown decision in {decisions}",
    )
    wrong = [d for d in decisions if d != "Inconclusive" and d != op.expect["decision"]]
    if wrong:
        note = " (known mis-verdict)" if op.known_wrong else ""
        return Outcome("wrong", f"{wrong[0]}, analytic answer {op.expect['decision']}{note}")
    if "Inconclusive" in decisions:
        return Outcome("inconclusive")
    return Outcome("ok")


def _check_empirical(op, out: Path) -> Outcome:
    line = (out / "verdict.txt").read_text().splitlines()[0]
    _require(
        line.startswith("decision=Inconclusive criterion=Empirical "),
        f"verdict.txt: {line[:80]!r}",
    )
    occ = _table(out / "occupation.csv", "path_id,occupation", op.sizes["paths"])
    _require(bool(np.all(occ[:, 0] == np.arange(occ.shape[0]))), "occupation.csv: path ids")
    horizon = float(op.run["horizons"].split(",")[-1])
    _require(
        bool(np.all((occ[:, 1] >= 0) & (occ[:, 1] <= horizon * (1 + 1e-9)))),
        "occupation.csv: occupation outside [0, horizon]",
    )
    return Outcome("ok")


def _check_simulate(op, out: Path) -> Outcome:
    n_paths, cells = op.sizes["paths"], op.sizes["cells"]
    cpp = op.expect["cells_per_period"]
    files = sorted(p.name for p in out.glob("path_*.csv"))
    _require(files == [f"path_{i:04d}.csv" for i in range(n_paths)], f"{len(files)} path files")
    increments = []
    step = float(op.run["step"])
    for name in files:
        data = _table(out / name, "t,x1", cells + 1)
        _require(bool(np.all(data[0] == 0.0)), f"{name}: first row is not the origin")
        _require(bool(np.all(np.diff(data[:, 0]) > 0)), f"{name}: time not increasing")
        _require(abs(data[-1, 0] - cells * step) <= 1e-6 * cells * step, f"{name}: horizon")
        increments.append(np.diff(data[::cpp, 1]))
    mean, var = op.schedule.period_moments()
    if var is not None:
        _moment_check("per-period increment", np.concatenate(increments), mean, var)
    return Outcome("ok")


def _check_skeleton(op, out: Path) -> Outcome:
    n_walks, n_steps = op.sizes["walks"], op.sizes["steps"]
    data = _table(out / "ball_visits.csv", "n,p_hat,partial_sum", n_steps + 1)
    n, p_hat, partial = data[:, 0], data[:, 1], data[:, 2]
    _require(bool(np.all(n == np.arange(n_steps + 1))), "ball_visits.csv: step column")
    _require(p_hat[0] == 1.0 and partial[0] == 0.0, "ball_visits.csv: first row is not the origin")
    _require(bool(np.all((p_hat >= 0) & (p_hat <= 1))), "ball_visits.csv: p_hat outside [0, 1]")
    counts = p_hat * n_walks
    _require(bool(np.all(np.abs(counts - np.rint(counts)) <= 1e-6)), "p_hat is not a walk fraction")
    _require(bool(np.all(np.diff(partial) >= 0)), "ball_visits.csv: partial sums decrease")
    expected = np.concatenate([[0.0], np.cumsum(p_hat[1:])])
    _require(
        bool(np.allclose(partial, expected, rtol=1e-9, atol=1e-9)),
        "ball_visits.csv: partial sums do not accumulate p_hat",
    )
    return Outcome("ok")


def _check_lln(op, out: Path, summary: str) -> Outcome:
    flags = dict(w.split("=", 1) for w in summary.split()[1:])
    for key in ("flag", "wlln_flag"):
        _require(flags.get(key) == op.expect[key], f"{key}={flags.get(key)}, expected {op.expect[key]}")
    horizons = [float(h) for h in op.run["horizons"].split(",")]
    dev = _table(out / "lln.csv", "T,mean_dev,max_dev", len(horizons))
    _require(bool(np.all(dev[:, 0] == horizons)), "lln.csv: horizons")
    _require(bool(np.all((dev[:, 1] >= 0) & (dev[:, 1] <= dev[:, 2]))), "lln.csv: mean_dev > max_dev")
    t_grid = [float(t) for t in op.run["t_grid"].split(",")]
    cond = _table(out / "wlln.csv", "t,tail,tail_se,trunc_mean,trunc_se", len(t_grid))
    _require(bool(np.all(cond[:, 0] == t_grid)), "wlln.csv: t grid")
    _require(bool(np.all(cond[:, 1:] >= 0)), "wlln.csv: negative entries")
    mean, var = op.schedule.period_moments()
    if var is not None:
        # the tail has vanished at the largest t, so truncation is negligible
        # and the column is |E[X_p]| up to Monte Carlo error
        trunc_mean, trunc_se = cond[-1, 3], cond[-1, 4]
        _require(
            abs(trunc_mean - abs(mean)) <= SE_LIMIT * trunc_se,
            f"wlln.csv: truncated mean {trunc_mean:.6g} vs |period mean| {abs(mean):.6g}",
        )
    return Outcome("ok")


def check(op, out: Path, summary: str) -> Outcome:
    """Check one successful op's artifacts; malformed output is an error outcome."""
    try:
        if op.command == "classify":
            if op.run["criterion"] == "empirical":
                return _check_empirical(op, out)
            return _check_verdict(op, out)
        if op.command == "simulate":
            return _check_simulate(op, out)
        if op.command == "skeleton":
            return _check_skeleton(op, out)
        return _check_lln(op, out, summary)
    except (CheckFailed, OSError, ValueError, IndexError, KeyError) as exc:
        return Outcome("error", f"{type(exc).__name__}: {exc}")
