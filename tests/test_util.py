"""Shared plumbing: seed splitting, input checks and CSV formatting."""

import threading

import numpy as np
import pytest

from semilevy.classify import empirical_diagnostic
from semilevy.lln import strong_law_check, wlln_conditions
from semilevy.models import BrownianDrift
from semilevy.schedule import make_splice, sample_path, sample_paths, single_segment
from semilevy.skeleton import RationalStep, ball_visit_curve, occupations_csv, sample_walks
from semilevy.util import (
    CSV_ARRAY_MIN_VALUES, CSV_CHUNK_VALUES, MAX_VALUES, _csv_tables, _digits, check_counts, check_increasing,
    check_positive, check_size, format_csv, map_ahead, render_line, split_seed, split_seeds, stream_states,
)

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 123456789, 0x9E3779B97F4A7C15]
INDICES = list(range(300)) + [2**32 - 1, 2**32, 2**32 + 5, 2**40, 2**64 - 1]


def _reference_csv(header, columns, int_columns=0):
    # the row-by-row formatting format_csv replaces
    lines = [header]
    for row in zip(*columns):
        cells = [str(int(v)) for v in row[:int_columns]]
        cells += [format(float(v), ".17g") for v in row[int_columns:]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_format_csv_matches_row_by_row_formatting():
    rng = np.random.default_rng(0)
    n = CSV_CHUNK_VALUES + 17  # three columns: four chunks, the last one short
    mantissas = rng.uniform(-10.0, 10.0, n)
    spread = mantissas * 10.0 ** rng.integers(-300, 301, n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0])
    spread[: special.size] = special
    columns = [np.arange(n), spread, rng.standard_normal(n)]
    assert format_csv("i,x,y", columns, int_columns=1) == _reference_csv("i,x,y", columns, 1)
    assert format_csv("x,y", columns[1:]) == _reference_csv("x,y", columns[1:])
    assert format_csv("x", [np.array([])]) == "x\n"


def _assert_lines_match_percent(x):
    # one "%.17g" line per value; names the first few values that differ
    got = format_csv("x", [x]).split("\n")
    want = ["x", *("%.17g" % v for v in x.tolist()), ""]
    assert len(got) == len(want)
    assert [(g, w) for g, w in zip(got, want) if g != w][:5] == []


def test_format_csv_matches_percent_on_random_bit_patterns():
    # 10**6 random bit patterns; the finite ones, with 2,000 more subnormals per batch
    rng = np.random.default_rng(20261019)
    for _ in range(4):
        x = rng.integers(0, 2**64, 250_000, dtype=np.uint64).view(np.float64)
        subnormal = rng.integers(1, 2**52, 2_000, dtype=np.uint64).view(np.float64)
        _assert_lines_match_percent(np.concatenate([x[np.isfinite(x)], subnormal, -subnormal]))


def test_format_csv_matches_percent_on_edge_values():
    tiny = np.nextafter(0.0, 1.0)
    smallest_normal = np.finfo(float).tiny
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)), [float(f"1e{p}") for p in range(-323, 309)]])
    # exponent form below 1e-4 and from 1e17 on; fixed form between
    boundaries = np.array([1e-5, 1e-4, 1e16, 1e17, 9.99995e-5, 99999999999999984.0, 1e16 - 2.0, 0.5, 1.0])
    largest = np.finfo(float).max
    x = np.concatenate([powers, boundaries, [0.0, tiny, np.nextafter(smallest_normal, 0.0), smallest_normal, largest]])
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x[x < largest], np.inf), [np.inf]])
    _assert_lines_match_percent(np.concatenate([x, -x, [np.nan]]))


def test_format_csv_rounds_near_ties_through_percent():
    # 18 significant digits ending in 5: the 17-digit rounding is an exact
    # tie (broken to even), which the array arithmetic cannot resolve
    rng = np.random.default_rng(5)
    whole = rng.integers(2**50, 2**51, 300).astype(float)  # spacing 0.25 here
    odd = 2 * rng.integers(0, 2**16, 300) + 1
    ties = np.concatenate([whole + 0.25, whole + 0.75, 1.0 + odd * 2.0**-17])
    pow10, shift = _csv_tables()[:2]
    assert _digits(ties, pow10, shift)[2].all()
    _assert_lines_match_percent(np.concatenate([ties, -ties]))
    assert format_csv("x", [np.full(CSV_ARRAY_MIN_VALUES, 1.0 + 2.0**-17)]).split("\n")[1] == "1.0000076293945312"


def test_format_csv_int_columns_print_like_percent_d():
    rng = np.random.default_rng(6)
    n = rng.uniform(-1e18, 1e18, 300)  # from 1e17 on the row goes through %
    n = np.concatenate([n, rng.uniform(-100.0, 100.0, 300), [-0.0, -0.5, 0.5, 1e17, 99999999999999984.0, -2.0**70]])
    columns = [n, rng.standard_normal(n.size)]
    assert format_csv("n,x", columns, int_columns=1) == _reference_csv("n,x", columns, 1)
    with pytest.raises(ValueError, match="NaN"):
        format_csv("n,x", [np.append(n, np.nan), np.zeros(n.size + 1)], int_columns=1)


def test_every_csv_writer_matches_row_by_row_formatting():
    # real outputs, tables above and below CSV_ARRAY_MIN_VALUES values
    bm = single_segment(BrownianDrift(0.0, 1.0))
    splice = make_splice(BrownianDrift(1.0, 1.0), BrownianDrift(-0.5, 1.0), 1.0, 2.0)
    paths = [sample_path(bm, 300.0, 0.1, 3), sample_path(bm, 2.0, 0.1, 4),
             sample_path(single_segment(BrownianDrift([0.1, -0.2], np.eye(2))), 100.0, 0.1, 5)]
    for path in paths:
        header = "t," + ",".join(f"x{j + 1}" for j in range(path.dim))
        assert path.to_csv() == _reference_csv(header, [path.grid, *path.values.T])
    for n_steps in (2000, 40):
        curve = ball_visit_curve(sample_walks(splice, RationalStep(1, 2), n_steps, 10, seed=6), 1.0)
        assert curve.to_csv() == _reference_csv("n,p_hat,partial_sum", [curve.n, curve.p_hat, curve.partial_sum], 1)
    for n_paths in (400, 50):
        occupations = empirical_diagnostic(bm, 1.0, [5.0, 10.0], n_paths, seed=7).occupations[:, -1]
        expected = _reference_csv("path_id,occupation", [np.arange(n_paths), occupations], 1)
        assert occupations_csv(occupations) == expected
    for horizons in (np.arange(1.0, 301.0), [10.0, 100.0]):
        report = strong_law_check(splice, horizons, 50, seed=8)
        expected = _reference_csv("T,mean_dev,max_dev", [report.horizons, report.mean_dev, report.max_dev])
        assert report.deviations_csv() == expected
    for t_grid in (np.linspace(0.5, 5.0, 200), [1.0, 2.0, 4.0]):
        report = wlln_conditions(bm, t_grid, 10_000, seed=9)
        columns = [report.tail_t, report.tail, report.tail_se, np.abs(report.trunc_mean).ravel(),
                   np.abs(report.trunc_se).ravel()]
        assert report.conditions_csv() == _reference_csv("t,tail,tail_se,trunc_mean,trunc_se", columns)


def test_render_line_keeps_the_order_given_and_one_rule_per_value_type():
    # a repeated key stays repeated: a sweep line leads with its radius, and the verdict's evidence holds one too
    pairs = [("a", 2.0), ("a", 2), ("n", np.int64(3)), ("sweep", True), ("reason", "not a proof"),
             ("qs", np.array([0.5, 1e-5])), ("horizons", (5, 10.5)), ("rate", np.float32(0.1)), ("other", None)]
    assert render_line(pairs) == (
        "a=2.0 a=2 n=3 sweep=true reason=not_a_proof qs=0.5,1e-05 horizons=5.0,10.5 rate=0.10000000149011612 other=None"
    )


def _reference_split(master, index):
    # the per-member hash split_seeds replaces
    return int(np.random.SeedSequence((master, index)).generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("master", MASTERS)
def test_split_seeds_match_seed_sequence(master):
    expected = [_reference_split(master, i) for i in INDICES]
    assert split_seeds(master, INDICES) == expected
    assert split_seeds(master, range(300)) == expected[:300]
    assert split_seeds(master, []) == []
    assert split_seeds(master, [2**40]) == [expected[INDICES.index(2**40)]]
    for i in (0, 7, 2**32, 2**64 - 1):
        assert split_seed(master, i) == _reference_split(master, i)


def test_split_seed_reduces_the_master_mod_2_64():
    # config seeds may be negative: the master is taken mod 2**64
    assert split_seed(-3, 4) == _reference_split(2**64 - 3, 4)
    assert split_seeds(2**64 + 5, [1, 2]) == [_reference_split(5, 1), _reference_split(5, 2)]


def test_stream_states_match_default_rng():
    seeds = MASTERS + split_seeds(8, range(200))
    states = stream_states(seeds)
    assert len(states) == len(seeds)
    rng = np.random.Generator(np.random.PCG64(0))
    for seed, state in zip(seeds, states):
        reference = np.random.default_rng(seed)
        assert state == reference.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(rng.standard_normal(5), reference.standard_normal(5))
        assert rng.integers(0, 2**32, 3).tolist() == reference.integers(0, 2**32, 3).tolist()
    assert stream_states([]) == []
    assert stream_states([5]) == [np.random.default_rng(5).bit_generator.state]


@pytest.mark.parametrize("bad", [-1, 2**64, 2**70])
def test_seeds_and_indices_outside_2_64_are_refused(bad):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        split_seed(3, bad)
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        split_seeds(3, [0, bad, 1])
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        stream_states([0, bad])
    with pytest.raises(TypeError):
        stream_states([1.5])


def test_non_integer_seeds_and_indices_are_refused():
    # no silent truncation: split_seed(5, 2.7) is not split_seed(5, 2)
    with pytest.raises(TypeError):
        split_seed(5, 2.7)
    with pytest.raises(TypeError):
        split_seed(5.0, 2)
    assert split_seed(np.int64(5), np.uint64(2)) == split_seed(5, 2)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: check_counts(n=True), "n"),
        (lambda: sample_paths(single_segment(BrownianDrift(0.0, 1.0)), 1.0, 0.5, True, 3), "n_paths"),
        (lambda: RationalStep(True, 2), "num"),
        (lambda: BrownianDrift(0.0, 1.0).sample_increment(1.0, np.random.default_rng(0), size=True), "size"),
    ],
    ids=["check_counts", "sample_paths", "RationalStep", "sample_increment"],
)
def test_a_bool_is_not_a_count(call, name):
    # bool is an Integral, but True is no count of paths, steps or draws
    with pytest.raises(ValueError, match=f"^{name} must be an integer of at least ., got True$"):
        call()


def test_checks_name_what_they_refuse():
    check_counts(least=1, n=1, m=np.int64(3))
    for bad in (0, 1.0, None):
        with pytest.raises(ValueError, match=f"^m must be an integer of at least 1, got {bad!r}$"):
            check_counts(least=1, n=1, m=bad)
    check_size(paths=2**7, cells=2**20)
    assert 2**7 * 2**20 == MAX_VALUES
    message = r"one sampling call would hold 2.68e\+08 values \(paths 128 x cells 1.04858e\+06 x dim 2\), more than"
    with pytest.raises(ValueError, match=f"^{message} the bound of 134217728$"):
        check_size(paths=2**7, cells=2**20, dim=2)
    # a count past the float range is compared as inf, never converted with an error
    with pytest.raises(ValueError, match=r"\(paths inf x dim 1\)"):
        check_size(paths=10**400, dim=1)
    # numpy scalars print as plain numbers, as Python numbers do
    for bad in (np.int64(0), np.int32(0)):
        with pytest.raises(ValueError, match="^n must be an integer of at least 1, got 0$"):
            check_counts(least=1, n=bad)
    with pytest.raises(ValueError, match="^num must be an integer of at least 1, got 0$"):
        RationalStep(np.int64(0), 1)
    for bad, text in ((np.float64(-1.0), "-1.0"), (np.float64(np.nan), "nan"), (-1.0, "-1.0"), (0, "0")):
        with pytest.raises(ValueError, match=f"^a must be positive and finite, got {text}$"):
            check_positive(a=bad)


@pytest.mark.parametrize("ahead", [False, True])
def test_map_ahead_is_map_in_order_one_call_at_a_time(ahead):
    calls, threads = [], set()

    def fn(a):
        calls.append(a)
        threads.add(threading.get_ident())
        return a * a

    before = threading.active_count()
    results = map_ahead(fn, range(5), ahead)
    assert calls == []  # nothing runs before the first result is asked for
    assert next(results) == 0
    # with ahead, the next item may be under way or done, never the one after it
    assert calls in ([0], [0, 1]) if ahead else calls == [0]
    assert list(results) == [1, 4, 9, 16]
    assert calls == list(range(5)) and threading.active_count() == before
    assert (threading.get_ident() in threads) != ahead and len(threads) == 1
    assert list(map_ahead(fn, [], ahead)) == []


def test_map_ahead_joins_its_worker_when_fn_raises():
    def fn(a):
        if a == 1:
            raise ZeroDivisionError("item 1")
        return a

    before = threading.active_count()
    results = map_ahead(fn, range(4), True)
    assert next(results) == 0
    with pytest.raises(ZeroDivisionError, match="^item 1$"):
        next(results)
    assert threading.active_count() == before


@pytest.mark.parametrize("times", [[np.inf, np.inf, 10.0], [1.0, np.inf, np.inf], [-np.inf, -np.inf], [np.nan, 1.0]])
def test_increasing_times_with_infinities_are_refused_without_a_warning(times):
    # inf - inf in the differences was a RuntimeWarning ahead of the refusal
    with pytest.raises(ValueError, match="^t must be positive and finite, and strictly increasing$"):
        check_increasing(times, "t")
