"""Shared plumbing: seed splitting, input checks and CSV formatting."""

import numpy as np
import pytest

from semilevy.util import (
    CSV_CHUNK_ROWS, MAX_VALUES, check_counts, check_size, format_csv, split_seed, split_seeds, stream_states,
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
    n = 3 * CSV_CHUNK_ROWS + 17
    mantissas = rng.uniform(-10.0, 10.0, n)
    spread = mantissas * 10.0 ** rng.integers(-300, 301, n)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0])
    spread[: special.size] = special
    columns = [np.arange(n), spread, rng.standard_normal(n)]
    assert format_csv("i,x,y", columns, int_columns=1) == _reference_csv("i,x,y", columns, 1)
    assert format_csv("x,y", columns[1:]) == _reference_csv("x,y", columns[1:])
    assert format_csv("x", [np.array([])]) == "x\n"


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
