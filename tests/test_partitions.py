import pytest
from hypothesis import given, strategies as st

from asep_lab.partitions import (Diagram, canonical_diagrams, count_diagrams,
                                 enumerate_diagrams, multiplicity_factor,
                                 partitions_of, substitution_map)


def test_partitions_basic():
    assert partitions_of(1) == [(1,)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert (4, 2, 1) in partitions_of(7)
    with pytest.raises(ValueError):
        partitions_of(0)


def test_partition_count_matches_classic_values():
    # number of partitions of n for n = 1..9
    classic = [1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [len(partitions_of(n)) for n in range(1, 10)] == classic


def test_single_row_diagrams_n2():
    rows = sorted(d.rows[0] for d in enumerate_diagrams((2,)))
    assert rows == [(1, 2), (2, 1)]  # minus-arrow row and plus-arrow row


def test_ordered_vs_canonical_counts():
    assert len(enumerate_diagrams((2, 1))) == 6
    assert len(canonical_diagrams((2, 1))) == 6          # distinct lengths: no dedup
    assert len(enumerate_diagrams((1, 1, 1))) == 6
    assert len(canonical_diagrams((1, 1, 1))) == 1       # one structure
    assert len(enumerate_diagrams((2, 2))) == 24
    assert len(canonical_diagrams((2, 2))) == 12


def test_count_formula_matches_enumeration_small():
    for n in range(1, 7):
        for lam in partitions_of(n):
            diagrams = enumerate_diagrams(lam)
            assert len(diagrams) == count_diagrams(lam)
            assert len(set(d.rows for d in diagrams)) == len(diagrams)
            assert len(canonical_diagrams(lam)) * multiplicity_factor(lam) == len(diagrams)


def _brute_total(n: int) -> int:
    """Independent recursion: ordered rows of weakly decreasing sizes with
    valley structures, counted without the multinomial closed form."""

    def rec(labels: frozenset, max_size: int) -> int:
        if not labels:
            return 1
        total = 0
        items = sorted(labels)
        import itertools
        for s in range(1, min(max_size, len(items)) + 1):
            for block in itertools.combinations(items, s):
                total += 2 ** (s - 1) * rec(labels - set(block), s)
        return total

    return rec(frozenset(range(1, n + 1)), n)


def test_total_diagram_count_against_recursive_oracle():
    for n in range(1, 7):
        total = sum(count_diagrams(lam) for lam in partitions_of(n))
        assert total == _brute_total(n)


def test_diagram_validation_rejects_bad_rows():
    with pytest.raises(ValueError):
        Diagram(((1, 3, 2),))     # not decreasing-then-increasing around the min
    with pytest.raises(ValueError):
        Diagram(((3,), (2, 1)))   # row lengths must be weakly decreasing
    with pytest.raises(ValueError):
        Diagram(((2, 1), (2,)))   # duplicate label


def test_enumerated_diagrams_pass_the_constructor_checks():
    # the enumerator skips Diagram's validation, so re-check what it builds:
    # every diagram of every partition of n <= 7 (43,653 diagrams; the
    # 390,400 of n = 8 come from the same code path at ten times the cost)
    for n in range(1, 8):
        for lam in partitions_of(n):
            for diagrams in (enumerate_diagrams(lam), canonical_diagrams(lam)):
                for d in diagrams:
                    assert Diagram(d.rows) == d
    with pytest.raises(ValueError):
        canonical_diagrams((1, 2))


def test_substitution_map_rules():
    d = Diagram(((2, 1),))
    assert substitution_map(d) == {2: (1, 1, 1), 1: (0, 1, 1)}
    d = Diagram(((1, 2),))
    assert substitution_map(d) == {1: (0, 1, 1), 2: (0, 1, -1)}
    # longer row: 6 -> 1 <- 2 <- 3 maps z6 = q z1, z2 = 1/z1, z3 = q/z1
    d = Diagram(((6, 1, 2, 3), (5, 4), (7,)))
    sm = substitution_map(d)
    assert sm[6] == (1, 1, 1)
    assert sm[2] == (0, 1, -1)
    assert sm[3] == (1, 1, -1)
    assert sm[5] == (1, 4, 1)
    assert sm[7] == (0, 7, 1)


@given(st.integers(min_value=1, max_value=6))
def test_substitution_maps_cover_labels_with_bounded_exponents(n):
    for lam in partitions_of(n):
        for d in canonical_diagrams(lam):
            sm = substitution_map(d)
            assert sorted(sm) == list(range(1, n + 1))
            assert len(d.pivots) == len(lam)
            for qexp, pivot, vpow in sm.values():
                assert 0 <= qexp <= n - 1
                assert vpow in (-1, 1)
                assert pivot in d.pivots
