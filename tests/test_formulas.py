from fractions import Fraction

import pytest

from cycleregions.formulas import (
    InvalidN,
    Parity,
    ParityCase,
    f_max,
    max_crossings,
    predicted_edges,
    predicted_vertices,
)


def test_known_anchors():
    assert f_max(3) == 1
    assert f_max(4) == 2
    assert f_max(5) == 6
    assert f_max(10) == 32


def test_max_crossings_anchors():
    assert [max_crossings(n) for n in (3, 4, 5, 10)] == [0, 1, 5, 31]


def test_matches_exact_rational_closed_forms():
    for n in range(3, 101):
        if n % 2 == 0:
            expected = Fraction(1, 2) * n * n - 2 * n + 2
        else:
            expected = Fraction(1, 2) * n * n - Fraction(3, 2) * n + 1
        assert expected.denominator == 1
        assert f_max(n) == expected


def test_odd_identity():
    for n in range(3, 101, 2):
        assert f_max(n) == (n - 1) * (n - 2) // 2


def test_euler_relation_between_predictions():
    for n in range(3, 201):
        assert f_max(n) == predicted_edges(n) - predicted_vertices(n) + 1


def test_strictly_increasing():
    values = [f_max(n) for n in range(3, 101)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_predicted_sizes_of_small_cases():
    # odd: n corners plus n(n-3)/2 crossings; segments split n-2 ways
    assert (predicted_vertices(5), predicted_edges(5)) == (10, 15)
    assert (predicted_vertices(7), predicted_edges(7)) == (21, 35)
    # even cases
    assert (predicted_vertices(4), predicted_edges(4)) == (5, 6)
    assert (predicted_vertices(10), predicted_edges(10)) == (41, 72)


@pytest.mark.parametrize("bad", [2, 1, 0, -5])
def test_rejects_small_n(bad):
    for fn in (f_max, predicted_vertices, predicted_edges, max_crossings):
        with pytest.raises(InvalidN):
            fn(bad)


def test_parity_case():
    assert ParityCase.of(7) == ParityCase(7, Parity.ODD)
    assert ParityCase.of(8).parity is Parity.EVEN
    with pytest.raises(ValueError):
        ParityCase(6, Parity.ODD)
    with pytest.raises(InvalidN):
        ParityCase.of(2)
