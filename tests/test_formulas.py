import hashlib
from fractions import Fraction

import pytest

from cycleregions.formulas import (
    InvalidN,
    check_count,
    construction_order,
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


@pytest.mark.parametrize("bad", [2, 1, 0, -5, 4.0, True])
def test_rejects_small_n(bad):
    for fn in (f_max, predicted_vertices, predicted_edges, max_crossings, construction_order):
        with pytest.raises(InvalidN):
            fn(bad)


def test_construction_orders_are_pinned():
    # One sha256 over every order for n = 3..1000, each written as its
    # comma-joined labels and a newline. The golden digests reach only
    # n = 41; this pins the order itself far beyond them.
    digest = hashlib.sha256()
    for n in range(3, 1001):
        digest.update((",".join(map(str, construction_order(n))) + "\n").encode())
    assert digest.hexdigest() == "39582ef59ddcf3e78e4cc3e9240e189cfc624749fd552e144aa10b5dd0011e84"


@pytest.mark.parametrize(
    "value,least,message",
    [
        (2.5, 1, "trials must be an integer, got 2.5"),
        (True, 0, "trials must be an integer, got True"),
        ("3", 0, "trials must be an integer, got '3'"),
        (0, 1, "trials must be positive, got 0"),
        (-1, 0, "trials must be non-negative, got -1"),
    ],
)
def test_check_count_rejects(value, least, message):
    with pytest.raises(ValueError, match=message):
        check_count(value, "trials", least)


def test_check_count_accepts_the_least_value():
    check_count(0, "seed", 0)
    check_count(1, "trials", 1)
