"""Bound calculators: pinned values, asymptotic prefactors, consistency."""

import math
from fractions import Fraction

import numpy as np
import pytest

from statesynth import (
    BadRangeError,
    baseline_upper_bound,
    bound_set,
    cnot_count,
    cnot_lower_bound,
    depth,
    depth_lower_bound,
    haar_state,
    scheme_depth_upper_bound,
    scheme_upper_bound,
    schmidt_prepare,
    unitary_upper_bound,
)


def test_cnot_lower_bound_pins():
    assert cnot_lower_bound(4) == 6
    assert cnot_lower_bound(5) == 13
    assert cnot_lower_bound(6) == 29


@pytest.mark.parametrize("n", [54, 61, 64, 65, 100, 257, 1019, 1030])
def test_lower_bounds_are_exact_integers_for_large_n(n):
    """Both lower bounds are exact ceilings of their rational formulas, also
    where 2^(n+1) is far beyond float precision (or float range)."""
    cnots = math.ceil(Fraction(2 ** (n + 1) - 2 - 2 * n, 4))
    assert cnot_lower_bound(n) == cnots
    assert depth_lower_bound(n) == math.ceil(Fraction(cnots, n // 2))


def test_cnot_lower_bound_at_54():
    assert cnot_lower_bound(54) == 9007199254740965  # a float division gives ...964


def test_depth_lower_bound_pins():
    assert depth_lower_bound(4) == 3
    assert depth_lower_bound(5) == 7
    assert depth_lower_bound(6) == 10  # ceil(29/3)


def test_scheme_upper_bound_pins():
    assert scheme_upper_bound(4) == 9
    assert scheme_upper_bound(5) == 26
    assert scheme_upper_bound(6) == 47  # phase-wise sum 4+3+20+20


def test_scheme_depth_upper_bound_pins():
    assert scheme_depth_upper_bound(4) == 5
    assert scheme_depth_upper_bound(5) == 22
    assert scheme_depth_upper_bound(6) == 25


def test_unitary_upper_bound_integrality():
    assert unitary_upper_bound(1) == 0
    assert unitary_upper_bound(2) == 3
    assert unitary_upper_bound(3) == 20
    assert unitary_upper_bound(4) == 100
    for k in range(2, 12):
        assert isinstance(unitary_upper_bound(k), int)


def test_baseline_upper_bound_values():
    assert [baseline_upper_bound(n) for n in (1, 2, 3, 4, 5)] == [0, 1, 4, 11, 26]


def test_even_prefactor():
    for n in range(4, 21, 2):
        assert scheme_upper_bound(n) < (23 / 24) * 2**n


def test_odd_prefactor():
    for n in range(5, 20, 2):
        assert scheme_upper_bound(n) < (115 / 96) * 2**n


def test_lower_bound_prefactor_approaches_half():
    ratio = cnot_lower_bound(20) / 2**20
    assert 0.49 <= ratio <= 0.51


def test_bounds_are_ordered():
    for n in range(2, 16):
        bs = bound_set(n)
        assert bs.cnot_lower <= bs.cnot_upper_scheme
        assert bs.depth_lower <= bs.depth_upper_scheme


def test_bound_set_json():
    bs = bound_set(6)
    d = bs.to_dict()
    assert d == {
        "n": 6,
        "cnot_lower": 29,
        "cnot_upper_scheme": 47,
        "depth_lower": 10,
        "depth_upper_scheme": 25,
    }


def test_bad_ranges():
    with pytest.raises(BadRangeError):
        cnot_lower_bound(0)
    with pytest.raises(BadRangeError):
        depth_lower_bound(1)
    with pytest.raises(BadRangeError):
        scheme_upper_bound(1)


def test_synthesized_counts_never_exceed_scheme_bound():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5, 6):
        for _ in range(3):
            plan = schmidt_prepare(haar_state(n, rng))
            assert cnot_count(plan.total) <= scheme_upper_bound(n)
            assert depth(plan.total) <= scheme_depth_upper_bound(n)
