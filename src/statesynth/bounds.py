"""Lower-bound calculators from parameter counting and upper-bound cost
models of the four-phase scheme, in exact integer arithmetic."""

import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadRangeError


def cnot_lower_bound(n: int) -> int:
    """Smallest k with 4k + 2n >= 2^(n+1) - 2.

    Each CNOT admits four new real parameters and the initial product state
    two per qubit, so preparing all 2^(n+1) - 2 parameters of a generic state
    needs at least this many CNOTs.
    """
    if n < 1:
        raise BadRangeError("need n >= 1")
    return max(0, -(-(2 ** (n + 1) - 2 - 2 * n) // 4))


def depth_lower_bound(n: int) -> int:
    """At most floor(n/2) CNOTs fit in one step, so depth >= ceil(k_min / floor(n/2))."""
    if n < 2:
        raise BadRangeError("need n >= 2")
    return -(-cnot_lower_bound(n) // (n // 2))


@functools.cache
def unitary_upper_bound(k: int) -> int:
    """CNOT ceiling 23/48*4^k - 3/2*2^k + 4/3 for a k-qubit unitary.

    The closed form is integer-valued for k >= 2; a single qubit needs no
    CNOTs at all.
    """
    if k < 1:
        raise BadRangeError("need k >= 1")
    if k == 1:
        return 0
    value = Fraction(23, 48) * 4**k - Fraction(3, 2) * 2**k + Fraction(4, 3)
    assert value.denominator == 1, f"formula not integral at k={k}"
    return int(value)


def baseline_upper_bound(n: int) -> int:
    """CNOT ceiling 2^n - n - 1 of the multiplexed-gate cascade."""
    if n < 1:
        raise BadRangeError("need n >= 1")
    return 2**n - n - 1


def phase1_upper_bound(k: int) -> int:
    """Coefficient-register cost: cheaper of baseline and recursive scheme."""
    if k <= 1:
        return 0
    return min(baseline_upper_bound(k), scheme_upper_bound(k))


def scheme_upper_bound(n: int) -> int:
    """Phase-wise CNOT ceiling of the full pipeline for n qubits."""
    if n < 2:
        raise BadRangeError("need n >= 2")
    k1 = n // 2
    k2 = n - k1
    return (
        phase1_upper_bound(k1)
        + k1
        + unitary_upper_bound(k1)
        + unitary_upper_bound(k2)
    )


def scheme_depth_upper_bound(n: int) -> int:
    """Depth ceiling: phase 1, one fan layer, then phases 3 and 4 in parallel."""
    if n < 2:
        raise BadRangeError("need n >= 2")
    k1 = n // 2
    k2 = n - k1
    return phase1_upper_bound(k1) + 1 + max(unitary_upper_bound(k1), unitary_upper_bound(k2))


@dataclass(frozen=True)
class BoundSet:
    n: int
    cnot_lower: int
    cnot_upper_scheme: int
    depth_lower: int
    depth_upper_scheme: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "cnot_lower": self.cnot_lower,
            "cnot_upper_scheme": self.cnot_upper_scheme,
            "depth_lower": self.depth_lower,
            "depth_upper_scheme": self.depth_upper_scheme,
        }

    def to_json(self) -> str:
        """The bounds as JSON; BadRangeError where one has more digits than
        Python prints an integer with (``sys.get_int_max_str_digits``)."""
        try:
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)
        except ValueError as exc:  # raised only by the int-to-str digit limit
            raise BadRangeError(
                f"the bounds for n = {self.n} have more than "
                f"{sys.get_int_max_str_digits()} digits, too many to print"
            ) from exc


def bound_set(n: int) -> BoundSet:
    return BoundSet(
        n=n,
        cnot_lower=cnot_lower_bound(n),
        cnot_upper_scheme=scheme_upper_bound(n),
        depth_lower=depth_lower_bound(n),
        depth_upper_scheme=scheme_depth_upper_bound(n),
    )
