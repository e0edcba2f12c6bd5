"""Structured pass/fail records produced by the identity verifiers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one claim at one (p, q) pair.

    ``predicted`` holds the value the theorem asserts, ``computed`` the value
    obtained by direct calculation.  Both are ints or flat tuples of ints so
    they serialize cleanly; ``passed`` is true exactly when they are equal.
    """

    theorem_id: str
    p: int
    q: int | None
    predicted: object
    computed: object
    passed: bool
    detail: str = ""


def make_verdict(theorem_id: str, p: int, q: int | None,
                 predicted: object, computed: object, detail: str = "") -> Verdict:
    return Verdict(theorem_id=theorem_id, p=p, q=q, predicted=predicted,
                   computed=computed, passed=predicted == computed, detail=detail)


def _exact(num, den: int = 1) -> int | str:
    """num/den (num an int or a Fraction) as an integer when exact, else the
    reduced fraction's text; strings never equal ints, so a non-integer side
    shows up as a plain mismatch."""
    if num % den == 0:
        return num // den
    return str(Fraction(num, den))
