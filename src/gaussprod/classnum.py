"""Class numbers h(-p) by three routes, plus norm-form data.

All three routes target the imaginary quadratic field of discriminant -p for
a prime p == 3 (mod 4):

* a half-interval character sum (Dirichlet's closed form),
* a weighted character sum with floor weights (Lemma 1), valid for any
  auxiliary odd prime q != p,
* a direct count of reduced primitive binary quadratic forms of
  discriminant -p.

Each route, and the norm-form representation, is a function of p and q;
only class_number_forms and square_subgroup keep what they computed.
Dirichlet and Lemma 1 both read the nonzero squares mod p.  A Dirichlet
query streams floor(j*j/p) over j = 1..(p-1)/2 (_square_floor_sum), in
O(2**16) memory.  A scan does too, except at a prime whose block counts it
reads: there it takes h(-p) from the count of residues <= (p-1)/2 in the
residue index it built for them (_half_interval_h).  Lemma 1 sums
floor(r*q/p) over the stream of j*j mod p (`context._square_chunks`),
which gives every nonzero square once.  A fault in j*j could move both
alike.  The independent checks are the forms count, which shares nothing
with them beyond the primality test, and the naive routes in
tests/oracles.py; the test suite enforces their agreement rather than
assuming it here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .arith import _legendre, is_prime
from .context import P_LIMIT, _check_prime, _quotient, _square_chunks
from .errors import InternalCheckError, RegimeError
from .verdict import Verdict, _exact, make_verdict

__all__ = [
    "ClassNumberResult",
    "Representation",
    "SquareSubgroupData",
    "beta_identity_check",
    "class_number_dirichlet",
    "class_number_forms",
    "class_number_lemma1",
    "hahn_lee_representation",
    "square_subgroup",
]


@dataclass(frozen=True)
class ClassNumberResult:
    p: int
    h: int
    method: str


def _check_discriminant(p: int) -> None:
    """ValueError unless p is a prime == 3 (mod 4), 7 <= p < 2**31."""
    if p < 7 or p % 4 != 3:
        raise ValueError(f"need a prime p == 3 (mod 4) with p >= 7, got {p}")
    _check_prime(p)


def class_number_dirichlet(p: int) -> ClassNumberResult:
    """h(-p) for p == 3 (mod 4), p >= 7, by Dirichlet's class number formula
    in its first moment: the sum of a*(a|p) over 0 < a < p is -p*h(-p).  As
    j runs over 1..h', h' = (p-1)/2, j*j - p*floor(j*j/p) gives each residue
    once, residues and nonresidues together sum to p*h' and 2h' + 1 = p, so

        h(-p) = h' - h'(h' + 1)/3 + 2*(sum of floor(j*j/p) over j <= h'),

    the sum streamed in O(2**16) memory.  A scan that has built p's residue
    index takes the half-interval sum instead (_half_interval_h).
    """
    _check_discriminant(p)
    return _dirichlet(p)


def _dirichlet(p: int) -> ClassNumberResult:
    """class_number_dirichlet(p), streamed, for a p it has checked."""
    half = (p - 1) // 2
    h = half - half * (half + 1) // 3 + 2 * _square_floor_sum(p)
    if h < 1:
        raise InternalCheckError(f"nonpositive class number {h} at p={p}")
    return ClassNumberResult(p=p, h=h, method="dirichlet")


def _square_floor_sum(p: int) -> int:
    """The sum of floor(j*j/p) over j = 1..(p-1)/2, in chunks of 2**16 into
    the quotient buffer of context: O(2**16) memory.  j*j < 2**60 and the
    sum, below p**2/24 < 2**59, keep int64 exact at every p < 2**31."""
    half = (p - 1) // 2
    total = 0
    for start in range(1, half + 1, _quotient.size):
        j = np.arange(start, min(start + _quotient.size, half + 1), dtype=np.int64)
        j *= j
        total += int(np.floor_divide(j, p, out=_quotient[:j.size]).sum())
    return total


def _half_interval_h(p: np.ndarray, residues: np.ndarray, two: np.ndarray) -> np.ndarray:
    """h(-p) elementwise for int64 columns of primes p == 3 (mod 4), p > 3,
    the residues R in 1..(p-1)/2 of each and the symbols (2|p), by the
    half-interval sum of Dirichlet's formula: (sum of (a|p) over
    0 < a < p/2) / (2 - (2|p)), where that sum is 2R - (p-1)/2.
    InternalCheckError, naming its p, at the first p whose sum is not
    divisible or whose h is not positive."""
    char_sum = 2 * residues - p // 2
    denom = 2 - two
    h = char_sum // denom
    bad = (h * denom != char_sum) | (h < 1)
    if bad.any():
        i = bad.argmax()
        if h[i] * denom[i] != char_sum[i]:
            raise InternalCheckError(f"half-interval character sum {char_sum[i]} "
                                     f"not divisible by {denom[i]} at p={p[i]}")
        raise InternalCheckError(f"nonpositive class number {h[i]} at p={p[i]}")
    return h


def class_number_lemma1(p: int, q: int) -> ClassNumberResult:
    """h(-p) from the weighted sum of (a|p) * (q - 1 - 2*floor(a*q/p)) over
    0 < a < p/2, divided by q - (q|p).

    Valid for p == 3 (mod 4) and any odd prime q != p; the weight degrades
    the plain half-interval sum when q == 2 would be substituted, so q here
    is kept an odd prime and the q-independence of the result is what the
    cross-check suites exercise.

    With h = (p-1)/2 and r running once over the nonzero squares mod p,

        sum of (a|p)*(q - 1 - 2*floor(a*q/p)) over 0 < a < p/2
            = h*(q - 1) - 2*(sum of floor(r*q/p)).

    Since -1 is a nonresidue, r > h is a residue exactly when p - r <= h is
    a nonresidue, and floor((p - n)*q/p) = q - 1 - floor(n*q/p) as p does
    not divide n*q.  So the term of a nonresidue n <= h, minus its weight,
    is the weight of the residue p - n > h, and the sum is the weight summed
    over every residue r.  The floors are taken on the stream of squares,
    where r*q < p*q < 2**62 keeps int64 exact: the reason q must lie below
    2**31.
    """
    _check_discriminant(p)
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"q must be an odd prime, got {q}")
    if q == p:
        raise ValueError("q must differ from p")
    if q >= P_LIMIT:
        raise ValueError(f"q must be below 2**31, got {q}")
    floors = 0
    for chunk in _square_chunks(p):
        chunk *= q
        chunk //= p
        floors += int(chunk.sum())
    total = (p - 1) // 2 * (q - 1) - 2 * floors
    denom = q - _legendre(q, p)
    if total % denom:
        raise InternalCheckError(
            f"weighted character sum {total} not divisible by {denom} at p={p}, q={q}")
    h = total // denom
    if h < 1:
        raise InternalCheckError(f"nonpositive class number {h} at p={p}, q={q}")
    return ClassNumberResult(p=p, h=h, method=f"lemma1(q={q})")


# (b, A) pairs per divisibility mask of class_number_forms
_FORMS_BLOCK = 1 << 16
# class_number_forms keeps m = (b^2 + p)/4 <= p/3 in int32
_FORMS_LIMIT = 3 << 31


@cache
def class_number_forms(p: int) -> ClassNumberResult:
    """h(-p) by counting reduced primitive forms A*x^2 + B*x*y + C*y^2.

    Counts integer triples with B^2 - 4*A*C = -p, |B| <= A <= C, and B >= 0
    whenever |B| == A or A == C.  Since -p == 1 (mod 4), B is odd, so the
    content gcd(A, B, C) can never be even and primitivity is automatic for
    prime p.  p == 3 is accepted here (h(-3) = 1) because it is needed as an
    exponent by the norm-form representation.

    With b = |B|, A divides m = (b^2 + p)/4 = A*C.  Blocks of consecutive
    odd b meet every A from the block's first b up to sqrt(m) of its last b,
    about _FORMS_BLOCK pairs at a time: one int32 divisibility mask per
    block, and the tests for a reduced form on its few hits only.  Memory
    stays O(_FORMS_BLOCK + sqrt(p)).  p must lie below 3*2**31, where m
    still fits.
    """
    if p >= _FORMS_LIMIT:
        raise ValueError(f"p must be below 3*2**31 = {_FORMS_LIMIT}, got {p}")
    if p % 4 != 3 or not is_prime(p):
        raise ValueError(f"need a prime p == 3 (mod 4), got {p}")
    # A <= C and |B| <= A give p = 4AC - B**2 >= 3A**2
    top = math.isqrt(p // 3)
    b = np.arange(1, top + 1, 2, dtype=np.int64)
    m = ((b * b + p) // 4).astype(np.int32)     # at most p/3
    candidates = np.arange(top + 1, dtype=np.int32)
    count = 0
    start = 0
    while start < b.size:
        first = int(b[start])
        stop = min(b.size, start + max(1, _FORMS_BLOCK // (top + 1 - first)))
        # A*A <= A*C = m
        end = math.isqrt(int(m[stop - 1])) + 1
        row, col = np.nonzero(m[start:stop, None] % candidates[first:end] == 0)
        row += start
        a = col + first
        c = m[row] // a
        reduced = (a >= b[row]) & (c >= a)
        # B = +b and B = -b, except that |B| == A or A == C keeps B = +b only
        count += int(2 * reduced.sum() - (reduced & ((a == b[row]) | (a == c))).sum())
        start = stop
    if count < 1:
        raise InternalCheckError(f"no reduced forms found at p={p}")
    return ClassNumberResult(p=p, h=count, method="forms")


@dataclass(frozen=True)
class SquareSubgroupData:
    """Squares mod q, the indices i with -i a square, and their scaled sum."""

    q: int
    squares: frozenset[int]
    neg_square_indices: tuple[int, ...]
    beta: Fraction


@cache
def square_subgroup(q: int) -> SquareSubgroupData:
    """Square subgroup data for a prime q == 3 (mod 4).

    beta = (sum of the i with -i a square mod q) / q; an integer for q > 3
    but genuinely 2/3 at q == 3, which is why beta is carried as a Fraction.
    """
    if q % 4 != 3 or not is_prime(q):
        raise ValueError(f"q must be a prime == 3 (mod 4), got {q}")
    squares = frozenset(x * x % q for x in range(1, q))
    neg = tuple(sorted(q - s for s in squares))
    return SquareSubgroupData(q=q, squares=squares, neg_square_indices=neg,
                              beta=Fraction(sum(neg), q))


def beta_identity_check(q: int) -> Verdict:
    """Check beta == (h(-q) + 1)/2 + (q - 3)/4 for a prime q == 3 (mod 4), q > 3.

    q == 3 is rejected: beta is 2/3 there and the right side is 1, so the
    identity is genuinely false at that point rather than failing numerically.
    """
    if q == 3:
        raise RegimeError("beta identity does not hold at q=3 (beta is 2/3)")
    data = square_subgroup(q)
    h = class_number_forms(q).h
    rhs = Fraction(h + 1, 2) + Fraction(q - 3, 4)
    return make_verdict("beta", q, None, _exact(rhs), _exact(data.beta),
                        detail=f"h(-q)={h}, beta={data.beta}")


@dataclass(frozen=True)
class Representation:
    """Solution of 4*p**h == a*a + q*b*b with a == 2 (mod q), b > 0,
    where h = h(-q) and gcd(a, b) carries no factor p."""

    p: int
    q: int
    h: int
    a: int
    b: int


def _sqrt_mod_prime(n: int, p: int) -> int:
    """A square root of n modulo an odd prime p, by Tonelli-Shanks.

    The general algorithm is needed: p == 1 (mod 8) occurs in the eq_a
    regime, where only p == 1 (mod q) is assumed.
    """
    n %= p
    if pow(n, (p - 1) // 2, p) != 1:
        raise InternalCheckError(f"{n} is not a nonzero square mod {p}")
    s, t = 0, p - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, x, e = pow(z, t, p), pow(n, (t + 1) // 2, p), pow(n, t, p)
    while e != 1:
        # least i with e**(2**i) == 1; then fold c**(2**(s-i-1)) into x
        i, f = 0, e
        while f != 1:
            i, f = i + 1, f * f % p
        g = pow(c, 1 << (s - i - 1), p)
        x, c, s = x * g % p, g * g % p, i
        e = e * c % p
    return x


def _hensel_lift(r: int, n: int, p: int, k: int) -> int:
    """Lift a root r of x**2 == n (mod p), with p an odd prime not dividing
    n, to the root of x**2 == n (mod p**k) congruent to r mod p."""
    mod = p
    for _ in range(k - 1):
        mod *= p
        r = (r - (r * r - n) * pow(2 * r, -1, mod)) % mod
    return r


def _cornacchia4(q: int, m: int, r: int) -> tuple[int, int] | None:
    """Modified Cornacchia (Cohen, GTM 138, Alg. 1.5.3): (x, y) with
    x*x + q*y*y == 4*m, from an odd root 0 < r < 2*m of x**2 == -q
    (mod 4*m); None when the remainder test fails."""
    a, b = 2 * m, r
    limit = math.isqrt(4 * m)
    while b > limit:
        a, b = b, a % b
    rest = 4 * m - b * b
    if rest % q:
        return None
    y = math.isqrt(rest // q)
    return (b, y) if q * y * y == rest else None


def _smallest_b_associate(x: int, y: int) -> tuple[int, int]:
    """Among the sixth-root-of-unity associates of (x + y*sqrt(-3))/2, the
    (|a|, b) pair with the smallest b > 0."""
    pairs = ((x, y), ((x + 3 * y) // 2, (x - y) // 2),
             ((x - 3 * y) // 2, (x + y) // 2))
    return min(((abs(a), abs(b)) for a, b in pairs), key=lambda t: t[1])


def hahn_lee_representation(p: int, q: int) -> Representation:
    """The norm-form representation 4*p**h = a^2 + q*b^2, h = h(-q).

    Needs q == 3 (mod 4) prime and p == 1 (mod q) prime.  A square root of
    -q mod p (Tonelli-Shanks) is Hensel-lifted to p**h, made odd so that it
    is a root mod 4*p**h, and fed to modified Cornacchia together with its
    negation; that is O(h log p) big-integer steps.  For q > 3 the primitive
    solution is unique up to the sign of a, so the two roots must agree or
    InternalCheckError is raised; q == 3 has extra unit symmetry, so the
    associate with the smallest b is taken there.  Exactly one sign of a is
    == 2 (mod q).
    """
    if q % 4 != 3 or not is_prime(q):
        raise RegimeError(f"q must be a prime == 3 (mod 4), got {q}")
    if p % q != 1:
        raise RegimeError(f"p must be a prime == 1 (mod q), got p={p}, q={q}")
    _check_prime(p)
    return _representation(p, q)


def _representation(p: int, q: int) -> Representation:
    """hahn_lee_representation(p, q) for a (p, q) in its regime."""
    h = class_number_forms(q).h
    m = p ** h
    root = _hensel_lift(_sqrt_mod_prime(-q, p), -q, p, h)
    if root % 2 == 0:
        root += m   # same root mod m, now odd, hence a root mod 4*m
    sols = {_cornacchia4(q, m, r) for r in (root, 2 * m - root)}
    if None in sols:
        raise InternalCheckError(
            f"no primitive representation of 4*{p}**{h} by x^2 + {q}*y^2")
    if q > 3 and len(sols) > 1:
        raise InternalCheckError(
            f"ambiguous representation at p={p}, q={q}: {sorted(sols)}")
    s, b = min(sols)
    if q == 3:
        s, b = _smallest_b_associate(s, b)
    a = s if s % q == 2 else -s
    if a % q != 2:
        raise InternalCheckError(
            f"neither sign of a={s} is 2 mod {q} at p={p}")
    if a * a + q * b * b != 4 * m:
        raise InternalCheckError(
            f"representation back-check failed at p={p}, q={q}")
    if not (b % p or a % p):
        raise InternalCheckError(
            f"imprimitive representation at p={p}, q={q}: a={a}, b={b}")
    return Representation(p=p, q=q, h=h, a=a, b=b)
