"""Elasticity-tuple machinery for monoids generated by arithmetic progressions.

For S = <a, a+d, ..., a+kd> every elasticity value is hit by a triple
(c, s, x) with c >= 0, 0 <= s < k and ceil(sa/k) <= x <= floor((sa+2(a-1))/k) + d,
via the value map (c(a+kd) + x + sd) / (ca + x).  The triple's slice is
ck + s and its row is x; raising the slice raises the value, raising the
row lowers it.  This module enumerates the triples, evaluates and compares
them, constructs witness elements, recovers d and a/k from the value set,
builds the coprime maximal triple used to separate value sets, and decides
equality of elasticity sets (equivalently, of length-set collections).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    IncompatibleParams,
    InternalInconsistency,
    InvalidTuple,
    NonIntegerResult,
    NotApplicable,
    NotArithmetical,
    NotInMonoid,
    SOutOfRange,
)
from .monoid import ArithmeticalParams, detect_arithmetical


@dataclass(frozen=True)
class ElasticityTuple:
    """Triple (c, s, x); slice ck + s and row x relative to ambient params."""

    c: int
    s: int
    x: int

    def slice_index(self, params: ArithmeticalParams) -> int:
        return self.c * params.k + self.s

    def is_minimal(self, params: ArithmeticalParams) -> bool:
        return self.x == tuple_bounds(params, self.s)[0]

    def is_maximal(self, params: ArithmeticalParams) -> bool:
        return self.x == tuple_bounds(params, self.s)[1]


@dataclass(frozen=True)
class TupleComparison:
    """Outcome of comparing two tuples' values, with the rule that applied.

    ``relation`` is the sign of lhs - rhs; ``rule`` is "slice" when the
    tuples share a row, "row" when they share slice coordinates, "exact"
    otherwise.  For a shared row the slice order bounds the value order
    only when the tuples also agree in c or in s; with both coordinates
    differing the value order can reverse (e.g. rows x=5 of slices 5 and 6
    over a=7, d=5, k=3), so the relation is always computed exactly.
    """

    relation: int
    rule: str
    lhs: Fraction
    rhs: Fraction


def tuple_bounds(params: ArithmeticalParams, s: int) -> tuple[int, int]:
    """Smallest and largest row x admitted for residue ``s``."""
    if not 0 <= s < params.k:
        raise SOutOfRange(f"s={s} outside [0, {params.k})")
    a, d, k = params.a, params.d, params.k
    lo = -((-s * a) // k)
    hi = (s * a + 2 * (a - 1)) // k + d
    # lo <= hi: lo <= floor(sa/k) + 1 <= hi, as a >= 1 and d >= 1
    return lo, hi


def is_valid_tuple(params: ArithmeticalParams, t: ElasticityTuple) -> bool:
    if t.c < 0 or not 0 <= t.s < params.k:
        return False
    lo, hi = tuple_bounds(params, t.s)
    return lo <= t.x <= hi


def _require_valid(params: ArithmeticalParams, t: ElasticityTuple) -> None:
    if not is_valid_tuple(params, t):
        raise InvalidTuple(f"{t} is not valid for {params}")


def enumerate_tuples(
    params: ArithmeticalParams, max_slice: int
) -> list[ElasticityTuple]:
    """All tuples with slice at most ``max_slice``, ordered by (slice, x).

    Use :meth:`ElasticityTuple.is_minimal` / ``is_maximal`` for the extreme
    rows of each slice.
    """
    out: list[ElasticityTuple] = []
    for sl in range(max_slice + 1):
        c, s = divmod(sl, params.k)
        lo, hi = tuple_bounds(params, s)
        out.extend(ElasticityTuple(c, s, x) for x in range(lo, hi + 1))
    return out


def tuple_elasticity(params: ArithmeticalParams, t: ElasticityTuple) -> Fraction:
    """Value of the tuple: (c(a+kd) + x + sd) / (ca + x), reduced.

    The zero tuple (0, 0, 0) has value 1.
    """
    _require_valid(params, t)
    den = t.c * params.a + t.x
    if den == 0:
        return Fraction(1)
    num = t.c * (params.a + params.k * params.d) + t.x + t.s * params.d
    return Fraction(num, den)


def witness_element(params: ArithmeticalParams, t: ElasticityTuple) -> int:
    """An element of the monoid whose elasticity equals the tuple's value.

    Splits xk - sa = y' + y'' with y' < a and y'' < a + kd, taking the
    smallest feasible y'' (deterministic), and returns
    (c(a+kd) + x + sd) * a + y' * d.
    """
    _require_valid(params, t)
    a, d, k = params.a, params.d, params.k
    total = t.x * k - t.s * a
    ypp = max(0, total - (a - 1))
    yp = total - ypp
    # 0 <= yp < a and 0 <= ypp < a + kd: the tuple is valid, so
    # ceil(sa/k) <= x <= floor((sa + 2(a-1))/k) + d gives
    # 0 <= total <= 2(a-1) + kd, and yp = min(total, a-1) while
    # ypp = max(0, total - (a-1)) <= a - 1 + kd.
    return (t.c * (a + k * d) + t.x + t.s * d) * a + yp * d


def compare_tuples(
    params: ArithmeticalParams, t1: ElasticityTuple, t2: ElasticityTuple
) -> TupleComparison:
    """Compare two tuples' values, reporting which monotonicity rule applied."""
    lhs = tuple_elasticity(params, t1)
    rhs = tuple_elasticity(params, t2)
    relation = (lhs > rhs) - (lhs < rhs)
    if t1.x == t2.x and (t1.c, t1.s) != (t2.c, t2.s):
        # With a shared row and a shared c or s, the slice order follows the
        # value order.  The value is (c(a+kd) + x + sd) / (ca + x): at fixed
        # c and x it grows with s, and at fixed s and x it does not fall as
        # c grows, since (a+kd) x - a (x + sd) = d (kx - sa) >= 0 for a valid
        # row x >= ceil(sa/k).
        rule = "slice"
    elif (t1.c, t1.s) == (t2.c, t2.s) and t1.x != t2.x:
        # The row order reverses the value order: (N + x)/(D + x) with
        # N = c(a+kd) + sd >= D = ca does not grow with x.
        rule = "row"
    else:
        rule = "exact"
    return TupleComparison(relation, rule, lhs, rhs)


def recover_d(f, g) -> int:
    """Recover the progression step from the 2nd and 3rd smallest values.

    Evaluates (g-1)(f-1)/(g-f) exactly and insists on a positive integer.
    """
    f = Fraction(f)
    g = Fraction(g)
    if not 1 < f < g:
        raise ValueError(f"need 1 < f < g, got f={f}, g={g}")
    value = (g - 1) * (f - 1) / (g - f)
    if value.denominator != 1 or value <= 0:
        raise NonIntegerResult(
            f"(g-1)(f-1)/(g-f) = {value} is not a positive integer; "
            "inputs are not the second and third minimal elasticities"
        )
    return int(value)


def three_minimal_elasticities(S) -> tuple[Fraction, Fraction, Fraction]:
    """The three smallest distinct elasticity values, in increasing order.

    Accepts a monoid or its arithmetic parameters.  Candidates are taken
    from slices 0..2k+2, which always contain the three smallest values;
    the first returned value is exactly 1.
    """
    if isinstance(S, ArithmeticalParams):
        params = S
    else:
        params = detect_arithmetical(S)
        if params is None:
            raise NotArithmetical(f"{S} is not generated by an arithmetic progression")
    values = sorted(
        {tuple_elasticity(params, t) for t in enumerate_tuples(params, 2 * params.k + 2)}
    )
    if len(values) < 3 or values[0] != 1:
        raise InternalInconsistency(f"the first slices of {params} give no three values from 1")
    return values[0], values[1], values[2]


def recover_a_over_k(sup, d: int) -> Fraction:
    """Recover a/k from the supremum of the value set: a/k = d/(sup - 1)."""
    sup = Fraction(sup)
    if sup <= 1:
        raise ValueError(f"supremum must exceed 1, got {sup}")
    return Fraction(d) / (sup - 1)


def _bezout(a: int, b: int) -> tuple[int, int]:
    # returns (p, q) with p*a + q*b == gcd(a, b)
    old_r, r = a, b
    old_p, p = 1, 0
    old_q, q = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_p, p = p, old_p - quo * p
        old_q, q = q, old_q - quo * q
    return old_p, old_q


def maximal_coprime_tuple(params: ArithmeticalParams) -> ElasticityTuple:
    """A maximal tuple whose transformed coordinates are coprime.

    Requires g = gcd(a, k) >= 2.  With a' = a/g and k' = k/g, picks the
    residue s with a'(s+2) = 1 mod k', the maximal row x for it, and shifts
    by a multiple of (k', a') chosen through a Bezout relation so that
    gcd(ca + x, ck + s) = 1 for the resulting tuple.  The returned tuple is
    maximal, keeps the residue congruence, and satisfies the gcd condition;
    all three are checked.  The integer b below is the smallest-magnitude
    solution of the strict inequality, ties broken toward negative b.
    """
    a, d, k = params.a, params.d, params.k
    g = gcd(a, k)
    if g < 2:
        raise NotApplicable(f"gcd(a={a}, k={k}) must be at least 2")
    ap, kp = a // g, k // g
    s = 0 if kp == 1 else (pow(ap, -1, kp) - 2) % kp
    # (s + 2) a' = 1 mod k' by the choice of s (for k' = 1 any integer is)
    x = ((s + 2) * ap - 1) // kp + d
    p, q = _bezout(ap, kp)
    # p a' + q k' = gcd(a', k') = 1
    target = p * x + q * s
    slope = s * ap - x * kp  # negative: xk' exceeds sa'
    b = None
    mag = 0
    while b is None:
        for cand in (0,) if mag == 0 else (-mag, mag):
            if cand * slope > target:
                b = cand
                break
        mag += 1
    m = 1 - (p + b * kp) * x - (q - b * ap) * s
    # m > 0: m = 1 - (p x + q s) + b (s a' - x k') = 1 - target + b slope,
    # and b slope > target
    c, r = divmod(m, g)
    result = ElasticityTuple(c, s + r * kp, x + r * ap)
    _require_valid(params, result)
    if not (
        result.is_maximal(params)
        and (ap * (result.s + 2)) % kp == 1 % kp
        and gcd(c * a + result.x, c * k + result.s) == 1
    ):
        raise InternalInconsistency(f"{result} is not a coprime maximal tuple of {params}")
    return result


def phi_embed(
    p_from: ArithmeticalParams, p_to: ArithmeticalParams, t: ElasticityTuple
) -> ElasticityTuple:
    """Embed a tuple of the smaller parameter set into the g-fold larger one.

    Needs equal d and (a, k) scaled by a common integer g >= 2.  Writing
    c = qg + r, the image is (q, s + r k', x + r a'); the value is preserved
    exactly.
    """
    if p_from.d != p_to.d:
        raise IncompatibleParams(f"steps differ: {p_from.d} vs {p_to.d}")
    if p_to.a % p_from.a or p_to.k % p_from.k:
        raise IncompatibleParams(f"{p_to} is not an integer multiple of {p_from}")
    g = p_to.a // p_from.a
    if g < 2 or p_to.k // p_from.k != g:
        raise IncompatibleParams(
            f"need a common scale factor >= 2 between {p_from} and {p_to}"
        )
    _require_valid(p_from, t)
    q, r = divmod(t.c, g)
    image = ElasticityTuple(q, t.s + r * p_from.k, t.x + r * p_from.a)
    _require_valid(p_to, image)
    # The value is preserved: with a = g a_from and k = g k_from, the image's
    # denominator q a + x + r a_from is c a_from + x and its numerator
    # q (a + k d) + x + r a_from + (s + r k_from) d is
    # c (a_from + k_from d) + x + s d, both the tuple's own.
    return image


def _same_value_set_conditions(
    p1: ArithmeticalParams, p2: ArithmeticalParams
) -> bool:
    if p1 == p2:
        return True
    return (
        p1.d == p2.d
        and p1.a * p2.k == p2.a * p1.k
        and gcd(p1.a, p1.k) >= 2
        and gcd(p2.a, p2.k) >= 2
    )


def elasticity_sets_equal_arithmetical(
    p1: ArithmeticalParams, p2: ArithmeticalParams
) -> bool:
    """Exact equality test for the two monoids' elasticity sets."""
    return _same_value_set_conditions(p1, p2)


def length_sets_equal_arithmetical(
    p1: ArithmeticalParams, p2: ArithmeticalParams
) -> bool:
    """Exact equality test for the two monoids' collections of length sets.

    Coincides with :func:`elasticity_sets_equal_arithmetical`: for these
    monoids the elasticity set determines the length sets and conversely.
    """
    return _same_value_set_conditions(p1, p2)


def arith_max_length(params: ArithmeticalParams, n: int) -> int:
    """M(n) by the closed form: n = x'a + y'd with 0 <= y' < a gives M = x'.

    n is in the monoid iff x' >= 0 and y' <= k x'; otherwise NotInMonoid.
    """
    a, d = params.a, params.d
    yp = (n * pow(d, -1, a)) % a
    xp = (n - yp * d) // a  # exact: yp d = n mod a
    if xp < 0 or yp > params.k * xp:
        raise NotInMonoid(f"{n} is not in the monoid of {params}")
    return xp


def arith_min_length(params: ArithmeticalParams, n: int) -> int:
    """m(n) by the closed form: n = x(a+kd) - yd with 0 <= y < a+kd gives m = x.

    n is in the monoid iff y <= k x; otherwise NotInMonoid.
    """
    a, d, k = params.a, params.d, params.k
    w = a + k * d
    lo = -((-n) // w)
    if d == 1:
        x = lo
    else:
        x0 = (n * pow(w, -1, d)) % d
        x = lo + ((x0 - lo) % d)
    y = (x * w - n) // d  # exact: x w = n mod d, and 0 <= y < w as lo <= x < lo + d
    if y > k * x:
        raise NotInMonoid(f"{n} is not in the monoid of {params}")
    return x
