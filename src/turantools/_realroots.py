"""Exact largest-root isolation and comparison for integer polynomials.

Polynomials are sequences of integer coefficients, lowest degree first
(returned as lists), and all polynomial arithmetic stays in the
integers: division is pseudo-division and a sign test at a rational
point num/den evaluates den**deg * p(num/den).  The bisection keeps its
endpoints as integer numerators over one shared denominator;
``Fraction`` appears only in the endpoints handed out.

Everything here assumes the inputs are characteristic polynomials of
symmetric integer matrices: all roots are real algebraic integers.  Two
facts follow.  A rational sample point that is not an integer can never
be a root, which lets the bisection pick sample points without ever
landing on one.  And Descartes' rule of signs is exact: the sign
variations of the Taylor coefficients of a real-rooted p at s count
its roots above s with multiplicity (Basu, Pollack and Roy,
*Algorithms in Real Algebraic Geometry*, 2006, ch. 2).  Counted on the
square-free part, which has each root once, that is the number of
distinct roots above s; `_roots_above` counts so at a rational s/d.

``remainder_sequence`` only computes gcds.  It ends in gcd(a, b) up to
a constant factor, so the sign convention of its members' leading
coefficients does not matter: gcd(p, p') gives the square-free part,
and the gcd of two square-free parts their common roots.

Equality of two largest roots has a one-shot certificate.  Once each
interval (lo, hi] isolates its polynomial's largest root, the roots are
equal iff the gcd g of the square-free parts has a root in both
intervals.  g divides both square-free parts, so it is square-free and
has at most one root in an interval that isolates one of theirs, and
no interval end is a root: g has a root there iff it changes sign
across the interval.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _pseudo_divmod(a, b):
    """(q, r) with lead(b)**k * a == q*b + r, k = max(0, deg a - deg b + 1).

    Every divisor passed here is primitive with a positive lead, so r
    is a positive multiple of the rational remainder.
    """
    lead, top = b[-1], len(b) - 1
    q = [0] * max(0, len(a) - top)
    r = a
    for shift in range(len(a) - len(b), -1, -1):
        c = r[shift + top]
        q = [lead * x for x in q]
        q[shift] = c
        r = [lead * x for x in r]
        for i, bc in enumerate(b):
            r[shift + i] -= c * bc
    return trim(q), trim(r)


def primitive(p):
    """Divide by the content and make the lead positive."""
    p = trim(p)
    if not p:
        return []
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def remainder_sequence(a, b):
    """a, b, rem(a, b), ... made primitive; it ends in gcd(a, b)."""
    seq = [primitive(a)]
    b = primitive(b)
    if b:
        seq.append(b)
    while len(seq[-1]) > 1:
        r = primitive(_pseudo_divmod(seq[-2], seq[-1])[1])
        if not r:
            break
        seq.append(r)
    return seq


def _scaled_value(p, num, den):
    """den**deg(p) * p(num/den): the sign of p at num/den for den > 0."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _roots_above(p, s, d):
    """Sign variations of the Taylor coefficients at s of d**deg(p) *
    p(x/d), for d > 0: the number of distinct roots above s/d of a
    real-rooted, square-free p (module docstring)."""
    n = len(p) - 1
    q = [c * d ** (n - i) for i, c in enumerate(p)]  # d**n * p(x/d)
    for i in range(n):  # q(x) <- q(x + s), one coefficient final per pass
        acc = q[n]
        for j in range(n - 1, i - 1, -1):
            acc = q[j] = q[j] + s * acc
    signs = [c > 0 for c in q if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def root_bound(p):
    """Cauchy bound: every root lies in [-bound, bound]; p is trimmed."""
    return Fraction(max(map(abs, p[:-1]), default=0), abs(p[-1])) + 1


class LargestRoot:
    """Isolating interval (lo, hi] for a poly's largest root.

    ``poly`` is the square-free part of the input.  Construction runs
    one remainder sequence, of the input and its derivative; only when
    that ends in a non-constant gcd is the gcd divided out.

    The endpoints are lo = a/d and hi = b/d.  Each step samples one
    point strictly inside: the midpoint when it is not an integer, else
    a non-integer point beside it, so no sample is ever a root.

    ``hi`` only ever moves down to a point with no root above it, and
    ``above`` is the number of roots above lo.  At the start that is
    deg(poly) without a count: every root, real or not, has a larger
    real part than lo, so the Taylor coefficients at lo alternate in
    sign.  Each sample point that becomes lo is counted
    (`_roots_above`), and construction bisects until ``above`` is 1:
    (lo, hi] then holds exactly one root of ``poly``, its largest.
    After that a step evaluates only ``poly``: it is negative at the
    sample point iff the point lies below that one simple root.

    An input with a non-real root raises ValueError where that shows:
    in a remainder sequence that skips a degree, which a real-rooted
    input's never does (the roots of consecutive members interlace), or
    once the isolating bisection is narrower than the root separation
    while it still counts two or more roots in (lo, hi].  The counts
    alone would not end the bisection: x^2 + 1 counts two roots above
    every point below 0 and none above any point above it.  The
    discriminant of ``poly`` is a nonzero integer, lead**(2m - 2) times
    the squared differences of its m roots, which all lie in the start
    interval, of width W.  So two roots are at least lead**(1 - m) *
    W**(1 - m(m - 1)/2) apart, which is at least 2**-sep for sep = m*m
    times the bit length of floor(lead * W) + 1.  An input that shows
    neither is still answered right: a count of 0 or 1 is exact for any
    polynomial, so (lo, hi] isolates its largest real root.
    """

    def __init__(self, coeffs):
        seq = remainder_sequence(coeffs, [i * c for i, c in enumerate(coeffs)][1:])
        self.poly = seq[0]
        if len(seq[-1]) > 1:  # repeated roots: divide out gcd(p, p')
            q, r = _pseudo_divmod(seq[0], seq[-1])
            assert not r, "square-free division must be exact"
            self.poly = primitive(q)
        m = len(self.poly) - 1
        if m < 1:
            raise ValueError("polynomial has no roots")
        if len(seq) + len(seq[-1]) != len(seq[0]) + 1:
            raise ValueError("polynomial has a non-real root")
        bound = root_bound(self.poly)
        # (lo, hi] = (-bound - 1/3, bound + 1/3]
        self.d = 3 * bound.denominator
        self.b = 3 * bound.numerator + bound.denominator
        self.a = -self.b
        self.above = m
        sep = m * m * (self.poly[-1] * (self.b - self.a) // self.d + 1).bit_length()
        while self.above > 1:
            if (self.b - self.a).bit_length() + sep < self.d.bit_length():
                raise ValueError("polynomial has a non-real root")
            self.step()

    @classmethod
    def isolated(cls, poly, a, b, d):
        """The isolator of a square-free ``poly`` with a positive lead
        whose largest root the caller has proved to be its only root in
        (a/d, b/d], d > 0.  Runs no remainder sequence and no counts."""
        root = cls.__new__(cls)
        root.poly, root.a, root.b, root.d, root.above = poly, a, b, d, 1
        return root

    @property
    def lo(self):
        return Fraction(self.a, self.d)

    @property
    def hi(self):
        return Fraction(self.b, self.d)

    def step(self):
        a, b, d = self.a, self.b, self.d
        s = a + b
        if s % (2 * d):  # the midpoint s/2d is not an integer
            a, b, d = 2 * a, 2 * b, 2 * d
        elif 3 * (b - a) > 2 * d:  # gap above 2/3: the midpoint + 1/3
            s = 3 * s + 2 * d
            a, b, d = 6 * a, 6 * b, 6 * d
        else:  # the midpoint + gap/6
            s = a + 2 * b
            a, b, d = 3 * a, 3 * b, 3 * d
        if self.above > 1:
            above = _roots_above(self.poly, s, d)
            root_above = above > 0
            self.above = above or self.above
        else:
            root_above = _scaled_value(self.poly, s, d) < 0
        self.a, self.b, self.d = (s, b, d) if root_above else (a, s, d)

    def sign_at(self, x):
        """Sign of x - root for a rational x (a float or Decimal is read
        exactly): the endpoints decide outside (lo, hi], and ``poly``'s
        sign inside, where its one root is this one (class docstring)."""
        x = Fraction(x)
        if not self.lo < x <= self.hi:
            return -1 if x <= self.lo else 1
        v = _scaled_value(self.poly, x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def refine_to(self, width):
        width = Fraction(width)
        while (self.b - self.a) * width.denominator > width.numerator * self.d:
            self.step()
        return self.lo, self.hi


def compare_largest_roots(p, q) -> int:
    """-1, 0, or 1 as the largest real root of p is below, equal to, or
    above that of q.

    Exact.  Each isolating interval holds one root of its square-free
    polynomial, the largest, so the two largest roots are equal iff
    g = gcd has a root in both intervals: a root of g in p's interval
    is p's largest root and a root of q, so it is at most q's largest
    root, and symmetrically.  g has a root in an interval iff it
    changes sign across it (module docstring).  Otherwise the wider
    interval is bisected until the two are disjoint.
    """
    if p == q:  # relabelled or cospectral graphs
        return 0
    ip, iq = LargestRoot(p), LargestRoot(q)
    g = remainder_sequence(ip.poly, iq.poly)[-1]
    if all(_scaled_value(g, i.a, i.d) * _scaled_value(g, i.b, i.d) < 0 for i in (ip, iq)):
        return 0
    # endpoints cross-multiplied: x/dx < y/dy iff x * dy < y * dx
    while ip.a * iq.d < iq.b * ip.d and iq.a * ip.d < ip.b * iq.d:
        wider = (ip.b - ip.a) * iq.d >= (iq.b - iq.a) * ip.d
        (ip if wider else iq).step()
    return -1 if ip.b * iq.d <= iq.a * ip.d else 1
