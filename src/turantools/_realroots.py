"""Exact largest-root isolation and comparison for integer polynomials.

Polynomials are sequences of integer coefficients, lowest degree first
(returned as lists), and all polynomial arithmetic stays in the
integers: division is pseudo-division and a sign test at a rational
point num/den evaluates den**deg * p(num/den).  The bisection keeps its
endpoints as integer numerators over one shared denominator;
``Fraction`` appears only in the endpoints handed out.

Everything here assumes the inputs are characteristic polynomials of
symmetric integer matrices: all roots are real algebraic integers.  That
gives one very convenient fact (a rational sample point that is not an
integer can never be a root) which lets the bisection pick sample
points without ever landing on a root.  It also makes the positive lead
that `primitive` forces on each Sturm remainder sound: a square-free
polynomial of degree d with d real roots has a full Sturm sequence
(degrees d, d-1, ..., 0) whose leads are all positive, since its sign
variations at +inf and -inf differ by d.  So the flip never fires on the
chains built here.

``remainder_sequence`` is the one remainder sequence: it ends in the gcd
of its arguments, and since ``primitive(-r) == primitive(r)`` the one of
p and p' is the Sturm chain of p.  So one sequence both tests p for
repeated roots and, when it has none, is the chain bisection counts with.

Bisection needs the chain only until the interval isolates the largest
root.  After that one sign of the square-free part decides each step:
it is primitive with a positive lead and has a single simple root in
(lo, hi], so at a sample point x there it is positive iff x lies above
that root.

Equality of two largest roots has a one-shot certificate.  Once each
interval (lo, hi] isolates its polynomial's largest root, the roots are
equal iff the gcd of the square-free parts has a root in both
intervals, which two Sturm counts on the gcd's chain decide.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


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


def sturm_chain(p):
    """Sturm chain of p, ending in gcd(p, p') (see the module docstring)."""
    return remainder_sequence(p, derivative(p))


def _scaled_value(p, num, den):
    """den**deg(p) * p(num/den): the sign of p at num/den for den > 0."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _variations(chain, num, den):
    """Sign changes along the chain at num/den (den > 0)."""
    signs = [v > 0 for v in (_scaled_value(p, num, den) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain, lo, hi):
    """Distinct real roots in (lo, hi]; endpoints must not be roots."""
    return (_variations(chain, lo.numerator, lo.denominator)
            - _variations(chain, hi.numerator, hi.denominator))


def root_bound(p):
    """Cauchy bound: every root lies in [-bound, bound]."""
    p = trim(p)
    return Fraction(max(map(abs, p[:-1]), default=0), abs(p[-1])) + 1


class LargestRoot:
    """Isolating interval (lo, hi] for a poly's largest root.

    ``poly`` is the square-free part of the input and ``chain`` its
    Sturm chain.  Construction runs one remainder sequence, the chain of
    the input itself; only when that ends in a non-constant gcd is the
    gcd divided out and the quotient's chain built.

    The endpoints are lo = a/d and hi = b/d.  Each step samples one
    point strictly inside: the midpoint when it is not an integer, else
    a non-integer point beside it, so no sample is ever a root.

    Construction bisects until (lo, hi] holds exactly one root of
    ``poly``, which is then its largest root.  Until then a step
    evaluates the chain once, at the sample point.  ``hi`` only ever
    moves down to a point with no root above it, so V(hi) stays the
    variation count ``vtop`` at the starting ``hi`` and the roots in
    (x, hi] number V(x) - vtop; ``vlo`` is V(lo).  Once vlo - vtop is 1
    a step evaluates only ``poly``: it is negative at the sample point
    iff the point lies below the one root (module docstring).
    """

    def __init__(self, coeffs):
        chain = sturm_chain(coeffs)
        if len(chain[-1]) > 1:  # repeated roots: divide out gcd(p, p')
            q, r = _pseudo_divmod(chain[0], chain[-1])
            assert not r, "square-free division must be exact"
            chain = sturm_chain(q)
        self.poly, self.chain = chain[0], chain
        if len(self.poly) <= 1:
            raise ValueError("polynomial has no roots")
        bound = root_bound(self.poly)
        # (lo, hi] = (-bound - 1/3, bound + 1/3]
        self.d = 3 * bound.denominator
        self.b = 3 * bound.numerator + bound.denominator
        self.a = -self.b
        self.vlo = _variations(chain, self.a, self.d)
        self.vtop = _variations(chain, self.b, self.d)
        if self.vlo - self.vtop < 1:
            raise ValueError("polynomial has no real roots")
        while self.vlo - self.vtop > 1:
            self.step()

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
        if self.vlo - self.vtop > 1:
            v = _variations(self.chain, s, d)
            root_above = v > self.vtop
            if root_above:
                self.vlo = v
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
    root, and symmetrically.  Otherwise the wider interval is bisected
    until the two are disjoint.
    """
    if p == q:  # relabelled or cospectral graphs
        return 0
    ip, iq = LargestRoot(p), LargestRoot(q)
    if ip.poly == iq.poly:
        return 0
    g = sturm_chain(remainder_sequence(ip.poly, iq.poly)[-1])
    if count_roots(g, ip.lo, ip.hi) and count_roots(g, iq.lo, iq.hi):
        return 0
    # endpoints cross-multiplied: x/dx < y/dy iff x * dy < y * dx
    while ip.a * iq.d < iq.b * ip.d and iq.a * ip.d < ip.b * iq.d:
        wider = (ip.b - ip.a) * iq.d >= (iq.b - iq.a) * ip.d
        (ip if wider else iq).step()
    return -1 if ip.b * iq.d <= iq.a * ip.d else 1
