"""Exact largest-root isolation and comparison for integer polynomials.

Polynomials are sequences of integer coefficients, lowest degree first
(returned as lists), and all polynomial arithmetic stays in the
integers: division is pseudo-division and a sign test at a rational
point clears its denominator.  ``Fraction`` appears only in sample
points and interval endpoints.

Everything here assumes the inputs are characteristic polynomials of
symmetric integer matrices: all roots are real algebraic integers.  That
gives one very convenient fact (a rational sample point that is not an
integer can never be a root) which lets the bisection pick Sturm
evaluation points without ever landing on a root.  It also makes the
positive lead that `primitive` forces on each Sturm remainder sound: a
square-free polynomial of degree d with d real roots has a full Sturm
sequence (degrees d, d-1, ..., 0) whose leads are all positive, since
its sign variations at +inf and -inf differ by d.  So the flip never
fires on the chains built here.

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


def poly_gcd(a, b):
    """Greatest common divisor, returned primitive with positive lead."""
    a, b = primitive(a), primitive(b)
    while b:
        a, b = b, primitive(_pseudo_divmod(a, b)[1])
    return a


def square_free(p):
    """p with repeated roots collapsed to simple ones (primitive)."""
    p = primitive(p)
    if len(p) <= 2:
        return p
    g = poly_gcd(p, derivative(p))
    if len(g) == 1:
        return p
    q, r = _pseudo_divmod(p, g)
    assert not r, "square-free division must be exact"
    return primitive(q)


def sturm_chain(p):
    chain = [primitive(p)]
    d = primitive(derivative(p))
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        r = _pseudo_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(primitive([-c for c in r]))
    return chain


def _variations(chain, x):
    """Sign changes along the chain at x, from p(num/den) * den**deg."""
    num, den = x.numerator, x.denominator
    signs = []
    for p in chain:
        acc, scale = 0, 1
        for c in reversed(p):
            acc = acc * num + c * scale
            scale *= den
        if acc:
            signs.append(acc > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(chain, lo, hi):
    """Distinct real roots in (lo, hi]; endpoints must not be roots."""
    return _variations(chain, lo) - _variations(chain, hi)


def root_bound(p):
    """Cauchy bound: every root lies in [-bound, bound]."""
    p = trim(p)
    return Fraction(max(map(abs, p[:-1]), default=0), abs(p[-1])) + 1


def _sample_between(lo, hi):
    """A rational in (lo, hi) that is not an integer.

    Valid sample point because the roots handled here are algebraic
    integers, so no non-integer rational can be a root.
    """
    mid = (lo + hi) / 2
    if mid.denominator != 1:
        return mid
    gap = hi - lo
    if gap > Fraction(2, 3):
        return mid + Fraction(1, 3)
    return mid + gap / 6


class LargestRoot:
    """Isolating interval (lo, hi] for a poly's largest root.

    Construction bisects until (lo, hi] holds exactly one root of the
    square-free part ``poly``, which is then its largest root; every
    later step keeps that.  Each bisection step evaluates the Sturm
    chain once, at the sample point.  ``hi`` only ever moves down to a
    point with no root above it, so V(hi) stays the variation count
    ``vtop`` at the starting ``hi`` and the roots in (x, hi] number
    V(x) - vtop; ``vlo`` is V(lo), kept whenever ``lo`` moves.
    """

    def __init__(self, coeffs):
        sf = square_free(coeffs)
        if len(sf) <= 1:
            raise ValueError("polynomial has no roots")
        self.poly = sf
        self.chain = sturm_chain(sf)
        b = root_bound(sf)
        self.lo = -b - Fraction(1, 3)
        self.hi = b + Fraction(1, 3)
        self.vlo = _variations(self.chain, self.lo)
        self.vtop = _variations(self.chain, self.hi)
        if self.vlo - self.vtop < 1:
            raise ValueError("polynomial has no real roots")
        while self.vlo - self.vtop > 1:
            self.step()

    def width(self):
        return self.hi - self.lo

    def step(self):
        mid = _sample_between(self.lo, self.hi)
        vmid = _variations(self.chain, mid)
        if vmid - self.vtop >= 1:
            self.lo, self.vlo = mid, vmid
        else:
            self.hi = mid

    def refine_to(self, width):
        while self.width() > width:
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
    g = sturm_chain(poly_gcd(ip.poly, iq.poly))
    if count_roots(g, ip.lo, ip.hi) and count_roots(g, iq.lo, iq.hi):
        return 0
    while ip.lo < iq.hi and iq.lo < ip.hi:
        (ip if ip.width() >= iq.width() else iq).step()
    return -1 if ip.hi <= iq.lo else 1
