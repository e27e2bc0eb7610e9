"""Spectral radius, Perron vectors, and exact characteristic polynomials.

Floating-point values come from shifted power iteration; anything that
decides a comparison can be escalated to exact integer polynomial
arithmetic (`compare_exact`), so argmax sets are never settled by
float noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _realroots
from .errors import NonConvergenceError, SizeCapError
from .graphs import Graph, turan_parts

MIN_TOL = 1e-14
DEFAULT_TOL = 1e-10
ITERATION_CAP = 10**6
EXACT_CAP = 24  # big-integer characteristic polynomials

LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class SpectralResult:
    """Spectral radius estimate with its Perron data.

    ``vector`` is normalized so the maximum entry is exactly 1 on the
    dominant component and zero elsewhere; ``residual`` is the
    infinity norm of A x - lambda x for the returned vector.
    """

    lam: float
    vector: tuple[float, ...]
    residual: float
    iterations: int


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(f"{c:+d}")
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                sign = "+" if c > 0 else "-"
                terms.append(f"{sign}{mag}x^{i}" if i > 1 else f"{sign}{mag}x")
        s = "".join(terms) or "0"
        return s.lstrip("+")


def _power_iteration(sub: np.ndarray, tol: float):
    """Power iteration on A+I (the shift kills bipartite period-2)."""
    nc = sub.shape[0]
    x = np.ones(nc)
    for sweep in range(1, ITERATION_CAP + 1):
        y = sub @ x
        lam = float(x @ y) / float(x @ x)
        residual = float(np.max(np.abs(y - lam * x)))
        if residual <= tol:
            return lam, x, residual, sweep
        x = y + x  # (A + I) x
        x /= x.max()
    raise NonConvergenceError(
        f"power iteration failed to reach tol={tol} in {ITERATION_CAP} sweeps",
        best=lam,
        iterations=ITERATION_CAP,
    )


def spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest adjacency eigenvalue with a max-1 Perron vector.

    Disconnected graphs are handled per component; the result takes the
    per-component maximum and embeds the winning component's vector
    padded with zeros.
    """
    if tol < MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL}, got {tol}")
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    best = None  # (lam, comp, x, residual)
    total_sweeps = 0
    for comp in g.connected_components():
        nc = len(comp)
        sub = np.zeros((nc, nc))
        index = {v: i for i, v in enumerate(comp)}
        for v in comp:
            row = g.adj[v]
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                if u in index:
                    sub[index[v], index[u]] = 1.0
        lam, x, residual, sweeps = _power_iteration(sub, tol)
        total_sweeps += sweeps
        if best is None or lam > best[0]:
            best = (lam, comp, x, residual)
    lam, comp, x, residual = best
    full = np.zeros(g.n)
    full[comp] = x / x.max()
    return SpectralResult(
        lam=lam,
        vector=tuple(full.tolist()),
        residual=residual,
        iterations=total_sweeps,
    )


# ---------------------------------------------------------------------------
# exact polynomials
# ---------------------------------------------------------------------------


def char_poly_exact(g: Graph) -> IntPoly:
    """det(xI - A) via the Faddeev-LeVerrier recursion in exact integers."""
    n = g.n
    if n > EXACT_CAP:
        raise SizeCapError(f"exact characteristic polynomial caps n at {EXACT_CAP}")
    a = [[(g.adj[u] >> v) & 1 for v in range(n)] for u in range(n)]
    coeffs_high = [1]  # coefficient of x^n, then x^(n-1), ...
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        ck_prev = coeffs_high[-1]
        for i in range(n):
            m[i][i] += ck_prev
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        trace = sum(m[i][i] for i in range(n))
        q, r = divmod(-trace, k)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        coeffs_high.append(q)
    return IntPoly(tuple(reversed(coeffs_high)))


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def multipartite_char_poly(parts: Sequence[int]) -> IntPoly:
    """Characteristic polynomial of the complete multipartite graph.

    Expands x^(n-r) * (prod_j (x+n_j) - sum_i n_i * prod_{j!=i} (x+n_j))
    with exact integers into the monic degree-n polynomial.
    """
    parts = list(parts)
    if not parts or any(p <= 0 for p in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    n, r = sum(parts), len(parts)
    total = [1]
    for p in parts:
        total = _poly_mul(total, [p, 1])
    acc = total
    for i, p in enumerate(parts):
        rest = [1]
        for j, q in enumerate(parts):
            if j != i:
                rest = _poly_mul(rest, [q, 1])
        acc = [c - p * d for c, d in zip(acc, rest + [0] * (len(acc) - len(rest)))]
    coeffs = [0] * (n - r) + acc
    return IntPoly(tuple(coeffs))


def secular_lambda(parts: Sequence[int], tol: float = 1e-12) -> float:
    """Largest root of sum_i n_i / (lambda + n_i) = 1 by bisection.

    This is the spectral radius of the complete multipartite graph with
    the given part sizes; the left side is strictly decreasing in
    lambda > 0, so the root is unique and bracketed by the graph's
    minimum and maximum degrees.
    """
    parts = list(parts)
    if not parts or any(p <= 0 for p in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    if tol < MIN_TOL:
        raise ValueError(f"tol must be >= {MIN_TOL}, got {tol}")
    if len(parts) == 1:
        return 0.0
    n = sum(parts)
    lo = float(n - max(parts))  # minimum degree
    hi = float(n - min(parts))  # maximum degree
    if lo == hi:
        return lo

    def f(lam):
        return sum(p / (lam + p) for p in parts) - 1.0

    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def compare_exact(g1: Graph, g2: Graph) -> int:
    """Order the exact spectral radii: LESS, EQUAL, or GREATER.

    Works on the integer characteristic polynomials with rational
    Sturm bisection; equality is certified via their gcd, never
    declared from floats.
    """
    for g in (g1, g2):
        if g.n == 0:
            raise ValueError("graphs must have at least one vertex")
        if g.n > EXACT_CAP:
            raise SizeCapError(f"exact comparison caps n at {EXACT_CAP}")
    p1 = list(char_poly_exact(g1).coeffs)
    p2 = list(char_poly_exact(g2).coeffs)
    return _realroots.compare_largest_roots(p1, p2)


def certified_radius_interval(g: Graph, width: float = 1e-12) -> tuple[Fraction, Fraction]:
    """Rational interval (lo, hi] of at most ``width`` containing lambda."""
    if g.n == 0:
        raise ValueError("graphs must have at least one vertex")
    if g.n > EXACT_CAP:
        raise SizeCapError(f"exact isolation caps n at {EXACT_CAP}")
    poly = list(char_poly_exact(g).coeffs)
    return _realroots.LargestRoot(poly).refine_to(Fraction(width).limit_denominator(10**15))


def turan_perron_closed(n: int, r: int) -> tuple[float, float, float]:
    """Two-valued Perron vector of the Turan graph, solved in closed form.

    Returns ``(y1, y2, lam)`` with ``y2 = 1`` on the floor-size parts
    and ``y1 = (lam + floor(n/r)) / (lam + ceil(n/r))`` on the
    ceil-size parts; when r divides n both values are 1.
    """
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    q, k = divmod(n, r)
    if k == 0:
        return 1.0, 1.0, float(n - q)
    lam = secular_lambda(turan_parts(n, r))
    y1 = (lam + q) / (lam + q + 1)
    return y1, 1.0, lam


