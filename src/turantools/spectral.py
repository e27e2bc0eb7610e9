"""Spectral radius, Perron vectors, and exact characteristic polynomials.

Floating-point values come from shifted power iteration; anything that
decides a comparison can be escalated to exact integer polynomial
arithmetic (`compare_exact`), so argmax sets are never settled by
float noise.  Characteristic polynomials are computed in int64, which
`char_poly_exact` proves cannot overflow up to EXACT_CAP vertices.
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
EXACT_CAP = 24  # int64 characteristic polynomials; see char_poly_exact
INTERVAL_WIDTH = Fraction(1e-12).limit_denominator(10**15)  # of certified intervals

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


def _power_iteration(sub: np.ndarray, tol: float):
    """Power iteration on A+I (the shift kills bipartite period-2).

    The returned vector is all ones or scaled to max exactly 1.0.

    Each sweep runs at numpy's call floor: the buffers ``y`` and ``d``
    are allocated once per call and every step writes into them or into
    ``x``, so no sweep makes a temporary array or goes through the
    ``np.max`` / ``np.abs`` wrappers.  Invariant: every sweep does the
    same IEEE operations in the same order as the plain expressions
    ``y = A @ x``, ``lam = (x @ y) / (x @ x)``,
    ``residual = max(|y - lam x|)``, ``x = (y + x) / max(y + x)``, and
    its products go to the same BLAS routines (dgemv for ``A x``, ddot
    for the Rayleigh quotient), so ``lam``, ``x``, ``residual`` and the
    sweep count equal theirs bit for bit.  ``tests/oracles.py`` keeps
    the plain form as ``spectral_radius_reference``.
    """
    nc = sub.shape[0]
    x = np.ones(nc)
    y = np.empty(nc)
    d = np.empty(nc)
    for sweep in range(1, ITERATION_CAP + 1):
        sub.dot(x, out=y)
        lam = float(x.dot(y)) / float(x.dot(x))
        np.multiply(x, lam, out=d)
        np.subtract(y, d, out=d)
        np.absolute(d, out=d)
        residual = float(d.max())
        if residual <= tol:
            return lam, x, residual, sweep
        np.add(y, x, out=x)  # (A + I) x
        np.divide(x, x.max(), out=x)
    raise NonConvergenceError(
        f"power iteration failed to reach tol={tol} in {ITERATION_CAP} sweeps",
        best=lam,
        iterations=ITERATION_CAP,
    )


def _adjacency_matrix(g: Graph, dtype) -> np.ndarray:
    """The 0/1 adjacency matrix of g, for any n (rows may pass 64 bits)."""
    width = (g.n + 7) // 8
    raw = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in g.adj), np.uint8)
    bits = np.unpackbits(raw.reshape(g.n, width), axis=1, count=g.n, bitorder="little")
    return bits.astype(dtype)


def spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest adjacency eigenvalue with a max-1 Perron vector.

    Disconnected graphs are handled per component; the result takes the
    per-component maximum and embeds the winning component's vector
    padded with zeros.
    """
    if not MIN_TOL <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= {MIN_TOL}, got {tol}")
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    a = _adjacency_matrix(g, float)
    best = None  # (lam, comp, x, residual)
    total_sweeps = 0
    for comp in g.connected_components():
        # a component that spans the graph is the whole matrix, in order
        sub = a if len(comp) == g.n else a[np.ix_(comp, comp)]
        lam, x, residual, sweeps = _power_iteration(sub, tol)
        total_sweeps += sweeps
        if best is None or lam > best[0]:
            best = (lam, comp, x, residual)
    lam, comp, x, residual = best
    if len(comp) < g.n:
        full = np.zeros(g.n)
        full[comp] = x
        x = full
    return SpectralResult(
        lam=lam,
        vector=tuple(x.tolist()),
        residual=residual,
        iterations=total_sweeps,
    )


# ---------------------------------------------------------------------------
# exact polynomials
# ---------------------------------------------------------------------------


def char_poly_exact(g: Graph) -> tuple[int, ...]:
    """det(xI - A) via the Faddeev-LeVerrier recursion, exact in int64.

    Returns the integer coefficients, lowest degree first.

    Step k forms M_k = A M_(k-1) + c_(k-1) I, the x^(n-k) coefficient
    of adj(xI - A), and c_k = -tr(A M_k) / k.  No int64 product or
    partial sum overflows for n <= EXACT_CAP = 24:

    * In the eigenbasis, adj(xI - A) = sum_i prod_(j != i) (x - l_j)
      v_i v_i^T, so by Cauchy-Schwarz on the orthonormal v_i every entry
      of M_k is at most max_i |e_(k-1)(spectrum without l_i)|.
    * Maclaurin on the absolute values, then the power mean with
      sum l^2 = 2m, bound that by C(n-1, k-1) (2m/(n-1))^((k-1)/2),
      at most 1.15e17 (K24); likewise |c_k| <= C(n, k) (2m/n)^(k/2),
      at most 4.4e17.
    * An entry of A M_k sums at most n - 1 = 23 entries of M_k, so every
      partial sum of the product stays below 2.7e18 < 2^63.
    * The diagonal of A M_k has n such entries, whose running sum has
      no bound below 2^63, so the trace is summed in Python ints.

    The largest |entry| seen on n = 24 probes is 1.5e10, found by
    hill-climbing; the 4x6 rook's graph reaches 2.9e9.
    """
    n = g.n
    if n > EXACT_CAP:
        raise SizeCapError(f"exact characteristic polynomial caps n at {EXACT_CAP}")
    a = _adjacency_matrix(g, np.int64)
    m = np.zeros((n, n), dtype=np.int64)
    d = np.arange(n)
    coeffs_high = [1]  # coefficient of x^n, then x^(n-1), ...
    for k in range(1, n + 1):
        m[d, d] += coeffs_high[-1]
        m = a @ m
        q, r = divmod(-sum(m[d, d].tolist()), k)
        assert r == 0, "Faddeev-LeVerrier trace division must be exact"
        coeffs_high.append(q)
    return tuple(reversed(coeffs_high))


def multipartite_char_poly(parts: Sequence[int]) -> tuple[int, ...]:
    """Characteristic polynomial of the complete multipartite graph.

    Expands x^(n-r) * (prod_j (x+n_j) - sum_i n_i * prod_{j!=i} (x+n_j))
    with exact integers into the monic degree-n polynomial, returned as
    its coefficients, lowest degree first.
    """
    parts = list(parts)
    if not parts or any(p <= 0 for p in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    n, r = sum(parts), len(parts)
    total = [1]
    for p in parts:
        total = [p * a + b for a, b in zip(total + [0], [0] + total)]
    acc = total
    for p in parts:
        # prod_{j!=i} (x+n_j) is total / (x+n_i), exact: the divisor is monic
        rest = _realroots._pseudo_divmod(total, [p, 1])[0]
        acc = [c - p * d for c, d in zip(acc, rest + [0])]
    return tuple([0] * (n - r) + acc)


def secular_lambda(parts: Sequence[int]) -> float:
    """Largest root of sum_i n_i / (lambda + n_i) = 1 by bisection.

    This is the spectral radius of the complete multipartite graph with
    the given part sizes; the left side is strictly decreasing in
    lambda > 0, so the root is unique and bracketed by the graph's
    minimum and maximum degrees.  The bisection stops when the midpoint
    equals an end of the bracket, that is when the ends are adjacent
    doubles.
    """
    parts = list(parts)
    if not parts or any(p <= 0 for p in parts):
        raise ValueError(f"part sizes must be positive, got {parts}")
    n = sum(parts)
    lo = float(n - max(parts))  # minimum degree
    hi = float(n - min(parts))  # maximum degree
    if lo == hi:
        return lo

    def f(lam):
        return sum(p / (lam + p) for p in parts) - 1.0

    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if f(mid) >= 0.0:
            lo = mid
        else:
            hi = mid


def compare_exact(g1: Graph, g2: Graph) -> int:
    """Order the exact spectral radii: LESS, EQUAL, or GREATER.

    Works on the integer characteristic polynomials, never on floats.
    Each largest root is isolated by rational Sturm bisection; EQUAL is
    certified once, by the gcd of the square-free parts having a root
    in both isolating intervals, and an order by bisecting the wider
    interval until the two are disjoint.
    """
    for g in (g1, g2):
        if g.n == 0:
            raise ValueError("graphs must have at least one vertex")
    return _realroots.compare_largest_roots(char_poly_exact(g1), char_poly_exact(g2))


def certified_radius_interval(g: Graph) -> tuple[Fraction, Fraction]:
    """Rational interval (lo, hi] of at most INTERVAL_WIDTH containing lambda."""
    if g.n == 0:
        raise ValueError("graphs must have at least one vertex")
    return _realroots.LargestRoot(char_poly_exact(g)).refine_to(INTERVAL_WIDTH)


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


