"""Spectral radius, Perron vectors, and exact characteristic polynomials.

Floating-point radii come from shifted power iteration, or for complete
multipartite graphs from an exact root rounded once; anything that
decides a comparison can be escalated to exact integer polynomial
arithmetic (`compare_exact`), so argmax sets are never settled by
float noise.  Characteristic polynomials are computed in int64, which
`char_poly_exact` proves cannot overflow up to EXACT_CAP vertices.

This is the only module that uses numpy, and it imports numpy inside
the functions that need it, so `import turantools` and the commands
that never compute a radius or a polynomial (`gen`, `turan`,
`secular`) do not load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _realroots
from .errors import NonConvergenceError, SizeCapError
from .graphs import LIST_CAP, Graph, turan_parts

MIN_TOL = 1e-14
DEFAULT_TOL = 1e-10
ITERATION_CAP = 10**6
EXACT_CAP = 24  # int64 characteristic polynomials; see char_poly_exact
DIGIT_CAP = 1 << 21  # decimal digits of a multipartite polynomial's nonzero coefficients
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


def _power_iteration(sub, tol: float):
    """Power iteration on A+I (the shift kills bipartite period-2).

    The returned vector is all ones or scaled to max exactly 1.0.

    Invariant: ``lam``, ``x``, ``residual`` and the sweep count equal
    those of the plain expressions ``y = A @ x``,
    ``lam = (x @ y) / (x @ x)``, ``residual = max(|y - lam x|)``,
    ``x = (y + x) / max(y + x)`` bit for bit; ``tests/oracles.py`` keeps
    that form as ``spectral_radius_reference``.  The products go to the
    same BLAS routines (dgemv for ``A x``, ddot for the Rayleigh
    quotient), and the buffers ``y`` and ``d`` are allocated once per
    call.  A sweep first forms one entry, ``|y[j] - lam x[j]|``, in
    Python floats: the same correctly rounded operations as numpy's
    elementwise ones, so it is entry j of the residual vector.  Above
    ``tol`` it proves the residual is too, and the sweep goes on without
    the rest; otherwise the whole vector is formed as before, and j
    moves to its largest entry.  The normaliser ``max(x.tolist())`` is
    exact and sees no NaN: x >= 0 with max 1, so y + x >= x.
    """
    import numpy as np

    nc = sub.shape[0]
    x = np.ones(nc)
    y = np.empty(nc)
    d = np.empty(nc)
    j = 0
    for sweep in range(1, ITERATION_CAP + 1):
        sub.dot(x, out=y)
        lam = float(x.dot(y)) / float(x.dot(x))
        if abs(y.item(j) - lam * x.item(j)) <= tol:
            np.multiply(x, lam, out=d)
            np.subtract(y, d, out=d)
            np.absolute(d, out=d)
            residual = float(d.max())
            if residual <= tol:
                return lam, x, residual, sweep
            j = int(d.argmax())
        np.add(y, x, out=x)  # (A + I) x
        np.divide(x, max(x.tolist()), out=x)
    raise NonConvergenceError(
        f"power iteration failed to reach tol={tol} in {ITERATION_CAP} sweeps",
        best=lam,
        iterations=ITERATION_CAP,
    )


def _adjacency_matrix(g: Graph, dtype):
    """The 0/1 adjacency matrix of g, for any n (rows may pass 64 bits)."""
    import numpy as np

    width = (g.n + 7) // 8
    raw = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in g.adj), np.uint8)
    bits = np.unpackbits(raw.reshape(g.n, width), axis=1, count=g.n, bitorder="little")
    return bits.astype(dtype)


def spectral_radius(g: Graph, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest adjacency eigenvalue with a max-1 Perron vector.

    Each component is solved on its own submatrix; the result takes the
    per-component maximum and embeds the winning component's vector
    padded with zeros.
    """
    if not MIN_TOL <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= {MIN_TOL}, got {tol}")
    if g.n == 0:
        raise ValueError("spectral radius of the empty graph is undefined")
    import numpy as np

    a = _adjacency_matrix(g, float)
    best = None  # (lam, comp, x, residual)
    total_sweeps = 0
    for comp in g.connected_components():
        lam, x, residual, sweeps = _power_iteration(a[np.ix_(comp, comp)], tol)
        total_sweeps += sweeps
        if best is None or lam > best[0]:
            best = (lam, comp, x, residual)
    lam, comp, x, residual = best
    full = np.zeros(g.n)
    full[comp] = x
    return SpectralResult(
        lam=lam,
        vector=tuple(full.tolist()),
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
    import numpy as np

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


def _part_counts(parts: Sequence[int]) -> Counter:
    """m_s, the number of parts of each size s.  Sizes must be positive,
    and n is capped below 2^53 (see `secular_lambda`)."""
    counts = Counter(parts)
    if not counts or min(counts) <= 0:
        raise ValueError(f"part sizes must be positive, got {sorted(counts)}")
    if sum(s * m for s, m in counts.items()) >= 2**53:
        raise SizeCapError("part sizes cap n below 2^53")
    return counts


def _quotient_poly(counts: Counter) -> list[int]:
    """Clear the secular equation's denominators.

    Returns P(x) = prod_s (x+s) - sum_s m_s s prod_(t!=s) (x+t) for the
    part counts m_s of `_part_counts`, lowest degree first: the
    characteristic polynomial of the quotient matrix that merges
    equal-size parts, of degree the number of distinct sizes.
    P(x) = prod_s (x+s) (1 - sum_i n_i / (x+n_i)); the sum falls from
    +inf to 0 on x > -min(parts) and runs from -inf to +inf between
    consecutive poles, so P has all its roots real and its largest is
    the secular root, the spectral radius.
    """
    total = [1]
    for s in counts:
        total = [s * a + b for a, b in zip(total + [0], [0] + total)]
    poly = total
    for s, m in counts.items():
        # prod_(t!=s) (x+t) is total / (x+s), exact: the divisor is monic
        rest = _realroots._pseudo_divmod(total, [s, 1])[0]
        poly = [c - m * s * d for c, d in zip(poly, rest + [0])]
    return poly


def multipartite_char_poly(parts: Sequence[int]) -> tuple[int, ...]:
    """Characteristic polynomial of the complete multipartite graph.

    Expands x^(n-r) * prod_s (x+s)^(m_s - 1) * P(x), with P from
    `_quotient_poly`, in exact integers into the monic degree-n
    polynomial, returned as its coefficients, lowest degree first.

    The size is capped from the part counts before anything is
    expanded: the n - r zero coefficients at LIST_CAP, and the digits of
    the other r + 1 at DIGIT_CAP.  The polynomial is x^(n-r) times
    prod_i (x+n_i) - sum_i n_i prod_(j!=i) (x+n_j), whose r + 1 terms
    have nonnegative coefficients summing to at most prod_i (1+n_i)
    each, so no coefficient exceeds (r + 1) prod_i (1+n_i).
    """
    counts = _part_counts(parts)
    zeros = sum((s - 1) * m for s, m in counts.items())  # n - r
    if zeros > LIST_CAP:
        raise SizeCapError(f"multipartite polynomials cap n - r at {LIST_CAP}, got {zeros}")
    r = sum(counts.values())
    log_bound = math.log10(r + 1) + sum(m * math.log10(1 + s) for s, m in counts.items())
    digits = (r + 1) * (int(log_bound) + 1)
    if digits > DIGIT_CAP:
        raise SizeCapError(f"multipartite polynomials cap coefficient digits at {DIGIT_CAP}, got {digits}")
    poly = _quotient_poly(counts)
    for s, m in counts.items():
        for _ in range(m - 1):
            poly = [s * a + b for a, b in zip(poly + [0], [0] + poly)]
    return tuple([0] * zeros + poly)


def secular_lambda(parts: Sequence[int]) -> float:
    """Largest root of sum_i n_i / (lambda + n_i) = 1, correctly rounded.

    This is the spectral radius of the complete multipartite graph with
    the given part sizes, the largest root of `_quotient_poly`'s P.
    `_realroots.LargestRoot` isolates it exactly in (lo, hi] and steps
    until both ends round to the same double, which is then the root
    correctly rounded.  The loop ends because the root is never halfway
    between two doubles: an irrational root is no such point, and a
    rational root of a monic integer polynomial is an integer, while the
    halfway points below 2^53 are not, and the root is below n < 2^53.
    """
    root = _realroots.LargestRoot(_quotient_poly(_part_counts(parts)))
    while root.a / root.d != root.b / root.d:
        root.step()
    return root.b / root.d


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


def certified_radius_root(g: Graph) -> _realroots.LargestRoot:
    """Exact isolator of lambda, refined until (lo, hi] is at most
    INTERVAL_WIDTH wide; its ``sign_at`` places any rational against lambda."""
    if g.n == 0:
        raise ValueError("graphs must have at least one vertex")
    root = _realroots.LargestRoot(char_poly_exact(g))
    root.refine_to(INTERVAL_WIDTH)
    return root


def certified_radius_interval(g: Graph) -> tuple[Fraction, Fraction]:
    """Rational interval (lo, hi] of at most INTERVAL_WIDTH containing lambda."""
    root = certified_radius_root(g)
    return root.lo, root.hi


def turan_perron_closed(n: int, r: int) -> tuple[float, float, float]:
    """Two-valued Perron vector of the Turan graph, solved in closed form.

    Returns ``(y1, y2, lam)`` with ``y2 = 1`` on the floor-size parts
    and ``y1 = (lam + floor(n/r)) / (lam + ceil(n/r))`` on the
    ceil-size parts; when r divides n (r = 1 included) both values are 1.
    The domain is `turan_parts`'s: 1 <= r <= n, r <= LIST_CAP.
    """
    parts = turan_parts(n, r)
    q, k = divmod(n, r)
    if k == 0:
        return 1.0, 1.0, float(n - q)
    lam = secular_lambda(parts)
    y1 = (lam + q) / (lam + q + 1)
    return y1, 1.0, lam


