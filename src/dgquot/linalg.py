"""Exact rational dense linear algebra: small matrices over the rationals.

Matrices are tuples of tuples whose entries are ints or Fractions.  There
is one elimination routine, `_echelon`: it clears each row's denominators
and runs fraction-free (Bareiss) elimination over the integers.  `rank`
counts its pivots, `nullspace` back-substitutes over its integer rows, and
`inverse` reads A^-1 off the kernel of [A | -I].  There are no tolerance
parameters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import DimensionError, SingularMatrixError

Matrix = tuple
Vector = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_matrix(rows) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("ragged matrix rows")
    return out


def as_vector(entries) -> Vector:
    return tuple(Fraction(x) for x in entries)


def mat_shape(a: Matrix):
    return (len(a), len(a[0]) if a else 0)


def identity(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return tuple((_ZERO,) * cols for _ in range(rows))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a) != mat_shape(b):
        raise DimensionError("matrix shape mismatch in add")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise DimensionError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    # each output row combines the rows of b, skipping zero entries of a and b
    b_nonzero = [[(k, y) for k, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [_ZERO] * cb
        for x, b_row in zip(row, b_nonzero):
            if x:
                for k, y in b_row:
                    acc[k] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if not a:
        return ()
    if len(a[0]) != len(v):
        raise DimensionError("matrix/vector size mismatch")
    return tuple(sum((x * y for x, y in zip(row, v)), _ZERO) for row in a)


def mat_pow(a: Matrix, e: int) -> Matrix:
    n, m = mat_shape(a)
    if n != m:
        raise DimensionError("power of a non-square matrix")
    out = identity(n)
    for _ in range(e):
        out = mat_mul(out, a)
    return out


def mat_trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), _ZERO)


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def _clear_row(row) -> list:
    """A rational row scaled to coprime integers."""
    den = lcm(*(x.denominator for x in row))
    ints = [int(x * den) for x in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _echelon(a) -> tuple:
    """Integer row echelon form of a rational matrix, by Bareiss elimination.

    Each row is first cleared to coprime integers.  Returns the nonzero
    echelon rows (integer lists) and their pivot columns; row i is zero
    left of pivots[i], and every row below it is zero in that column.
    """
    rows = [_clear_row(row) for row in a]
    rows = [r for r in rows if any(r)]
    pivots: list = []
    ncols = len(rows[0]) if rows else 0
    prev = 1
    col = 0
    while len(pivots) < len(rows) and col < ncols:
        rk = len(pivots)
        piv = next((i for i in range(rk, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        prow = rows[rk]
        p = prow[col]
        for i in range(rk + 1, len(rows)):
            ri = rows[i]
            f = ri[col]
            for j in range(col, ncols):
                q, r = divmod(p * ri[j] - f * prow[j], prev)
                assert not r, "Bareiss division must be exact"
                ri[j] = q
        prev = p
        pivots.append(col)
        col += 1
    return rows[: len(pivots)], pivots


def _kernel(rows, pivots, ncols: int) -> list:
    """Right-kernel basis of echelon rows: one vector per non-pivot column
    j, with 1 at j and 0 at the other non-pivot columns."""
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        vec = [_ZERO] * ncols
        vec[j] = _ONE
        for row, p in zip(reversed(rows), reversed(pivots)):
            s = sum((row[k] * vec[k] for k in range(p + 1, ncols) if vec[k]), _ZERO)
            vec[p] = -s / row[p]
        basis.append(tuple(vec))
    return basis


def rank(a) -> int:
    """Exact rank: the number of echelon pivots."""
    return len(_echelon(a)[1])


def nullspace(a: Matrix) -> list:
    """Basis of the right kernel, as a list of vectors."""
    return _kernel(*_echelon(a), mat_shape(a)[1])


def inverse(a: Matrix) -> Matrix:
    """A^-1, read off the kernel of [A | -I]: its vector for column n+j is
    (A^-1 e_j, e_j).  A is invertible iff the pivots are exactly 0..n-1."""
    n, m = mat_shape(a)
    if n != m:
        raise DimensionError("inverse of a non-square matrix")
    aug = [list(row) + [-1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    rows, pivots = _echelon(aug)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    cols = _kernel(rows, pivots, 2 * n)
    return tuple(tuple(v[i] for v in cols) for i in range(n))


def _divisors(n: int) -> list:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: Sequence[Fraction]) -> list:
    """All rational roots (with multiplicity) of a polynomial given by
    descending coefficients; deflates as it goes.  Unused in the package,
    but perfbench/tracing.py wraps this name."""
    work = [Fraction(x) for x in coeffs]
    while len(work) > 1 and not work[0]:
        work.pop(0)
    roots = []

    def value(cs, r):
        acc = Fraction(0)
        for c in cs:
            acc = acc * r + c
        return acc

    def deflate(cs, r):
        out = [cs[0]]
        for c in cs[1:-1]:
            out.append(out[-1] * r + c)
        return out

    while len(work) > 1:
        if not work[-1]:
            roots.append(Fraction(0))
            work.pop()
            continue
        den = 1
        for c in work:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in work]
        found = None
        for p in _divisors(ints[-1]):
            for q in _divisors(ints[0]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if not value(work, cand):
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        work = deflate(work, found)
    return roots
