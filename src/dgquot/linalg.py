"""Exact rational linear algebra: small matrices over the rationals.

Matrices are tuples of tuples of scalars under the package's one scalar
rule, `algebra._coeff`: an int when the value is integral, else a Fraction.
The constructors and the kernel's one quotient canonicalize through it, and
int arithmetic stays int, so products and ranks of integer matrices never
touch Fraction.  Matrices are dense; elimination is sparse.  There is one
elimination routine, `_echelon`, on {column: int} rows of nonzero
entries: it takes such rows, as the tangent complex and the Krylov test
build them, and turns a dense rational row into one on entry, cleared of
denominators.  It pivots on the shortest row that reaches each column
and changes only the rows with a nonzero in the pivot column, each
divided by its content, so entries stay within the Hadamard bound.  `rank`
counts its pivots, `nullspace` back-substitutes over its sparse rows, and
`inverse` reads A^-1 off the kernel of [A | -I].  There are no tolerance
parameters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .algebra import Scalar, _coeff
from .errors import DimensionError, SingularMatrixError

Matrix = tuple
Vector = tuple


def as_matrix(rows) -> Matrix:
    out = tuple(tuple(_coeff(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("ragged matrix rows")
    return out


def as_vector(entries) -> Vector:
    return tuple(_coeff(x) for x in entries)


def mat_shape(a: Matrix):
    return (len(a), len(a[0]) if a else 0)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a) != mat_shape(b):
        raise DimensionError("matrix shape mismatch in add")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c) -> Matrix:
    c = _coeff(c)
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
        acc = [0] * cb
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
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_pow(a: Matrix, e: int) -> Matrix:
    n, m = mat_shape(a)
    if n != m:
        raise DimensionError("power of a non-square matrix")
    out = identity(n)
    for _ in range(e):
        out = mat_mul(out, a)
    return out


def mat_trace(a: Matrix) -> Scalar:
    return sum(a[i][i] for i in range(len(a)))


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def _clear_row(row) -> list:
    """A rational row scaled to coprime integers."""
    den = lcm(*(x.denominator for x in row))
    ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _echelon(a) -> tuple:
    """Integer row echelon form, on sparse rows.

    The rows are {column: int} dicts of nonzero entries, as the tangent
    complex and the Krylov test build them, or dense rational rows, which
    are cleared of denominators on entry.  Each becomes a new {column:
    int} dict divided by its content, so the caller's rows never change.
    A dict row must hold ints (the tangent complex folds denominators into
    its scale): clearing them here would double the entry's cost on the
    tangent complex's short rows.  The leading columns of the rows are
    taken left to right, least first.  The rows that reach column c are
    those whose leading column is c, and the shortest of them is the pivot
    row (a Markowitz row count), with entry p at c.  Every other row r
    reaching c, with entry f at c, becomes p*r - f*prow (p and f first
    divided by their gcd) and is then divided by its content.  Rows that
    are zero at c do not change.

    Returns the pivot rows (primitive dicts) and their pivot columns: row i
    is zero left of pivots[i], and so is every later row.  The pivot columns
    are the greedy column basis whichever row is chosen.  A reduced row is
    zero at the pivot columns before it and lies in the span of its own
    input row and theirs, so it is the primitive part of a row of minors of
    the cleared matrix (Cramer's rule): its entries stay within the Hadamard
    bound, as with Bareiss elimination.
    """
    reach = {}  # rows by leading column
    for row in a:
        if isinstance(row, dict):
            g = gcd(*row.values())
            row = {j: x // g for j, x in row.items()} if g > 1 else dict(row)
        else:
            nonzero = {j: x for j, x in enumerate(row) if x}
            row = dict(zip(nonzero, _clear_row(nonzero.values())))
        if row:
            reach.setdefault(min(row), []).append(row)
    rows, pivots = [], []
    while reach:
        col = min(reach)
        waiting = reach.pop(col)
        prow = min(waiting, key=len)
        p = prow[col]
        sign = 1 if p > 0 else -1
        for r in waiting:
            if r is prow:
                continue
            g = sign * gcd(p, r[col])  # rp > 0, and rp = 1 when p divides f
            rp, f = p // g, r[col] // g
            # r is in no other list, so with rp = 1 it is updated in place
            acc = {j: rp * x for j, x in r.items()} if rp != 1 else r
            for j, x in prow.items():
                y = acc.get(j, 0) - f * x
                if y:
                    acc[j] = y
                else:
                    del acc[j]
            if acc:
                g = gcd(*acc.values())
                if g > 1:
                    acc = {j: x // g for j, x in acc.items()}
                reach.setdefault(min(acc), []).append(acc)
        rows.append(prow)
        pivots.append(col)
    return rows, pivots


def _kernel(rows, pivots, ncols: int) -> list:
    """Right-kernel basis of sparse echelon rows: one vector per non-pivot
    column j, with 1 at j and 0 at the other non-pivot columns, found by
    back-substitution from the last pivot row up."""
    basis = []
    for j in sorted(set(range(ncols)) - set(pivots)):
        vec = {j: 1}
        for row, p in zip(reversed(rows), reversed(pivots)):
            s = sum(x * vec[k] for k, x in row.items() if k in vec)
            if s:
                vec[p] = _coeff(Fraction(-s, row[p]))
        basis.append(tuple(vec.get(k, 0) for k in range(ncols)))
    return basis


def rank(a) -> int:
    """Exact rank of dense rational rows or sparse {column: int} rows: the
    number of echelon pivots."""
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


def _synthetic_division(cs, r) -> list:
    """Horner's scheme at r on descending coefficients: the coefficients of
    the quotient by (t - r), then the value at r."""
    out = [cs[0]]
    for c in cs[1:]:
        out.append(out[-1] * r + c)
    return out


def rational_roots(coeffs: Sequence[Scalar]) -> list:
    """All rational roots (with multiplicity) of a polynomial given by
    descending coefficients; deflates as it goes.  Unused in the package,
    but perfbench/tracing.py wraps this name."""
    work = list(as_vector(coeffs))
    while len(work) > 1 and not work[0]:
        work.pop(0)
    roots = []
    while len(work) > 1:
        if not work[-1]:
            roots.append(0)
            work.pop()
            continue
        ints = _clear_row(work)  # the same roots, on integer coefficients
        candidates = (
            sign * Fraction(p, q)
            for p in _divisors(ints[-1])
            for q in _divisors(ints[0])
            for sign in (1, -1)
        )
        found = next((r for r in candidates if not _synthetic_division(work, r)[-1]), None)
        if found is None:
            break
        roots.append(found)
        work = _synthetic_division(work, found)[:-1]
    return roots
