import random
from fractions import Fraction as F

import pytest

from dgquot.errors import DimensionError, SingularMatrixError
from dgquot import linalg


def test_rank_basic():
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank(linalg.identity(5)) == 5
    assert linalg.rank(linalg.zero_matrix(3, 4)) == 0
    assert linalg.rank([]) == 0
    assert linalg.rank([[F(1, 2), F(1, 3)], [F(3, 2), F(2, 1)]]) == 2


def _ref_rref(a) -> list:
    """Reference: Fraction Gauss-Jordan reduced row echelon form, nonzero
    rows only, independent of the Bareiss route in `linalg`."""
    rows = [[F(x) for x in row] for row in a if any(row)]
    if not rows:
        return []
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][col]
        rows[r] = [x / p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows if any(row)]


def _ref_nullspace(a) -> list:
    """Reference kernel basis read off `_ref_rref`."""
    ncols = len(a[0]) if a else 0
    if ncols == 0:
        return []
    rows = _ref_rref(a)
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [F(0)] * ncols
        vec[j] = F(1)
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[j]
        basis.append(tuple(vec))
    return basis


def _ref_inverse(a):
    """Reference: Fraction Gauss-Jordan inverse on [A | I]."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionError("inverse of a non-square matrix")
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def _ref_mat_mul(a, b):
    """Reference: the dense row-by-column product, no zero skipping."""
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), F(0)) for col in bt) for row in a)


def _seeded_matrix(rng, k):
    """Square on even k, rectangular on odd; a row that is a multiple of
    another on k % 3 == 0 (singular when square), a zero row on
    k % 7 == 0, and entries near 10^6 with small denominators on k % 5 == 0."""
    nrows = rng.randint(1, 6)
    ncols = nrows if k % 2 == 0 else rng.choice([c for c in range(1, 7) if c != nrows])

    def entry():
        if k % 5 == 0:
            return F(rng.choice((-1, 1)) * rng.randint(10**6 - 50, 10**6 + 50), rng.randint(1, 7))
        return F(rng.randint(-3, 3), rng.randint(1, 3))

    mat = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if k % 3 == 0 and nrows > 1:
        i, j = rng.sample(range(nrows), 2)
        c = F(rng.randint(1, 4), rng.randint(1, 3))
        mat[i] = [c * x for x in mat[j]]
    if k % 7 == 0:
        mat[rng.randrange(nrows)] = [F(0)] * ncols
    return linalg.as_matrix(mat)


def test_elimination_matches_reference_loops():
    rng = random.Random(11)
    seen = {"rect": 0, "zero_row": 0, "singular": 0, "invertible": 0, "large": 0, "chained": 0}
    prev = ()
    for k in range(200):
        a = _seeded_matrix(rng, k)
        nrows, ncols = linalg.mat_shape(a)
        at = tuple(zip(*a))
        assert linalg.mat_mul(a, at) == _ref_mat_mul(a, at)
        assert linalg.mat_mul(at, a) == _ref_mat_mul(at, a)
        if linalg.mat_shape(prev)[1] == nrows:
            seen["chained"] += 1
            assert linalg.mat_mul(prev, a) == _ref_mat_mul(prev, a)
        else:
            with pytest.raises(DimensionError):
                linalg.mat_mul(prev, a)
        prev = a
        rk = linalg.rank(a)
        assert rk == len(_ref_rref(a)) == linalg.rank(at)
        kernel = linalg.nullspace(a)
        assert kernel == _ref_nullspace(a)
        assert rk + len(kernel) == ncols
        assert all(linalg.mat_vec(a, v) == (F(0),) * nrows for v in kernel)
        seen["rect"] += nrows != ncols
        seen["zero_row"] += any(not any(row) for row in a)
        seen["large"] += max(abs(x) for row in a for x in row) > 10**5
        if nrows != ncols:
            with pytest.raises(DimensionError):
                linalg.inverse(a)
            continue
        try:
            expected = _ref_inverse(a)
        except SingularMatrixError:
            seen["singular"] += 1
            with pytest.raises(SingularMatrixError):
                linalg.inverse(a)
            continue
        seen["invertible"] += 1
        assert linalg.inverse(a) == expected
    assert min(seen.values()) >= 10, seen


def test_inverse():
    a = linalg.as_matrix([[2, 1, 0], [1, 1, 0], [0, 3, 1]])
    inv = linalg.inverse(a)
    assert linalg.mat_mul(a, inv) == linalg.identity(3)
    # integer entries give exact Fractions, not floats
    inv_int = linalg.inverse(((2, 1), (1, 1)))
    assert inv_int == ((1, -1), (-1, 2))
    assert all(type(x) is F for row in inv_int for x in row)
    with pytest.raises(SingularMatrixError):
        linalg.inverse(linalg.as_matrix([[1, 2], [2, 4]]))
    with pytest.raises(DimensionError):
        linalg.inverse(linalg.as_matrix([[1, 2]]))


def test_nullspace():
    a = linalg.as_matrix([[1, 2, 3], [4, 5, 6]])
    basis = linalg.nullspace(a)
    assert len(basis) == 1
    assert linalg.mat_vec(a, basis[0]) == (F(0), F(0))
    assert linalg.nullspace(linalg.identity(3)) == []


def test_charpoly_and_roots():
    # (t - 1)(t - 2)
    assert sorted(linalg.rational_roots([F(1), F(-3), F(2)])) == [F(1), F(2)]
    # fractional root: (t - 1/2)(t - 5)
    assert sorted(linalg.rational_roots([F(1), F(-11, 2), F(5, 2)])) == [F(1, 2), F(5)]
    # t^2 - 2 has no rational roots
    assert linalg.rational_roots([F(1), F(0), F(-2)]) == []


def test_matrix_ops_shapes():
    with pytest.raises(DimensionError):
        linalg.mat_mul(linalg.identity(2), linalg.identity(3))
    with pytest.raises(DimensionError):
        linalg.mat_add(linalg.identity(2), linalg.zero_matrix(2, 3))
    assert linalg.mat_pow(linalg.as_matrix([[2]]), 5) == ((F(32),),)
