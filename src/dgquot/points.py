"""Classical points of the framed commuting-matrix variety.

A point is an m-tuple of n x n rational matrices plus a framing vector.
Classical membership is checked against the degree-0 truncation ideal of a
chart; stability is the exact Krylov-closure surjectivity criterion.

Every exact test at a point is a zero test or a rank, and neither changes
when a matrix or vector is multiplied by a nonzero scalar.  So the tests
read the point on one integer scale: with D the lcm of the denominators of
the matrix entries, they run on the integer matrices D X_k
(`MatrixPoint.integer_scale`), and the Krylov test also clears the
denominators of the framing vector.

`PointTests` holds the tests at one point of one chart, so that a caller
that keeps it runs each test once however many routines read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
import weakref
from typing import Sequence

from . import linalg
from .algebra import GradedPoly
from .errors import DimensionError, StructureError
from .repify import ChartPresentation


def _cleared(rows, d: int) -> tuple:
    """d times a matrix as ints, d a multiple of every entry's denominator."""
    return tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows)


@dataclass(frozen=True)
class MatrixPoint:
    matrices: tuple  # one n x n linalg.Matrix per variable
    vector: tuple  # framing, length n

    def __post_init__(self):
        mats = tuple(linalg.as_matrix(m) for m in self.matrices)
        vec = linalg.as_vector(self.vector)
        n = len(vec)
        for m in mats:
            if linalg.mat_shape(m) != (n, n):
                raise DimensionError("matrix size does not match framing length")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "vector", vec)

    @property
    def n(self) -> int:
        return len(self.vector)

    @property
    def m(self) -> int:
        return len(self.matrices)

    @cached_property
    def integer_scale(self) -> tuple:
        """(D, (D X_1, ..., D X_m)): D is the lcm of the denominators of all
        the matrix entries, so the scaled matrices are integer matrices."""
        d = lcm(*(x.denominator for mat in self.matrices for row in mat for x in row))
        return d, tuple(_cleared(mat, d) for mat in self.matrices)


def _variable_values(chart: ChartPresentation, pt: MatrixPoint) -> dict:
    """Free variable generator -> the point's matrix, after a shape check."""
    pres = chart.source
    if pt.m != len(pres.variables) or pt.n != chart.n:
        raise DimensionError(
            f"point shape ({pt.m} matrices of rank {pt.n}) does not match chart "
            f"({len(pres.variables)} variables, rank {chart.n})"
        )
    return dict(zip(pres.variables, pt.matrices))


def chart_assignment(chart: ChartPresentation, pt: MatrixPoint) -> dict:
    """Values of every degree-0 chart generator at the point."""
    assign = dict(zip(chart.framing, pt.vector))
    for g, mat in _variable_values(chart, pt).items():
        for gens, row in zip(chart.blocks[g.name], mat):
            assign.update(zip(gens, row))
    return assign


class WordProducts(dict):
    """word -> D^|w| X_w: the point's matrices on their integer scale D
    (`MatrixPoint.integer_scale`) multiplied along a word of free
    variables, each built from its memoized prefix.  A plain dict with no
    reference back to itself, so it is freed as soon as its caller drops
    it."""

    def __init__(self, chart: ChartPresentation, pt: MatrixPoint):
        variables = _variable_values(chart, pt)  # checks the shape
        self._source = chart.source
        self.scale, scaled = pt.integer_scale
        self._values = dict(zip(variables, scaled))
        super().__init__({(): linalg.identity(chart.n)})

    def __missing__(self, word):
        out = self[word] = linalg.mat_mul(self[word[:-1]], self._values[word[-1]])
        return out

    def weighted_terms(self, degree: int) -> tuple:
        """(L, [(g, [(word, c D^(L - |w|)), ...]), ...]) over the free
        generators g of `degree`, L the longest word of their differentials.
        Each weighted term times `self[word]` carries D^L, so a sum of them
        is D^L times its value at the point."""
        bases = self._source.generators_of_degree(degree)
        diffs = [self._source.diff[g].terms for g in bases]
        longest = max((len(word) for terms in diffs for word in terms), default=0)
        d = self.scale
        return longest, [
            (g, [(word, c * d ** (longest - len(word))) for word, c in terms.items()])
            for g, terms in zip(bases, diffs)
        ]


def is_classical_point(pt: MatrixPoint, chart: ChartPresentation, product=None):
    """(True, None) if every truncation-ideal polynomial vanishes at pt,
    else (False, first failing polynomial).

    Entry (mu, nu) of the block of g is read off sum c * X_{w1}...X_{wk}
    over the words of g's free differential, times D^L on the point's
    integer scale (`WordProducts.weighted_terms`): only a witness builds a
    block.  `product` is the point's `WordProducts`, built here when not
    given."""
    if product is None:
        product = WordProducts(chart, pt)
    value = {}
    for base, terms in product.weighted_terms(-1)[1]:
        for word, c in terms:
            for gens, row in zip(chart.blocks[base.name], product[word]):
                for g, x in zip(gens, row):
                    value[g] = value.get(g, 0) + c * x
    failing = [g for g in chart.generators_of_degree(-1) if value.get(g)]
    return (False, chart.diff[failing[0]]) if failing else (True, None)


def is_stable(pt: MatrixPoint) -> bool:
    """Krylov closure of the framing vector under all matrices spans k^n."""
    return krylov_dimension_profile(pt)[-1] == pt.n


def krylov_dimension_profile(pt: MatrixPoint) -> list:
    """Span dimension of the Krylov closure of the framing vector after each
    round, stopping once the span is full or stops growing.  Each round runs
    one echelon (`linalg._echelon`) on the matrix whose columns are the
    spanning list and then the round's candidates: its pivot columns are the
    greedy column basis, so they are the independent spanning list first and
    then exactly the candidates that raise the rank, in order, which join
    the spanning list.  The next round's candidates are their images.  It
    runs on the integer matrices D X_k and the framing vector with its
    denominators cleared, so each candidate is a nonzero multiple of the
    unscaled one and the profile is the same."""
    _, matrices = pt.integer_scale
    d = lcm(*(x.denominator for x in pt.vector))
    vector = _cleared([pt.vector], d)[0]
    span: list = []
    dims = []
    candidates = [vector]
    while candidates:
        columns = span + candidates
        rows = [{j: v[i] for j, v in enumerate(columns) if v[i]} for i in range(pt.n)]
        new = [columns[j] for j in linalg._echelon(rows)[1][len(span) :]]
        span += new
        dims.append(len(span))
        if len(span) == pt.n:
            break
        candidates = [linalg.mat_vec(mat, v) for v in new for mat in matrices]
    return dims


class PointTests:
    """The exact tests at one point of one chart, each run at most once: the
    classical verdict and witness (`verdict`), the stability (`stable`, run
    when first read), and the `WordProducts` that the classical test built,
    which the tangent complex takes (`take_product`).  `classical` and
    `stable` are the test functions, `is_classical_point` and `is_stable`
    as the caller's module names them, so that a wrapper put on those names
    sees each call.  The word products are dropped at once when the point
    is not classical or `keep_product` is false.  It refers to its chart
    only weakly, and no point or chart refers to it, so it dies with its
    caller's reference."""

    def __init__(self, chart: ChartPresentation, pt: MatrixPoint, classical, stable, keep_product=True):
        self.point = pt
        self._chart = weakref.ref(chart)
        product = WordProducts(chart, pt)
        self.verdict = classical(pt, chart, product)
        self._product = product if keep_product and self.verdict[0] else None
        self._stable = stable

    @cached_property
    def stable(self) -> bool:
        return self._stable(self.point)

    def take_product(self, chart: ChartPresentation) -> WordProducts:
        """The point's word products, which the tests then keep no longer:
        the ones the classical test built, or new ones once those are
        gone."""
        product, self._product = self._product, None
        return WordProducts(chart, self.point) if product is None else product


def point_tests(chart: ChartPresentation, pt, classical, stable) -> PointTests:
    """`pt` itself when it is a `PointTests` built on `chart`, else the
    tests at the `MatrixPoint` `pt`, run here through `classical` and
    `stable` (see `PointTests`).  Raises StructureError for a `PointTests`
    built on another chart."""
    if not isinstance(pt, PointTests):
        return PointTests(chart, pt, classical, stable)
    if pt._chart() is not chart:
        raise StructureError("the point tests were run on another chart")
    return pt


def diag_point(points: Sequence[Sequence], relations: Sequence[GradedPoly], variables) -> MatrixPoint:
    """Diagonal matrices from n coordinate tuples, framing all ones.

    Every tuple must satisfy all relations exactly.
    """
    pts = [linalg.as_vector(tup) for tup in points]
    n = len(pts)
    if n == 0:
        raise StructureError("need at least one point")
    m = len(variables)
    for tup in pts:
        if len(tup) != m:
            raise DimensionError("point tuple length does not match variables")
        assign = dict(zip(variables, tup))
        for f in relations:
            if f.evaluate(assign).constant():
                raise StructureError(f"tuple {tup} violates relation {f}")
    matrices = tuple(
        tuple(tuple(pts[d][i] if d == e else 0 for e in range(n)) for d in range(n))
        for i in range(m)
    )
    return MatrixPoint(matrices, (1,) * n)


def gl_action(g, pt: MatrixPoint) -> MatrixPoint:
    """g . (X_1..X_m, v) = (g X_1 g^-1, ..., g X_m g^-1, g v)."""
    g = linalg.as_matrix(g)
    if linalg.mat_shape(g) != (pt.n, pt.n):
        raise DimensionError("group element size mismatch")
    ginv = linalg.inverse(g)  # raises SingularMatrixError if not invertible
    mats = tuple(linalg.mat_mul(linalg.mat_mul(g, m), ginv) for m in pt.matrices)
    return MatrixPoint(mats, linalg.mat_vec(g, pt.vector))


def evaluate_relation_matrix(f: GradedPoly, variables, matrices) -> linalg.Matrix:
    """f(X_1..X_m) as a matrix, monomials expanded in ascending declared
    variable order (the same order the free lift uses)."""
    n = len(matrices[0]) if matrices else 0
    index = {g: i for i, g in enumerate(variables)}
    acc = linalg.zero_matrix(n, n)
    for mono, c in f.terms.items():
        term = linalg.identity(n)
        for g, e in mono:
            if g not in index:
                raise StructureError(f"unknown variable {g.name!r} in relation")
            term = linalg.mat_mul(term, linalg.mat_pow(matrices[index[g]], e))
        acc = linalg.mat_add(acc, linalg.mat_scale(term, c))
    return acc


def matrices_commute(matrices) -> bool:
    """Every pair of the matrices commutes."""
    return all(
        linalg.mat_mul(a, b) == linalg.mat_mul(b, a)
        for i, a in enumerate(matrices)
        for b in matrices[i + 1 :]
    )


def matrices_satisfy(source, matrices) -> bool:
    """Direct matrix arithmetic: pairwise commutators and all relations
    vanish.  Independent of the symbolic truncation-ideal route."""
    if not matrices_commute(matrices):
        return False
    var_gens = source.var_gens
    for f in source.relations:
        if not linalg.is_zero_matrix(evaluate_relation_matrix(f, var_gens, matrices)):
            return False
    return True
