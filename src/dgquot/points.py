"""Classical points of the framed commuting-matrix variety.

A point is an m-tuple of n x n rational matrices plus a framing vector.
Classical membership is checked against the degree-0 truncation ideal of a
chart; stability is the exact Krylov-closure surjectivity criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import GradedPoly
from .errors import DimensionError, StructureError
from .repify import ChartPresentation, h0_ideal


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


def chart_assignment(chart: ChartPresentation, pt: MatrixPoint) -> dict:
    """Values of every degree-0 chart generator at the point."""
    pres = chart.source
    if pt.m != len(pres.variables) or pt.n != chart.n:
        raise DimensionError(
            f"point shape ({pt.m} matrices of rank {pt.n}) does not match chart "
            f"({len(pres.variables)} variables, rank {chart.n})"
        )
    assign = {}
    for i, g in enumerate(pres.variables):
        block = chart.blocks[g.name]
        mat = pt.matrices[i]
        for mu in range(chart.n):
            for nu in range(chart.n):
                assign[block[mu][nu]] = mat[mu][nu]
    for mu, y in enumerate(chart.framing):
        assign[y] = pt.vector[mu]
    return assign


def is_classical_point(pt: MatrixPoint, chart: ChartPresentation):
    """(True, None) if every truncation-ideal polynomial vanishes at pt,
    else (False, first failing polynomial)."""
    assign = chart_assignment(chart, pt)
    for p in h0_ideal(chart):
        if p.evaluate(assign).constant():
            return False, p
    return True, None


def is_stable(pt: MatrixPoint) -> bool:
    """Krylov closure of the framing vector under all matrices spans k^n."""
    return krylov_dimension_profile(pt)[-1] == pt.n


def krylov_dimension_profile(pt: MatrixPoint) -> list:
    """Span dimension of the Krylov closure of the framing vector after each
    round, stopping once the span is full or stops growing.  A candidate
    joins the spanning list when it raises the exact rank (`linalg.rank`);
    the next round's candidates are the images of the vectors that joined."""
    span: list = []
    dims = []
    candidates = [pt.vector]
    while candidates:
        new = []
        for w in candidates:
            if linalg.rank(span + [w]) > len(span):
                span.append(w)
                new.append(w)
        dims.append(len(span))
        if len(span) == pt.n:
            break
        candidates = [linalg.mat_vec(mat, v) for v in new for mat in pt.matrices]
    return dims


def diag_point(points: Sequence[Sequence], relations: Sequence[GradedPoly], variables) -> MatrixPoint:
    """Diagonal matrices from n coordinate tuples, framing all ones.

    Every tuple must satisfy all relations exactly.
    """
    pts = [tuple(Fraction(x) for x in tup) for tup in points]
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
    matrices = []
    for i in range(m):
        matrices.append(
            tuple(
                tuple(pts[d][i] if d == e else Fraction(0) for e in range(n))
                for d in range(n)
            )
        )
    return MatrixPoint(tuple(matrices), (Fraction(1),) * n)


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


def matrices_satisfy(source, matrices) -> bool:
    """Direct matrix arithmetic: pairwise commutators and all relations
    vanish.  Independent of the symbolic truncation-ideal route."""
    m = len(matrices)
    for i in range(m):
        for j in range(i + 1, m):
            ab = linalg.mat_mul(matrices[i], matrices[j])
            ba = linalg.mat_mul(matrices[j], matrices[i])
            if ab != ba:
                return False
    var_gens = source.var_gens
    for f in source.relations:
        if not linalg.is_zero_matrix(evaluate_relation_matrix(f, var_gens, matrices)):
            return False
    return True
