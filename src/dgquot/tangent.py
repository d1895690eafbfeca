"""Tangent complexes at classical points and the Koszul Ext oracle.

The tangent complex of a chart at a classical point is the three-term
complex spanned by duals of generators in degrees 0, -1, -2, with the
linearized differential.  It is read off the free differential at the
point's matrices X, without reading any chart block: a word w of d(g) with
coefficient c contributes c * prefix(X) . delta . suffix(X) at its one
negative-degree letter, or at each letter when all its letters have
degree 0; words with two or more negative letters contribute nothing.  The
chart product of a word is multilinear in its negative-degree letters, and
an odd letter among even ones carries no Koszul sign, so this is exact.

The composition check and the ranks are unchanged when a matrix is
multiplied by a nonzero scalar, so they run on the point's integer scale
(`MatrixPoint.integer_scale`): with D the lcm of the denominators of the
point's matrix entries, d0 and d1 are built as the integer matrices
e d0 and e d1, e = q D^(L-1), L the longest word of the differentials in
their degree and q the lcm of the denominators of their coefficients (1
unless a relation has a non-integer coefficient).  They are built as sparse rows, one {column: int} dict of
nonzero entries per row generator, and stay sparse: the composition check
multiplies rows of d1 by rows of d0, and `linalg.rank` eliminates the rows
as they are.  Only `TangentComplex.d0` and `.d1` densify and divide, when
read.  Support detection runs on D X_k.

Each routine at a point takes the `MatrixPoint`, and tests it, or its
`points.PointTests` on the same chart, and reads the verdict and
stability those hold; the tangent complex takes their word products.  So
a caller that keeps one per point tests each point once.

The independent oracle gives Ext^i of a distinct-reduced-point ideal in
affine m-space against the skyscraper quotient in closed form, from the
Koszul resolution of each point's maximal ideal, for n distinct reduced
points over the algebraic closure, rational or not.  It never sees the
chart; the comparison realizes the n^2 gauge offset in degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Optional

from . import linalg
from .algebra import _coeff
from .errors import NotClassicalError, StructureError
from .points import MatrixPoint, WordProducts, is_classical_point, is_stable, matrices_commute, point_tests
from .repify import ChartPresentation


@dataclass
class TangentComplex:
    """The linearized differentials d0 (degree -1 rows over degree 0
    columns) and d1 (degree -2 rows over degree -1 columns) at a classical
    point.  `scaled` holds e0 d0 and e1 d1 as sparse integer rows, one
    {column index: int} dict of nonzero entries per row generator, which
    the composition check and the ranks read; `.d0` and `.d1` give the
    dense rational matrices, built and divided each time they are read."""

    basis0: tuple  # degree-0 directions (entries then framing, canonical order)
    basis1: tuple  # duals of degree -1 generators
    basis2: tuple  # duals of degree -2 generators
    scaled: tuple  # (e0 d0, e1 d1) as sparse integer rows
    scales: tuple  # (e0, e1), positive ints

    @property
    def d0(self) -> linalg.Matrix:
        """len(basis1) x len(basis0)."""
        return _divided(self.scaled[0], len(self.basis0), self.scales[0])

    @property
    def d1(self) -> linalg.Matrix:
        """len(basis2) x len(basis1)."""
        return _divided(self.scaled[1], len(self.basis1), self.scales[1])

    @property
    def dims(self):
        return (len(self.basis0), len(self.basis1), len(self.basis2))

    def composition_witness(self):
        """None when d1 d0 = 0, else (degree -2 row generator, degree 0
        column generator) of its first nonzero entry: the first row, and
        the first column in that row."""
        d0, d1 = self.scaled
        for i, row in enumerate(d1):
            acc = {}
            for k, x in row.items():
                for j, y in d0[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            nonzero = [j for j, v in acc.items() if v]
            if nonzero:
                return self.basis2[i], self.basis0[min(nonzero)]
        return None

    def composition_is_zero(self) -> bool:
        return self.composition_witness() is None


def _divided(rows, ncols: int, e: int) -> linalg.Matrix:
    return tuple(
        tuple(_coeff(Fraction(row[j], e)) if j in row else 0 for j in range(ncols)) for row in rows
    )


@dataclass
class CohomologyReport:
    h0: int
    h1: int
    h2_upper: int
    dims: tuple
    ranks: tuple  # (rank d0, rank d1)
    h2_exact: bool  # True when the truncation provably has no missing generators


def tangent_complex_at(chart: ChartPresentation, pt) -> TangentComplex:
    """The tangent complex at a classical point.  `pt` is a `MatrixPoint`,
    tested here, or its `points.PointTests` on `chart`, whose verdict it
    reads and whose word products it takes.  Raises NotClassicalError when
    the point is not classical, and StructureError for the `PointTests` of
    another chart."""
    tests = point_tests(chart, pt, is_classical_point, is_stable)
    ok, witness = tests.verdict
    if not ok:
        raise NotClassicalError("tangent complex", witness)
    product = tests.take_product(chart)
    basis0, basis1, basis2 = (chart.generators_of_degree(k) for k in (0, -1, -2))
    d0, e0 = _linearized_rows(chart, product, -1, basis0)
    d1, e1 = _linearized_rows(chart, product, -2, basis1)
    return TangentComplex(basis0, basis1, basis2, (d0, d1), (e0, e1))


def _linearized_rows(chart: ChartPresentation, product: WordProducts, degree: int, columns: tuple) -> tuple:
    """(e d, e): the linearized differential d of the degree-`degree` entry
    generators, over `columns`, as sparse integer rows, times its scale
    e = q D^(L-1) (module docstring).  For a word term c * P . delta . S,
    entry (mu, nu) of the block gets c * P[mu][a] * S[b][nu] in the column
    of the letter's entry [a, b]."""
    n = chart.n
    col = {g: i for i, g in enumerate(columns)}
    rows = {}
    longest, weighted = product.weighted_terms(degree)
    q = lcm(*(c.denominator for _, terms in weighted for _, c in terms))
    for base, terms in weighted:
        block = [[{} for _ in range(n)] for _ in range(n)]
        for word, c in terms:
            neg = [j for j, g in enumerate(word) if g.degree < 0]
            if len(neg) > 1:
                continue
            c = c.numerator * (q // c.denominator)
            for j in neg or range(len(word)):
                entries = chart.blocks[word[j].name]
                suf = _nonzero_entries(product[word[j + 1 :]])
                for mu, a, x in _nonzero_entries(product[word[:j]]):
                    cx, block_row, entry_row = c * x, block[mu], entries[a]
                    for b, nu, y in suf:
                        acc = block_row[nu]
                        k = col[entry_row[b]]
                        acc[k] = acc.get(k, 0) + cx * y
        for gens, block_row in zip(chart.blocks[base.name], block):
            rows.update(zip(gens, ({k: v for k, v in acc.items() if v} for acc in block_row)))
    scale = q * product.scale ** max(longest - 1, 0)
    return tuple(rows[g] for g in chart.generators_of_degree(degree)), scale


def _nonzero_entries(mat) -> list:
    return [(i, k, x) for i, row in enumerate(mat) for k, x in enumerate(row) if x]


def chart_cohomology(chart: ChartPresentation, pt) -> CohomologyReport:
    """Cohomology of the tangent complex at a classical point, with h2_exact
    set from the chart's truncation; `pt` as for `tangent_complex_at`.
    Raises NotClassicalError when the point is not classical, and
    StructureError, naming the first nonzero entry of d1 d0, when the
    differentials do not compose to zero."""
    t = tangent_complex_at(chart, pt)
    if not t.composition_is_zero():
        row, column = t.composition_witness()
        raise StructureError(
            f"linearized differentials do not compose to zero at ({row.name}, {column.name})"
        )
    n0, n1, n2 = t.dims
    r0, r1 = (linalg.rank(d) for d in t.scaled)
    pres = chart.source
    m, r = len(pres.source.variables), len(pres.source.relations)
    # for r = 0 the Koszul family, with |S| <= 1 - truncation_degree, is the
    # whole resolution when it has a generator for every variable subset
    h2_exact = r == 0 and m <= 1 - pres.truncation_degree
    return CohomologyReport(n0 - r0, n1 - r1 - r0, n2 - r1, (n0, n1, n2), (r0, r1), h2_exact)


def koszul_ext_oracle(m: int, k_points: int):
    """(ext0, ext1, ext2) for the ideal of k_points distinct reduced points
    in affine m-space, against the direct sum of their skyscrapers.

    The Koszul complex of a point's maximal ideal is a minimal free
    resolution: every differential has entries +-(x_i - p_i), which vanish
    at the point, so Hom into the point kills every map and
    Ext^i = Hom(Lambda^(i+1) k^m, k) has dimension C(m, i + 1).
    Contributions are local, so the result scales by the point count.
    """
    if m < 1:
        raise StructureError("oracle needs at least one variable")
    if k_points < 1:
        raise StructureError("oracle needs at least one point")
    return tuple(k_points * comb(m, i + 1) for i in range(3))


def detect_reduced_support(pt: MatrixPoint) -> bool:
    """Whether the point's module is n distinct reduced points over the
    algebraic closure: the X_k commute and some C = sum_k t^k X_k has n
    distinct eigenvalues, so each eigenline of C is a common eigenline of
    the X_k.  C has as many distinct eigenvalues as the rank of the Hankel
    matrix [tr(C^(i+j))] of its power sums (Hermite's quadratic form).
    On the integer matrices D X_k, that Hankel matrix is
    diag(D^i) H diag(D^j), of the same rank."""
    n, m = pt.n, pt.m
    _, matrices = pt.integer_scale
    if not matrices_commute(matrices):
        return False
    # Point p goes to sum_k t^k p_k.  Two distinct points collide only at the
    # at most m - 1 roots of a nonzero polynomial in t, so among C(n,2)(m-1)+1
    # consecutive weights one separates all n points when they are distinct.
    for t in range(1, comb(n, 2) * (m - 1) + 2):
        combo = linalg.zero_matrix(n, n)
        for k, mat in enumerate(matrices):
            combo = linalg.mat_add(combo, linalg.mat_scale(mat, t**k))
        powers = [linalg.identity(n)]
        while len(powers) < 2 * n - 1:
            powers.append(linalg.mat_mul(powers[-1], combo))
        sums = [linalg.mat_trace(p) for p in powers]
        if linalg.rank([sums[i : i + n] for i in range(n)]) == n:
            return True
    return False


@dataclass
class QuotTangentReport:
    cohomology: CohomologyReport
    oracle: Optional[tuple]
    checks: dict  # degree label -> bool, or {} when no oracle
    note: str = ""

    @property
    def has_oracle(self) -> bool:
        return self.oracle is not None

    @property
    def ok(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


def quot_tangent_check(chart: ChartPresentation, pt) -> QuotTangentReport:
    """Compare chart tangent cohomology with the Koszul oracle.

    Expected relations at a stable classical point over n distinct reduced
    points of affine m-space over the algebraic closure: h0 = n^2 + ext0,
    h1 = ext1, and h2_upper >= ext2 (equality when the truncation is
    complete).  `pt` is as for `tangent_complex_at`, and the classical
    test and the stability test run at most once between them.  Raises
    NotClassicalError when the point is not classical.
    """
    tests = point_tests(chart, pt, is_classical_point, is_stable)
    report = chart_cohomology(chart, tests)
    src = chart.source.source
    m, r, n = len(src.variables), len(src.relations), chart.n

    if not tests.stable:
        note = "no oracle: point is not stable"
    elif r > 0:
        note = "no oracle: ambient ring has relations"
    elif not detect_reduced_support(tests.point):
        note = "no oracle: support is not n distinct points"
    else:
        ext = koszul_ext_oracle(m, n)
        checks = {
            "h0": report.h0 == n * n + ext[0],
            "h1": report.h1 == ext[1],
            "h2": report.h2_upper == ext[2] if report.h2_exact else report.h2_upper >= ext[2],
        }
        return QuotTangentReport(report, ext, checks)
    return QuotTangentReport(report, None, {}, note)
