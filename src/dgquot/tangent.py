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

The independent oracle gives Ext^i of a distinct-reduced-point ideal in
affine m-space against the skyscraper quotient in closed form, from the
Koszul resolution of each point's maximal ideal, for n distinct reduced
points over the algebraic closure, rational or not.  It never sees the
chart; the comparison realizes the n^2 gauge offset in degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from . import linalg
from .errors import NotClassicalError, StructureError
from .points import MatrixPoint, WordProducts, is_classical_point, is_stable, matrices_commute
from .repify import ChartPresentation


@dataclass
class TangentComplex:
    basis0: tuple  # degree-0 directions (entries then framing, canonical order)
    basis1: tuple  # duals of degree -1 generators
    basis2: tuple  # duals of degree -2 generators
    d0: tuple  # len(basis1) x len(basis0) rational matrix
    d1: tuple  # len(basis2) x len(basis1)

    @property
    def dims(self):
        return (len(self.basis0), len(self.basis1), len(self.basis2))

    def composition_is_zero(self) -> bool:
        if not self.basis2 or not self.basis1 or not self.basis0:
            return True
        return linalg.is_zero_matrix(linalg.mat_mul(self.d1, self.d0))


@dataclass
class CohomologyReport:
    h0: int
    h1: int
    h2_upper: int
    dims: tuple
    ranks: tuple  # (rank d0, rank d1)
    h2_exact: bool  # True when the truncation provably has no missing generators

    def as_tuple(self):
        return (self.h0, self.h1, self.h2_upper)


def tangent_complex_at(chart: ChartPresentation, pt: MatrixPoint) -> TangentComplex:
    ok, witness = is_classical_point(pt, chart)
    if not ok:
        raise NotClassicalError("tangent complex", witness)
    product = WordProducts(chart, pt)
    basis0, basis1, basis2 = (chart.generators_of_degree(k) for k in (0, -1, -2))
    d0 = _linearized_rows(chart, product, -1, basis0)
    d1 = _linearized_rows(chart, product, -2, basis1)
    return TangentComplex(basis0, basis1, basis2, d0, d1)


def _linearized_rows(chart: ChartPresentation, product: WordProducts, degree: int, columns: tuple) -> tuple:
    """Linearized differential of the degree-`degree` entry generators, over
    `columns`.  For a word term c * P . delta . S, entry (mu, nu) of the
    block gets c * P[mu][a] * S[b][nu] in the column of the letter's entry
    [a, b]."""
    n = chart.n
    col = {g: i for i, g in enumerate(columns)}
    rows = {}
    for base in (g for g in chart.source.generators if g.degree == degree):
        block = [[[Fraction(0)] * len(columns) for _ in range(n)] for _ in range(n)]
        for word, c in chart.source.diff[base].terms.items():
            neg = [j for j, g in enumerate(word) if g.degree < 0]
            if len(neg) > 1:
                continue
            for j in neg or range(len(word)):
                entries = chart.blocks[word[j].name]
                suf = _nonzero_entries(product[word[j + 1 :]])
                for mu, a, x in _nonzero_entries(product[word[:j]]):
                    for b, nu, y in suf:
                        block[mu][nu][col[entries[a][b]]] += c * x * y
        for gens, block_row in zip(chart.blocks[base.name], block):
            rows.update(zip(gens, map(tuple, block_row)))
    return tuple(rows[g] for g in chart.generators_of_degree(degree))


def _nonzero_entries(mat) -> list:
    return [(i, k, x) for i, row in enumerate(mat) for k, x in enumerate(row) if x]


def cohomology_dims(t: TangentComplex) -> CohomologyReport:
    if not t.composition_is_zero():
        raise StructureError("linearized differentials do not compose to zero")
    n0, n1, n2 = t.dims
    r0 = linalg.rank(t.d0)
    r1 = linalg.rank(t.d1)
    h0 = n0 - r0
    h1 = (n1 - r1) - r0
    h2 = n2 - r1
    return CohomologyReport(h0, h1, h2, (n0, n1, n2), (r0, r1), h2_exact=False)


def chart_cohomology(chart: ChartPresentation, pt: MatrixPoint) -> CohomologyReport:
    rep = cohomology_dims(tangent_complex_at(chart, pt))
    src = chart.source.source
    m, r = len(src.variables), len(src.relations)
    # for m <= 3 and r = 0 the generator pattern stops at degree -2
    rep.h2_exact = m <= 3 and r == 0
    return rep


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
    matrix [tr(C^(i+j))] of its power sums (Hermite's quadratic form)."""
    n, m = pt.n, pt.m
    if not matrices_commute(pt.matrices):
        return False
    # Point p goes to sum_k t^k p_k.  Two distinct points collide only at the
    # at most m - 1 roots of a nonzero polynomial in t, so among C(n,2)(m-1)+1
    # consecutive weights one separates all n points when they are distinct.
    for t in range(1, comb(n, 2) * (m - 1) + 2):
        combo = linalg.zero_matrix(n, n)
        for k, mat in enumerate(pt.matrices):
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


def quot_tangent_check(chart: ChartPresentation, pt: MatrixPoint) -> QuotTangentReport:
    """Compare chart tangent cohomology with the Koszul oracle.

    Expected relations at a stable classical point over n distinct reduced
    points of affine m-space over the algebraic closure: h0 = n^2 + ext0,
    h1 = ext1, and h2_upper >= ext2 (equality when the truncation is
    complete).  Raises NotClassicalError when the point is not classical.
    """
    report = chart_cohomology(chart, pt)
    src = chart.source.source
    m, r, n = len(src.variables), len(src.relations), chart.n

    if not is_stable(pt):
        note = "no oracle: point is not stable"
    elif r > 0:
        note = "no oracle: ambient ring has relations"
    elif not detect_reduced_support(pt):
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
