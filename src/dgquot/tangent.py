"""Tangent complexes at classical points and the Koszul Ext oracle.

The tangent complex of a chart at a classical point is the three-term
complex spanned by duals of generators in degrees 0, -1, -2, with the
linearized differential.  Because every chart differential is multilinear
in negative-degree generators, linearization is exact.

The independent oracle computes Ext^i of a distinct-reduced-point ideal in
affine m-space against the skyscraper quotient by building the Koszul
resolution, applying Hom(-, point) and taking exact ranks.  It never sees
the chart; the comparison realizes the expected dimension bookkeeping with
the n^2 gauge offset in degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional

from . import linalg
from .errors import StructureError
from .points import MatrixPoint, chart_assignment, is_classical_point
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


def _linear_row(poly, assign, columns, col_index):
    row = [Fraction(0)] * len(columns)
    for g, c in poly.linear_part(assign).items():
        idx = col_index.get(g)
        if idx is not None:
            row[idx] = c
    return row


def tangent_complex_at(chart: ChartPresentation, pt: MatrixPoint) -> TangentComplex:
    ok, witness = is_classical_point(pt, chart)
    if not ok:
        raise StructureError(
            f"tangent complex requires a classical point; failing equation: {witness}"
        )
    assign = chart_assignment(chart, pt)
    basis0 = chart.generators_of_degree(0)
    basis1 = chart.generators_of_degree(-1)
    basis2 = chart.generators_of_degree(-2)
    idx0 = {g: i for i, g in enumerate(basis0)}
    idx1 = {g: i for i, g in enumerate(basis1)}
    d0 = tuple(
        tuple(_linear_row(chart.diff[g], assign, basis0, idx0)) for g in basis1
    )
    d1 = tuple(
        tuple(_linear_row(chart.diff[g], assign, basis1, idx1)) for g in basis2
    )
    return TangentComplex(basis0, basis1, basis2, d0, d1)


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

    Contributions are local and translation invariant, so one point is
    resolved explicitly (Koszul complex of its maximal ideal, Hom into the
    point, exact ranks) and the result is scaled by the point count.
    """
    if m < 1 or m > 4:
        raise StructureError("oracle supports 1 <= m <= 4 variables")
    if k_points < 1:
        raise StructureError("oracle needs at least one point")

    # Koszul resolution of the point ideal: P_j = Lambda^(j+1) k[x]^m, with
    # differential entries +-(x_i - p_i).  Hom(-, skyscraper) evaluates
    # every entry at p.  Entries are kept as linear polynomials
    # {None: const, i: coeff of x_i} and evaluated, not shortcut to zero.
    point = [Fraction(0)] * m

    def entry_eval(poly):
        val = poly.get(None, Fraction(0))
        for i, c in poly.items():
            if i is not None:
                val += c * point[i]
        return val

    def koszul_matrix(j):
        # map Lambda^j -> Lambda^(j-1), evaluated at the point
        rows = list(combinations(range(m), j - 1))
        cols = list(combinations(range(m), j))
        row_index = {s: k for k, s in enumerate(rows)}
        mat = [[Fraction(0)] * len(cols) for _ in rows]
        for cidx, subset in enumerate(cols):
            for pos, i in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                entry = {i: Fraction(1), None: -point[i]}  # x_i - p_i
                mat[row_index[rest]][cidx] += (-1) ** pos * entry_eval(entry)
        return mat

    hom_dims = [len(list(combinations(range(m), j + 1))) for j in range(m + 1)]
    # Hom(P_(j-1), k) -> Hom(P_j, k) is the transpose of P_j -> P_(j-1),
    # which is the Koszul map Lambda^(j+1) -> Lambda^j; transposing does
    # not change ranks.
    ranks = []
    for j in range(1, m + 1):
        mat = koszul_matrix(j + 1)
        ranks.append(linalg.rank(mat) if mat and mat[0] else 0)
    ranks.append(0)

    exts = []
    for i in range(3):
        if i > m:
            exts.append(0)
            continue
        dim = hom_dims[i] if i < len(hom_dims) else 0
        into = ranks[i - 1] if i >= 1 else 0
        out = ranks[i] if i < len(ranks) else 0
        exts.append(max(dim - into - out, 0))
    return tuple(e * k_points for e in exts)


def detect_reduced_support(pt: MatrixPoint) -> Optional[list]:
    """Try to identify the point's module as n distinct reduced rational
    points: simultaneous diagonalization via a generic combination.

    Returns the sorted list of coordinate tuples, or None when the support
    is not (detectably) n distinct rational points.
    """
    n, m = pt.n, pt.m
    if n == 1:
        return [tuple(mat[0][0] for mat in pt.matrices)]
    for i in range(m):
        for j in range(i + 1, m):
            if linalg.mat_mul(pt.matrices[i], pt.matrices[j]) != linalg.mat_mul(
                pt.matrices[j], pt.matrices[i]
            ):
                return None
    # Point p goes to sum_k t^k p_k.  Two distinct points collide only at the
    # at most m - 1 roots of a nonzero polynomial in t, so among C(n,2)(m-1)+1
    # consecutive weights one separates all n points when they are distinct.
    for t in range(1, comb(n, 2) * (m - 1) + 2):
        coeffs = [Fraction(t) ** k for k in range(m)]
        combo = linalg.zero_matrix(n, n)
        for c, mat in zip(coeffs, pt.matrices):
            combo = linalg.mat_add(combo, linalg.mat_scale(mat, c))
        roots = linalg.rational_roots(linalg.charpoly(combo))
        if len(roots) != n or len(set(roots)) != n:
            continue
        support = []
        ok = True
        for lam in sorted(set(roots)):
            shifted = linalg.mat_sub(combo, linalg.mat_scale(linalg.identity(n), lam))
            kernel = linalg.nullspace(shifted)
            if len(kernel) != 1:
                ok = False
                break
            vec = kernel[0]
            coords = []
            for mat in pt.matrices:
                image = linalg.mat_vec(mat, vec)
                pivot = next(k for k, x in enumerate(vec) if x)
                lam_i = image[pivot] / vec[pivot]
                if image != tuple(lam_i * x for x in vec):
                    ok = False
                    break
                coords.append(lam_i)
            if not ok:
                break
            support.append(tuple(coords))
        if ok and len(set(support)) == n:
            return sorted(support)
    return None


@dataclass
class QuotTangentReport:
    cohomology: CohomologyReport
    oracle: Optional[tuple]
    support_points: Optional[int]
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
    points of affine m-space: h0 = n^2 + ext0, h1 = ext1, and
    h2_upper >= ext2 (equality when the truncation is complete).
    """
    from .points import is_stable

    report = chart_cohomology(chart, pt)
    src = chart.source.source
    m, r, n = len(src.variables), len(src.relations), chart.n

    if r > 0:
        return QuotTangentReport(report, None, None, {}, "no oracle: ambient ring has relations")
    if m > 4:
        return QuotTangentReport(report, None, None, {}, "no oracle: too many variables")
    if not is_stable(pt):
        return QuotTangentReport(report, None, None, {}, "no oracle: point is not stable")
    support = detect_reduced_support(pt)
    if support is None or len(support) != n:
        return QuotTangentReport(
            report, None, None, {}, "no oracle: support is not n distinct rational points"
        )
    ext = koszul_ext_oracle(m, n)
    checks = {
        "h0": report.h0 == n * n + ext[0],
        "h1": report.h1 == ext[1],
        "h2": (report.h2_upper == ext[2]) if report.h2_exact else (report.h2_upper >= ext[2]),
    }
    return QuotTangentReport(report, ext, len(support), checks)
