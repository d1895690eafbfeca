"""De Rham calculus on a chart and the shifted 2-form of the quintic chart.

The de Rham algebra extends a chart by one symbol d(g) per generator g,
with internal degree of g and Koszul parity parity(g) + 1.  Two
anticommuting odd derivations act: the internal differential (from the
chart) and the de Rham differential.  On the four-variable quintic chart
the traced potential phi is assembled from the displayed six-term product
pattern; omega0 = d_dR(phi) is the candidate (-1)-shifted 2-form, and the
closure, pairing and invariance probes below are exact symbolic
computations.

The internal-differential images are built on demand: the image of g (its
chart differential, itself built block by block) or of d(g) (that is,
-d_dR(d g)) is computed the first time a derivation reads it and then kept.
Closure of the quintic form reads about half of them; iterating over the
image table builds them all.  The de Rham images are cheap and built
eagerly.

Contraction convention: interior products act as odd left derivations
(iota(ab) = iota(a) b + (-1)^|a| a iota(b)) that kill plain generators.
The convention is fixed here once and validated by the Cartan-formula
identities exercised in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from . import linalg
from .algebra import GenSym, GradedPoly, _LazyImages, extend_derivation, poly_sum
from .errors import NotClassicalError, StructureError
from .parser import parse_poly
from .points import MatrixPoint, chart_assignment, is_classical_point
from .repify import CDGAMatrix, ChartPresentation


class DeRhamAlgebra:
    """Chart generators plus their de Rham symbols, with both differentials."""

    def __init__(self, chart: ChartPresentation):
        self.chart = chart
        gens = chart.generators
        self.delta = {
            g: GenSym(f"d({g.name})", g.degree, g.kind, dform=True) for g in gens
        }
        self.delta_base = {d: g for g, d in self.delta.items()}
        zero = GradedPoly.zero()
        ddr_images = {}
        for g in gens:
            ddr_images[g] = GradedPoly.gen(self.delta[g])
            ddr_images[self.delta[g]] = zero
        self._ddr_images = ddr_images
        self._dint_images = _DintImages(chart.diff, ddr_images, self.delta_base)

    def ddr(self, e: GradedPoly) -> GradedPoly:
        """De Rham differential: bidegree (0, +1), odd."""
        return extend_derivation(self._ddr_images, e, 1)

    def dint(self, e: GradedPoly) -> GradedPoly:
        """Internal differential: bidegree (+1, 0), odd."""
        return extend_derivation(self._dint_images, e, 1)

    def delta_matrix(self, base: GenSym) -> CDGAMatrix:
        block = self.chart.blocks[base.name]
        return CDGAMatrix(
            [[GradedPoly.gen(self.delta[g]) for g in row] for row in block]
        )

    def contraction(self, delta_images: dict) -> dict:
        """Images for an interior product: plain generators die, each
        d(g) maps to the supplied value (default zero)."""
        zero = GradedPoly.zero()
        images = {}
        for g in self.chart.generators:
            images[g] = zero
            images[self.delta[g]] = delta_images.get(g, zero)
        return images


class _DintImages(_LazyImages):
    """Internal-differential images of chart generators and their d(g)."""

    def __init__(self, chart_diff: dict, ddr_images: dict, delta_base: dict):
        self._diff = chart_diff
        self._ddr_images = ddr_images
        self._delta_base = delta_base  # d(g) -> g

    def _domain(self):
        return chain(self._delta_base.values(), self._delta_base)

    def _build(self, key):
        base = self._delta_base.get(key)
        if base is None:
            self[key] = self._diff[key]
        else:
            # d(delta g) = -delta(d g) forces the anticommutation identity
            self[key] = -extend_derivation(self._ddr_images, self._diff[base], 1)


_FERMAT_VARS = ("w", "x", "y", "z")


def _require_fermat(chart: ChartPresentation):
    src = chart.source.source
    if tuple(src.variables) != _FERMAT_VARS or len(src.relations) != 1:
        raise StructureError(
            "the traced 2-form is defined on the four-variable quintic chart"
        )
    quintic = parse_poly("w^5 + x^5 + y^5 + z^5 + 1", src.variables)
    if src.relations[0] != quintic:
        raise StructureError("chart relation is not the affine quintic")


def build_phi(dr: DeRhamAlgebra) -> GradedPoly:
    """Traced potential: internal degree -1, form degree 1.

    Six terms pair coordinate/coordinate-differential products with the
    commutator generator of the complementary index pair, following the
    holomorphic-volume-form pattern (w dx - x dw) wedge ... on the chart.
    In a one-parity Koszul convention the naive antisymmetrized product
    transcription is not d-closed for n >= 2, so the coefficients below
    are the cyclically symmetric solution of the defining constraints:
    d(d_dR phi) = 0 for n in {1,2,3}, vanishing Lie derivative along
    infinitesimal conjugation, and the rank-1 coordinate pairing values
    at rank-one points.  The test suite re-verifies each property.
    """
    chart = dr.chart
    _require_fermat(chart)
    pres = chart.source
    var_idx = {g.name: i for i, g in enumerate(pres.variables)}

    def coord(name):
        return chart.entry_matrix(pres.variables[var_idx[name]])

    def dcoord(name):
        return dr.delta_matrix(pres.variables[var_idx[name]])

    def u(i_name, j_name):
        return chart.oriented_entry_matrix(var_idx[i_name], var_idx[j_name])

    third = Fraction(1, 3)
    terms = []
    # couples containing the first coordinate
    for b, (p, q) in (("x", ("y", "z")), ("y", ("z", "x")), ("z", ("x", "y"))):
        A, B, U = coord("w"), coord(b), u(p, q)
        dA, dB = dcoord("w"), dcoord(b)
        terms.append((A @ dB @ U + B @ dA @ U - (A @ U @ dB).scale(2)).scale(third))
    # complementary couples
    for (a, b), (p, q) in ((("y", "z"), ("w", "x")), (("z", "x"), ("w", "y")), (("x", "y"), ("w", "z"))):
        A, B, U = coord(a), coord(b), u(p, q)
        dA, dB = dcoord(a), dcoord(b)
        terms.append((B @ dA @ U - A @ dB @ U).scale(third))
    return poly_sum(t.trace() for t in terms)


def omega0(dr: DeRhamAlgebra, phi: Optional[GradedPoly] = None) -> GradedPoly:
    if phi is None:
        phi = build_phi(dr)
    return dr.ddr(phi)


@dataclass
class CloseCheckReport:
    dint_residual: GradedPoly
    ddr_residual: GradedPoly

    @property
    def ok(self) -> bool:
        return self.dint_residual.is_zero() and self.ddr_residual.is_zero()


def close_check(dr: DeRhamAlgebra, omega: Optional[GradedPoly] = None) -> CloseCheckReport:
    if omega is None:
        omega = omega0(dr)
    return CloseCheckReport(dr.dint(omega), dr.ddr(omega))


@dataclass
class PairingReport:
    rows: tuple  # degree-0 generators
    cols: tuple  # degree -1 generators
    matrix: tuple  # len(rows) x len(cols) rationals
    rank: int

    def entry(self, row_gen: GenSym, col_gen: GenSym) -> Fraction:
        return self.matrix[self.rows.index(row_gen)][self.cols.index(col_gen)]


def pairing_at(dr: DeRhamAlgebra, omega: GradedPoly, pt: MatrixPoint) -> PairingReport:
    """Chain-level pairing between degree-0 directions and duals of
    degree -1 generators, evaluated at a classical point.

    Column u: contract omega along the dual tangent direction of u (an odd
    interior product with iota(d(u)) = 1), substitute the point into the
    degree-0 coordinates, kill the negative-degree coordinates, and read
    off the coefficients of the surviving d(g) with g of degree 0.
    """
    chart = dr.chart
    ok, witness = is_classical_point(pt, chart)
    if not ok:
        raise NotClassicalError("pairing", witness)
    assign = chart_assignment(chart, pt)
    rows = chart.generators_of_degree(0)
    cols = chart.generators_of_degree(-1)
    row_index = {g: i for i, g in enumerate(rows)}
    one = GradedPoly.const(1)

    matrix = []
    for u in cols:
        contraction = extend_derivation(dr.contraction({u: one}), omega, 1)
        # substitute the point: degree-0 values, negatives to zero
        column = [Fraction(0)] * len(rows)
        for mono, c in contraction.terms.items():
            val = c
            dgen = None
            dead = False
            for g, e in mono:
                if g.dform:
                    if g.degree != 0 or dgen is not None:
                        dead = True
                        break
                    dgen = dr.delta_base[g]
                elif g.degree == 0:
                    val *= assign[g] ** e
                else:
                    dead = True
                    break
            if dead or dgen is None or not val:
                continue
            column[row_index[dgen]] += val
        matrix.append(column)
    mat = tuple(zip(*matrix)) if matrix else ()
    mat = tuple(tuple(row) for row in mat)
    rank = linalg.rank(mat) if mat else 0
    return PairingReport(rows, cols, mat, rank)


@dataclass
class InvarianceReport:
    lie_residual: GradedPoly

    @property
    def ok(self) -> bool:
        return self.lie_residual.is_zero()


def conjugation_field(dr: DeRhamAlgebra, xi) -> dict:
    """Values of the infinitesimal conjugation vector field on generators:
    matrix blocks move by [xi, -], the framing by xi itself."""
    chart = dr.chart
    xi = linalg.as_matrix(xi)
    n = chart.n
    if linalg.mat_shape(xi) != (n, n):
        raise StructureError("xi must be an n x n matrix")
    values = {}
    for name, block in chart.blocks.items():
        for mu in range(n):
            for nu in range(n):
                acc = {}
                for rho in range(n):
                    if xi[mu][rho]:
                        key = ((block[rho][nu], 1),)
                        acc[key] = acc.get(key, Fraction(0)) + xi[mu][rho]
                    if xi[rho][nu]:
                        key = ((block[mu][rho], 1),)
                        acc[key] = acc.get(key, Fraction(0)) - xi[rho][nu]
                values[block[mu][nu]] = GradedPoly(acc)
    for mu, yg in enumerate(chart.framing):
        acc = {}
        for rho in range(n):
            if xi[mu][rho]:
                acc[((chart.framing[rho], 1),)] = xi[mu][rho]
        values[yg] = GradedPoly(acc)
    return values


def invariance_check(dr: DeRhamAlgebra, omega: GradedPoly, xi) -> InvarianceReport:
    """Lie derivative along infinitesimal conjugation via the Cartan
    formula L = iota d_dR + d_dR iota; zero means the form descends."""
    field = conjugation_field(dr, xi)
    iota_images = dr.contraction(field)
    contracted = extend_derivation(iota_images, omega, 1)
    lie = dr.ddr(contracted) + extend_derivation(iota_images, dr.ddr(omega), 1)
    return InvarianceReport(lie)
