"""De Rham calculus on a chart and the shifted 2-form of the quintic chart.

The de Rham algebra extends a chart by one symbol d(g) per generator g,
with internal degree of g and Koszul parity parity(g) + 1.  Two
anticommuting odd derivations act: the internal differential (from the
chart) and the de Rham differential.  On the four-variable quintic chart
the potential phi is a trace: `repify.matrix_image` sends a six-term free
potential Phi, in the coordinates x, their de Rham symbols d(x) and the
commutator generators a[p,q], to its n x n image, and phi is the sum of
the diagonal.  omega0 = d_dR(phi) is the candidate (-1)-shifted 2-form, and
the closure, pairing and invariance probes below are exact symbolic
computations; closure and invariance return `resolution.Residuals`.  Phi's
coefficients are thirds; the image is taken of the integer potential 3*Phi
and the trace divided by 3 once, and the derivations clear phi's and
omega's thirds the same way, so every product on the way runs on ints.

The internal-differential images are a memo built on demand: the image of
g (its chart differential, itself built block by block) or of d(g) (that
is, -d_dR(d g)) is computed the first time a derivation reads it and then
kept.  Closure of the quintic form reads about half of them.  Only a `[]`
lookup builds an image; `in`, `get`, `len`, iteration and the views see the
images built so far.  The de Rham images are cheap and built eagerly.

phi and omega0 are built once per DeRhamAlgebra and kept on it, so every
task that reads the quintic form on one chart (form-check, pair,
selfcheck) shares one phi and one omega, and both are freed with the
algebra.  `omega0(dr)` builds phi through `build_phi` on its first call.

Contraction convention: interior products act as odd left derivations
(iota(ab) = iota(a) b + (-1)^|a| a iota(b)) that kill plain generators.
The convention is fixed here once and validated by the Cartan-formula
identities exercised in the tests.  The pairing applies it without running
a derivation: in omega's term c d(x) d(u) at a point (x of degree 0, u of
degree -1), d(x) is the one odd factor before d(u), so iota(d(u)) = 1 gives
-c d(x) and the pairing entry at (x, u) is -c.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import GenSym, GradedPoly, NCPoly, extend_derivation, poly_sum
from .errors import NotClassicalError, StructureError
from .parser import parse_poly
from .points import chart_assignment, is_classical_point, is_stable, point_tests
from .repify import ChartPresentation, matrix_image
from .resolution import Residuals


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
        self._forms = {}  # "phi", "omega": the quintic forms, built once

    def ddr(self, e: GradedPoly) -> GradedPoly:
        """De Rham differential: bidegree (0, +1), odd."""
        return extend_derivation(self._ddr_images, e, 1)

    def dint(self, e: GradedPoly) -> GradedPoly:
        """Internal differential: bidegree (+1, 0), odd."""
        return extend_derivation(self._dint_images, e, 1)

    def contraction(self, delta_images: dict) -> dict:
        """Images for an interior product: plain generators die, each
        d(g) maps to the supplied value (default zero)."""
        zero = GradedPoly.zero()
        images = {}
        for g in self.chart.generators:
            images[g] = zero
            images[self.delta[g]] = delta_images.get(g, zero)
        return images


class _DintImages(dict):
    """Internal-differential images of chart generators and their d(g),
    each built by a miss on `[]`."""

    def __init__(self, chart_diff: dict, ddr_images: dict, delta_base: dict):
        self._diff = chart_diff
        self._ddr_images = ddr_images
        self._delta_base = delta_base  # d(g) -> g

    def __missing__(self, key):
        base = self._delta_base.get(key)
        if base is None:
            image = self._diff[key]
        else:
            # d(delta g) = -delta(d g) forces the anticommutation identity
            image = -extend_derivation(self._ddr_images, self._diff[base], 1)
        self[key] = image
        return image


_FERMAT_VARS = ("w", "x", "y", "z")


def _require_fermat(chart: ChartPresentation):
    """Raise unless the chart is the four-variable affine quintic.

    The guard encodes mathematics.  With it bypassed, omega0 is still closed
    on other four-variable charts, but it pairs tangent cohomology H^0 with
    the degree-1 cocycles with rank 0 on wx - yz (n = 1, 2) and on the
    hyperplane w (n = 2), while on the Fermat cubic w^3 + x^3 + y^3 + z^3 - 1
    it is nondegenerate, as on the quintic.  Closure alone does not decide.
    """
    src = chart.source.source
    if tuple(src.variables) != _FERMAT_VARS or len(src.relations) != 1:
        raise StructureError(
            "the traced 2-form is defined on the four-variable quintic chart"
        )
    quintic = parse_poly("w^5 + x^5 + y^5 + z^5 + 1", src.variables)
    if src.relations[0] != quintic:
        raise StructureError("chart relation is not the affine quintic")


def build_phi(dr: DeRhamAlgebra) -> GradedPoly:
    """Traced potential phi = tr(image of Phi): internal degree -1, form degree 1.

    Phi is a free potential in the letters x, d(x) and a[p,q].  Its six
    terms pair coordinate/coordinate-differential products with the
    commutator generator of the complementary index pair, following the
    holomorphic-volume-form pattern (w dx - x dw) wedge ...; the commutator
    is `pres.oriented_commutator`, so a[q,p] with q after p stands for
    -a[p,q].  Its image sends x and a[p,q] to their chart blocks and d(x) to
    the de Rham symbols of x's block.
    In a one-parity Koszul convention the naive antisymmetrized product
    transcription is not d-closed for n >= 2, so the coefficients below,
    those of 3*Phi, are the cyclically symmetric solution of the defining
    constraints:
    d(d_dR phi) = 0 for n in {1,2,3}, vanishing Lie derivative along
    infinitesimal conjugation, and the rank-1 coordinate pairing values
    at rank-one points.  The test suite re-verifies each property.

    Built once per DeRhamAlgebra: later calls return the same phi.
    """
    if "phi" in dr._forms:
        return dr._forms["phi"]
    chart = dr.chart
    _require_fermat(chart)
    pres = chart.source
    dvar = [GenSym(f"d({g.name})", g.degree, g.kind, dform=True) for g in pres.variables]
    X = [NCPoly.gen(g) for g in pres.variables]  # w, x, y, z
    dX = [NCPoly.gen(d) for d in dvar]
    A = pres.oriented_commutator
    potential = NCPoly.zero()
    for k in (1, 2, 3):
        i, j = k % 3 + 1, (k + 1) % 3 + 1  # k, i, j: x, y, z in cyclic order
        # the couple of w with x_k, and the complementary couple of x_i with x_j
        U, V = A(i, j), A(0, k)
        potential += X[0] * dX[k] * U + X[k] * dX[0] * U - 2 * X[0] * U * dX[k]
        potential += X[j] * dX[i] * V - X[i] * dX[j] * V
    # potential is 3*Phi, with integer coefficients, so its image and trace
    # run on ints; Phi's 1/3, the package's only non-integer coefficient,
    # is applied once, to the traced sum
    grids = dict(chart.blocks)
    for g, d in zip(pres.variables, dvar):
        grids[d.name] = [[dr.delta[h] for h in row] for row in chart.blocks[g.name]]
    image = matrix_image(grids, chart.n, potential)
    phi = dr._forms["phi"] = poly_sum(image[mu][mu] for mu in range(chart.n)).divide(3)
    return phi


def omega0(dr: DeRhamAlgebra) -> GradedPoly:
    """The candidate 2-form d_dR(phi) of the quintic chart, built on the
    first call from `build_phi(dr)` and then kept on dr."""
    if "omega" not in dr._forms:
        dr._forms["omega"] = dr.ddr(build_phi(dr))
    return dr._forms["omega"]


def close_check(dr: DeRhamAlgebra, omega: GradedPoly) -> Residuals:
    """d_int and d_dR of omega, labelled "dint" and "ddr"; zero means closed."""
    return Residuals(dint=dr.dint(omega), ddr=dr.ddr(omega))


@dataclass
class PairingReport:
    rows: tuple  # degree-0 generators
    cols: tuple  # degree -1 generators
    matrix: tuple  # len(rows) x len(cols) linalg.Matrix
    rank: int


def pairing_at(dr: DeRhamAlgebra, omega: GradedPoly, pt) -> PairingReport:
    """Chain-level pairing between degree-0 directions and duals of
    degree -1 generators, evaluated at a classical point.

    The entry at (x, u) is -c, where c is the coefficient of d(x) d(u) in
    omega at the point (its degree-0 coordinates substituted).  That is the
    odd interior product with iota(d(u)) = 1, read off at d(x): canonical
    order puts the plain factors first, then d(x), the one odd factor, then
    d(u), so iota passes d(x) and picks up the sign -1.  Every other term
    contracts to zero or keeps a negative-degree factor, which the pairing
    drops.

    `pt` is a `MatrixPoint`, tested here, or its `points.PointTests` on
    `dr.chart`, whose verdict it reads.  Raises NotClassicalError when the
    point is not classical.
    """
    chart = dr.chart
    tests = point_tests(chart, pt, is_classical_point, is_stable)
    ok, witness = tests.verdict
    if not ok:
        raise NotClassicalError("pairing", witness)
    rows = chart.generators_of_degree(0)
    cols = chart.generators_of_degree(-1)
    row_index = {dr.delta[g]: i for i, g in enumerate(rows)}
    col_index = {dr.delta[g]: j for j, g in enumerate(cols)}
    matrix = [[0] * len(cols) for _ in rows]
    for mono, c in omega.evaluate(chart_assignment(chart, tests.point)).terms.items():
        if len(mono) == 2:
            (dx, _), (du, e) = mono
            if e == 1 and dx in row_index and du in col_index:
                matrix[row_index[dx]][col_index[du]] -= c
    mat = linalg.as_matrix(matrix)
    return PairingReport(rows, cols, mat, linalg.rank(mat))


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
                        acc[key] = acc.get(key, 0) + xi[mu][rho]
                    if xi[rho][nu]:
                        key = ((block[mu][rho], 1),)
                        acc[key] = acc.get(key, 0) - xi[rho][nu]
                values[block[mu][nu]] = GradedPoly(acc)
    for mu, yg in enumerate(chart.framing):
        acc = {}
        for rho in range(n):
            if xi[mu][rho]:
                acc[((chart.framing[rho], 1),)] = xi[mu][rho]
        values[yg] = GradedPoly(acc)
    return values


def invariance_check(dr: DeRhamAlgebra, omega: GradedPoly, xi) -> Residuals:
    """Lie derivative along infinitesimal conjugation via the Cartan
    formula L = iota d_dR + d_dR iota, labelled "lie"; zero means omega descends."""
    field = conjugation_field(dr, xi)
    iota_images = dr.contraction(field)
    contracted = extend_derivation(iota_images, omega, 1)
    lie = dr.ddr(contracted) + extend_derivation(iota_images, dr.ddr(omega), 1)
    return Residuals(lie=lie)
