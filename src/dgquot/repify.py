"""Matricization: the commutative chart of n x n matrix representations.

Each free generator g becomes an n x n block of entry generators g[mu,nu]
of the same internal degree; a framing row y[1]..y[n] of degree 0 is
adjoined with zero differential.  One routine, `matrix_image`, sends a
free polynomial to its n x n matrix image: a letter becomes its grid of
generators and a word the product of its letters' grids, taken left to
right.  It transports the free differential to the chart, and `derham`
uses it to trace the 2-form's potential.

The chart differential is a memo built on demand.  `matricize` lays out the
blocks, checks the degree of every free differential and stores the framing
zeros; `chart.diff[g]` matricizes the block of g's base generator the first
time any of its entries is read, and then all n^2 entries are kept.  Tasks
that read only some blocks (the classical truncation, the 2-form and its
closure) never pay for the rest, chiefly the degree -2 correction blocks
t[x_j,l].  `in`, `get`, `len`, iteration and the views see only the entries
built so far, so a reader of the whole chart (d^2 checks, serialization)
walks `chart.generators`.

A chart is a `resolution.Presentation`, as the free resolution is, so it
shares `d` and the one d^2 check: `check_chart_d_squared` is `check_d_squared`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .algebra import GenSym, GradedPoly, NCPoly, mono_mul
from .errors import StructureError
from .resolution import FreePresentation, Presentation, check_d_squared

KIND_ENTRY = "matrix-entry"
KIND_FRAMING = "framing"


def matrix_image(grids: dict, n: int, p: NCPoly) -> list:
    """The n x n matrix image of p, as rows of GradedPoly entries.

    Letter g stands for the generator grid ``grids[g.name]``, a word for the
    product of its letters' grids and the empty word for the identity.
    Entry (mu, nu) of a word's image sums g_1[mu,i_1] ... g_k[i_{k-1},nu]
    over index paths, extended left to right with mono_mul into plain term
    dicts, so no polynomial is built per product.  Unlike a GradedPoly
    product this compares no generator tables, and need not: every name in
    the grids is distinct by construction.  `matricize` forms g[mu,nu] from
    distinct free names, the framing is y[mu], de Rham symbols are d(...),
    and a manifest identifier cannot contain brackets or parentheses.
    """
    out = [[{} for _ in range(n)] for _ in range(n)]
    for word, c in p.terms.items():
        for mu in range(n):
            # end index -> terms of the partial products, from the first
            # letter on, so no merge takes an empty operand
            if word:
                paths = {j: {((e, 1),): c} for j, e in enumerate(grids[word[0].name][mu])}
            else:
                paths = {mu: {(): c}}
            for g in word[1:]:
                grid = grids[g.name]
                step = {}
                for i, terms in paths.items():
                    for j, e in enumerate(grid[i]):
                        _add_products(step.setdefault(j, {}), terms, ((e, 1),))
                paths = step
            for nu, terms in paths.items():
                acc = out[mu][nu]
                for m, a in terms.items():
                    s = acc.get(m, 0) + a
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
    return [[GradedPoly(terms, _raw=True) for terms in row] for row in out]


def _add_products(acc: dict, terms: dict, factor) -> None:
    """acc += terms * factor, on term dicts of canonical monomials."""
    for m, a in terms.items():
        sign, key = mono_mul(m, factor)
        if sign:
            s = acc.get(key, 0) + (a if sign > 0 else -a)
            if s:
                acc[key] = s
            else:
                del acc[key]


@dataclass
class ChartPresentation(Presentation):
    """Commutative presentation of the framed rank-n representation chart."""

    source: FreePresentation
    n: int
    blocks: dict = field(repr=False)  # base gen name -> n x n GenSym grid
    framing: tuple = ()
    # GenSym -> GradedPoly, a memo determined by the fields above
    diff: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def generators(self) -> tuple:
        out = [g for block in self.blocks.values() for row in block for g in row]
        out.extend(self.framing)
        return tuple(sorted(out))


class _ChartDiff(dict):
    """Chart differentials, matricized one base generator's block at a time.

    A miss on `[]` builds the entry's whole block; a key outside the chart
    raises KeyError.  No other read builds anything.
    """

    def __init__(self, images: dict, blocks: dict, framing: tuple):
        super().__init__((y, GradedPoly.zero()) for y in framing)
        self._images = images  # base GenSym -> free differential (NCPoly)
        self._blocks = blocks
        self._owner = {e: g for g in images for row in blocks[g.name] for e in row}

    def __missing__(self, key):
        base = self._owner[key]
        block = self._blocks[base.name]
        mat = matrix_image(self._blocks, len(block), self._images[base])
        for row, images in zip(block, mat):
            for g, image in zip(row, images):
                # an entry replaced by a caller is kept
                self.setdefault(g, image)
        return self[key]


def matricize(pres: FreePresentation, n: int) -> ChartPresentation:
    """Framed rank-n chart of pres; entry differentials are built on first read."""
    if n < 1:
        raise StructureError("matricization rank must be >= 1")
    images, blocks = {}, {}
    for g in pres.generators:
        image = pres.diff[g]
        # word matrices are homogeneous, so this is the chart's degree check
        if image and image.internal_degree() != g.degree + 1:
            raise StructureError(f"differential of {g.name} is not degree +1")
        images[g] = image
        blocks[g.name] = [
            [
                GenSym(f"{g.name}[{mu + 1},{nu + 1}]", g.degree, KIND_ENTRY)
                for nu in range(n)
            ]
            for mu in range(n)
        ]
    framing = tuple(GenSym(f"y[{mu + 1}]", 0, KIND_FRAMING) for mu in range(n))
    return ChartPresentation(
        source=pres, n=n, blocks=blocks, framing=framing,
        diff=_ChartDiff(images, blocks, framing),
    )


def h0_ideal(chart: ChartPresentation) -> list:
    """Differentials of all degree -1 entry generators: the defining
    equations of the classical truncation."""
    return [chart.diff[g] for g in chart.generators_of_degree(-1)]


check_chart_d_squared = check_d_squared
