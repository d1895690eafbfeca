"""Matricization: the commutative chart of n x n matrix representations.

Each free generator g becomes an n x n block of entry generators g[mu,nu]
of the same internal degree; a framing row y[1]..y[n] of degree 0 is
adjoined with zero differential.  Words map to entry-matrix products taken
left to right, so the free differential transports to the chart.

The chart differential is a memo built on demand.  `matricize` lays out the
blocks, checks the degree of every free differential and stores the framing
zeros; `chart.diff[g]` matricizes the block of g's base generator the first
time any of its entries is read, and then all n^2 entries are kept.  Tasks
that read only some blocks (the classical truncation, the 2-form and its
closure) never pay for the rest, chiefly the degree -2 correction blocks
t[x_j,l].  `in`, `get`, `len`, iteration and the views see only the entries
built so far, so a reader of the whole chart (d^2 checks, serialization)
walks `chart.generators`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .algebra import GenSym, GradedPoly, NCPoly, extend_derivation, poly_sum
from .errors import DimensionError, StructureError
from .resolution import FreePresentation

KIND_ENTRY = "matrix-entry"
KIND_FRAMING = "framing"


class CDGAMatrix:
    """Square matrix with graded-polynomial entries of one internal degree."""

    __slots__ = ("entries", "n")

    def __init__(self, entries: Sequence[Sequence[GradedPoly]]):
        self.entries = tuple(tuple(row) for row in entries)
        self.n = len(self.entries)
        if any(len(row) != self.n for row in self.entries):
            raise DimensionError("CDGAMatrix must be square")

    @staticmethod
    def identity(n: int) -> "CDGAMatrix":
        one, zero = GradedPoly.const(1), GradedPoly.zero()
        return CDGAMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def from_gens(block: Sequence[Sequence[GenSym]]) -> "CDGAMatrix":
        return CDGAMatrix([[GradedPoly.gen(g) for g in row] for row in block])

    def __getitem__(self, idx):
        return self.entries[idx]

    def __matmul__(self, other: "CDGAMatrix") -> "CDGAMatrix":
        if self.n != other.n:
            raise DimensionError("matrix size mismatch")
        n = self.n
        rows = []
        for mu in range(n):
            row = []
            for nu in range(n):
                row.append(
                    poly_sum(
                        self.entries[mu][rho] * other.entries[rho][nu]
                        for rho in range(n)
                    )
                )
            rows.append(row)
        return CDGAMatrix(rows)

    def __add__(self, other: "CDGAMatrix") -> "CDGAMatrix":
        if self.n != other.n:
            raise DimensionError("matrix size mismatch")
        return CDGAMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "CDGAMatrix") -> "CDGAMatrix":
        return self + (-other)

    def __neg__(self) -> "CDGAMatrix":
        return CDGAMatrix([[-p for p in row] for row in self.entries])

    def scale(self, c) -> "CDGAMatrix":
        return CDGAMatrix([[p.scale(c) for p in row] for row in self.entries])

    def trace(self) -> GradedPoly:
        return poly_sum(self.entries[mu][mu] for mu in range(self.n))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __eq__(self, other):
        return isinstance(other, CDGAMatrix) and self.entries == other.entries

    __hash__ = None


@dataclass
class ChartPresentation:
    """Commutative presentation of the framed rank-n representation chart."""

    source: FreePresentation
    n: int
    blocks: dict = field(repr=False)  # base gen name -> n x n GenSym grid
    framing: tuple = ()
    # GenSym -> GradedPoly, a memo determined by the fields above
    diff: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def generators(self) -> tuple:
        out = [g for block in self.blocks.values() for row in block for g in row]
        out.extend(self.framing)
        return tuple(sorted(out, key=lambda g: g.sort_key))

    def generators_of_degree(self, degree: int) -> tuple:
        return tuple(g for g in self.generators if g.degree == degree)

    def entry_matrix(self, base: GenSym) -> CDGAMatrix:
        return CDGAMatrix.from_gens(self.blocks[base.name])

    def d(self, p: GradedPoly) -> GradedPoly:
        return extend_derivation(self.diff, p, 1)

    def oriented_entry_matrix(self, i: int, j: int) -> CDGAMatrix:
        """Matrix of the degree -1 element with differential [X_i, X_j]."""
        pres = self.source
        if i == j:
            zero = GradedPoly.zero()
            return CDGAMatrix([[zero] * self.n for _ in range(self.n)])
        if i < j:
            return self.entry_matrix(pres.commutators[(i, j)])
        return -self.entry_matrix(pres.commutators[(j, i)])

    def word_matrix(self, word) -> CDGAMatrix:
        return _word_matrix(self.blocks, self.n, word)

    def poly_matrix(self, p: NCPoly) -> CDGAMatrix:
        """Matrix image of a free-layer polynomial."""
        return _poly_matrix(self.blocks, self.n, p)


def _word_matrix(blocks: dict, n: int, word) -> CDGAMatrix:
    out = CDGAMatrix.identity(n)
    for g in word:
        out = out @ CDGAMatrix.from_gens(blocks[g.name])
    return out


def _poly_matrix(blocks: dict, n: int, p: NCPoly) -> CDGAMatrix:
    zero = GradedPoly.zero()
    acc = CDGAMatrix([[zero] * n for _ in range(n)])
    for w, c in sorted(p.terms.items(), key=lambda wc: tuple(g.sort_key for g in wc[0])):
        acc = acc + _word_matrix(blocks, n, w).scale(c)
    return acc


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
        mat = _poly_matrix(self._blocks, len(block), self._images[base])
        for row, images in zip(block, mat.entries):
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


def check_chart_d_squared(chart: ChartPresentation):
    """(generator name, d(d(g))) for every entry generator; all must vanish."""
    from .resolution import DSquaredReport

    entries = []
    for g in chart.generators:
        entries.append((g.name, chart.d(chart.diff[g])))
    return DSquaredReport(tuple(entries))
