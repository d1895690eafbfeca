"""Matricization: the commutative chart of n x n matrix representations.

Each free generator g becomes an n x n block of entry generators g[mu,nu]
of the same internal degree; a framing row y[1]..y[n] of degree 0 is
adjoined with zero differential.  Words map to entry-matrix products taken
left to right, so the free differential transports to the chart.
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
    diff: dict = field(default_factory=dict, repr=False)  # GenSym -> GradedPoly

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
        out = CDGAMatrix.identity(self.n)
        for g in word:
            out = out @ self.entry_matrix(g)
        return out

    def poly_matrix(self, p: NCPoly) -> CDGAMatrix:
        """Matrix image of a free-layer polynomial."""
        zero = GradedPoly.zero()
        acc = CDGAMatrix([[zero] * self.n for _ in range(self.n)])
        for w, c in sorted(p.terms.items(), key=lambda wc: tuple(g.sort_key for g in wc[0])):
            acc = acc + self.word_matrix(w).scale(c)
        return acc


def matricize(pres: FreePresentation, n: int) -> ChartPresentation:
    if n < 1:
        raise StructureError("matricization rank must be >= 1")
    blocks = {}
    for g in pres.generators:
        blocks[g.name] = [
            [
                GenSym(f"{g.name}[{mu + 1},{nu + 1}]", g.degree, KIND_ENTRY)
                for nu in range(n)
            ]
            for mu in range(n)
        ]
    framing = tuple(GenSym(f"y[{mu + 1}]", 0, KIND_FRAMING) for mu in range(n))
    chart = ChartPresentation(source=pres, n=n, blocks=blocks, framing=framing)

    diff = {}
    for g in pres.generators:
        image = pres.diff[g]
        mat = chart.poly_matrix(image)
        block = blocks[g.name]
        for mu in range(n):
            for nu in range(n):
                diff[block[mu][nu]] = mat[mu][nu]
    for y in framing:
        diff[y] = GradedPoly.zero()
    chart.diff = diff

    for g, image in diff.items():
        if image:
            if image.internal_degree() != g.degree + 1:
                raise StructureError(f"differential of {g.name} is not degree +1")
    return chart


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
