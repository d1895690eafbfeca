"""Matricization: the commutative chart of n x n matrix representations.

Each free generator g becomes an n x n block of entry generators g[mu,nu]
of the same internal degree; a framing row y[1]..y[n] of degree 0 is
adjoined with zero differential.  One routine, `matrix_image`, sends a
free polynomial to its n x n matrix image: a letter becomes its grid of
generators and a word the product of its letters' grids, taken left to
right.  It reads the polynomial as a word automaton whose states are the
distinct weighted suffix sets left after a prefix, so prefixes with the
same suffixes share one image: the five words x^i a x^(4-i) of a
correction differential build the prefix images X^2, X^3 and X^4 once,
not once per word that starts with them.
It transports the free differential to the chart, and `derham` uses it
to trace the 2-form's potential.

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

from .algebra import GenSym, GradedPoly, NCPoly, _cleared, mono_mul
from .errors import StructureError
from .resolution import FreePresentation, Presentation, check_d_squared

KIND_ENTRY = "matrix-entry"
KIND_FRAMING = "framing"


def matrix_image(grids: dict, n: int, p: NCPoly) -> list:
    """The n x n matrix image of p, as rows of GradedPoly entries.

    Letter g stands for the generator grid ``grids[g.name]``, a word for the
    product of its letters' grids and the empty word for the identity.
    Entry (mu, nu) of a word's image sums g_1[mu,i_1] ... g_k[i_{k-1},nu]
    over index paths.  p is read letter by letter as its word automaton
    (Mohri, TCS 234, 2000): a state is a weighted left quotient, the
    (suffix word, coefficient) set left after a prefix, and every prefix
    with that quotient shares the state's one n x n image, the sum of the
    prefixes' images.  A letter h takes a state to the quotient of the
    suffixes that start with h, and its image times h's grid, extended
    with mono_mul into plain term dicts, so no polynomial is built per
    product; a state whose quotient holds the empty word adds that
    coefficient times its image to the result.  The states after one
    letter start from the grid entries, so no merge takes an empty operand.
    The arithmetic runs on D*p, D the lcm of p's denominators, and the
    result is divided by D once.

    Unlike a GradedPoly product this compares no generator tables, and need
    not: every name in the grids is distinct by construction.  `matricize`
    forms g[mu,nu] from distinct free names, the framing is y[mu], de Rham
    symbols are d(...), and a manifest identifier cannot contain brackets
    or parentheses.
    """
    den, terms = _cleared(p.terms)
    out = [[{} for _ in range(n)] for _ in range(n)]
    # states by the length of their longest suffix, which each letter
    # shortens, so a state has all its prefixes before it is read:
    # quotient key -> (quotient, image rows of {end index: terms})
    levels = [{} for _ in range(max(map(len, terms), default=0))]

    def state(quotient: dict) -> list:
        level = levels[max(map(len, quotient))]
        key = frozenset(quotient.items())
        if key not in level:
            level[key] = (quotient, [{} for _ in range(n)])
        return level[key][1]

    c, after = _quotients(terms)
    if c:
        for mu in range(n):
            out[mu][mu][()] = c
    for g, quotient in after.items():
        for row, grid_row in zip(state(quotient), grids[g.name]):
            for j, e in enumerate(grid_row):
                acc = row.setdefault(j, {})
                acc[((e, 1),)] = acc.get(((e, 1),), 0) + 1
    for level in reversed(levels):
        for quotient, rows in level.values():
            c, after = _quotients(quotient)
            if c:
                for out_row, row in zip(out, rows):
                    for nu, terms in row.items():
                        _add_scaled(out_row[nu], terms, c)
            for h, quotient in after.items():
                grid = grids[h.name]
                for step, row in zip(state(quotient), rows):
                    for i, terms in row.items():
                        for j, e in enumerate(grid[i]):
                            _add_products(step.setdefault(j, {}), terms, ((e, 1),))
    image = [[GradedPoly(terms, _raw=True) for terms in row] for row in out]
    return image if den == 1 else [[entry.divide(den) for entry in row] for row in image]


def _quotients(terms: dict):
    """(c, after): c the coefficient of the empty word in terms, 0 when it
    has none, and after each first letter h mapped to the left quotient by
    h, {rest of the word: coefficient} over the words that start with h."""
    after = {}
    for w, c in terms.items():
        if w:
            after.setdefault(w[0], {})[w[1:]] = c
    return terms.get((), 0), after


def _add_scaled(acc: dict, terms: dict, c) -> None:
    """acc += c * terms, on term dicts."""
    for m, a in terms.items():
        s = acc.get(m, 0) + c * a
        if s:
            acc[m] = s
        else:
            del acc[m]


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
