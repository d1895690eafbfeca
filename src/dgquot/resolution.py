"""Semi-free noncommutative dga resolutions of k[x1..xm]/(f1..fr).

Generators through internal degree TRUNCATION_DEGREE = -2:

    x_i        degree  0        d(x_i) = 0
    e_S        degree  1 - |S|  the Koszul subset family, below
    s[l]       degree -1        d = free lift of f_l
    t[x_j,l]   degree -2        d = [x_j, s_l] - commutator lift of f_l

The Koszul family has one generator e_S per ascending index tuple S with
2 <= |S| <= 1 - TRUNCATION_DEGREE: a[x_i,x_j] (kind commutator) for |S| = 2
and v[x_i,x_j,x_k] (kind jacobi) for |S| = 3.  With e_{i} = x_i, its
differential is the cobar differential of the exterior coalgebra (Priddy,
Koszul resolutions, Trans. AMS 152, 1970):

    d e_S = sum over S = I + J, I and J nonempty and disjoint,
            of (-1)^(inv(I,J) + |I| + 1) e_I e_J

where inv(I, J) counts the pairs i in I, j in J with i > j.  So
d a[x_i,x_j] = [x_i, x_j] and d v[x_i,x_j,x_k] is the cyclic Jacobi pattern
[x_i, a[x_j,x_k]] - [x_j, a[x_i,x_k]] + [x_k, a[x_i,x_j]].  For r = 0 the
family is the whole minimal resolution when m <= 1 - TRUNCATION_DEGREE.

The t-differential carries a minus sign on the correction term: that is the
unique choice closing d^2 = 0 under the orientation d(a[i,j]) = [x_i, x_j],
and check_d_squared verifies it on every input.

The resolution and its rank-n charts (`repify.ChartPresentation`) share
`Presentation`: a generator table built once, `d`, and one d^2 check.  The
check returns `Residuals`, as do closure and invariance in `derham`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, groupby
from typing import Optional, Sequence

from .algebra import GenSym, GradedPoly, NCPoly, PackLayout, extend_derivation, graded_commutator
from .errors import StructureError
from .parser import parse_poly, variable_gens

KIND_COMMUTATOR = "commutator"
KIND_SYZYGY = "relation-syzygy"
KIND_JACOBI = "jacobi"
KIND_CORRECTION = "correction"

TRUNCATION_DEGREE = -2  # lowest internal degree of a generator
# name letter and kind of the Koszul generator e_S, by |S|
_KOSZUL_NAMES = {2: ("a", KIND_COMMUTATOR), 3: ("v", KIND_JACOBI)}


@dataclass(frozen=True)
class AlgebraInput:
    """Variables and relations presenting the coordinate ring."""

    variables: tuple
    relations: tuple

    def __post_init__(self):
        gens = variable_gens(self.variables)
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "relations", tuple(self.relations))
        if len(self.variables) < 1:
            raise StructureError("need at least one variable")
        allowed = set(gens)
        for f in self.relations:
            if not isinstance(f, GradedPoly) or f.is_zero():
                raise StructureError("relations must be nonzero polynomials")
            extra = f.generators() - allowed
            if extra:
                names = ", ".join(sorted(g.name for g in extra))
                raise StructureError(f"relation uses undeclared generators: {names}")

    @staticmethod
    def from_strings(variables: Sequence[str], relations: Sequence[str]) -> "AlgebraInput":
        gens = variable_gens(variables)
        polys = tuple(parse_poly(s, gens) for s in relations)
        return AlgebraInput(tuple(variables), polys)

    @property
    def var_gens(self) -> tuple:
        return variable_gens(self.variables)


class Presentation:
    """A generator table `generators`, sorted and fixed at construction, and
    a differential `diff` from each generator to its image.  `d` packs on
    one `PackLayout` kept for the presentation's life, so each image is
    packed once, and again only after its `diff` entry is replaced."""

    @cached_property
    def _by_degree(self) -> dict:
        # `generators` is sorted by degree, so each degree is one run
        return {k: tuple(run) for k, run in groupby(self.generators, key=lambda g: g.degree)}

    def generators_of_degree(self, degree: int) -> tuple:
        return self._by_degree.get(degree, ())

    @cached_property
    def _layout(self) -> PackLayout:
        return PackLayout()

    def d(self, p):
        return extend_derivation(self.diff, p, 1, self._layout)


@dataclass
class FreePresentation(Presentation):
    """Generator table and differential of the truncated resolution."""

    source: AlgebraInput
    ordering: tuple  # variable names, the monomial lift order
    variables: tuple  # degree 0
    koszul: dict  # ascending index tuple S, 2 <= |S| <= 1 - truncation_degree -> e_S
    syzygies: tuple  # one per relation
    corrections: dict  # (j, l) -> GenSym
    diff: dict = field(repr=False)  # GenSym -> NCPoly

    truncation_degree = TRUNCATION_DEGREE  # unannotated: a class constant, not a field

    @cached_property
    def generators(self) -> tuple:
        out = [*self.variables, *self.koszul.values(), *self.syzygies, *self.corrections.values()]
        return tuple(sorted(out))

    def oriented_commutator(self, i: int, j: int) -> NCPoly:
        """A(i, j): the degree -1 element with d = [x_i, x_j]."""
        if i == j:
            return NCPoly.zero()
        if i < j:
            return NCPoly.gen(self.koszul[(i, j)])
        return -NCPoly.gen(self.koszul[(j, i)])


def lift_to_free(f: GradedPoly, order: Sequence[GenSym]) -> NCPoly:
    """Lift a commutative polynomial to the free algebra by writing each
    monomial with letters sorted ascending in the given variable order."""
    pos = {g: k for k, g in enumerate(order)}
    acc = {}
    for m, c in f.terms.items():
        word = []
        for g, e in m:
            if g not in pos:
                raise StructureError(f"unknown variable {g.name!r} in lift")
            word.extend([g] * e)
        word.sort(key=pos.__getitem__)
        acc[tuple(word)] = acc.get(tuple(word), 0) + c
    return NCPoly(acc)


def commutator_lift(pres: FreePresentation, j: int, f_lift: NCPoly) -> NCPoly:
    """xi with d(xi) = [x_j, f_lift], built letter by letter.

    Each word x_{i1}..x_{ik} contributes sum_l prefix * A(j, i_l) * suffix.
    """
    var_index = {g: k for k, g in enumerate(pres.variables)}
    out = NCPoly.zero()
    for w, c in f_lift.terms.items():
        for g in w:
            if g not in var_index:
                raise StructureError(
                    f"commutator lift requires a degree-0 word, found {g.name!r}"
                )
        for l, g in enumerate(w):
            a = pres.oriented_commutator(j, var_index[g])
            if a:
                out = out + NCPoly.word(w[:l], c) * a * NCPoly.word(w[l + 1 :])
    return out


def build_resolution(source: AlgebraInput, ordering: Optional[Sequence[str]] = None) -> FreePresentation:
    """Construct the truncated semi-free resolution with its differential."""
    var_names = list(source.variables)
    if ordering is None:
        ordering = tuple(var_names)
    else:
        ordering = tuple(ordering)
        if sorted(ordering) != sorted(var_names):
            raise StructureError("ordering must be a permutation of the variables")
    variables = source.var_gens
    m = len(variables)
    r = len(source.relations)

    koszul = {
        S: GenSym(f"{letter}[{','.join(var_names[i] for i in S)}]", 1 - size, kind)
        for size in range(2, 2 - TRUNCATION_DEGREE)
        for letter, kind in [_KOSZUL_NAMES[size]]
        for S in combinations(range(m), size)
    }
    syzygies = tuple(GenSym(f"s[{l + 1}]", -1, KIND_SYZYGY) for l in range(r))
    corrections = {
        (j, l): GenSym(f"t[{var_names[j]},{l + 1}]", -2, KIND_CORRECTION)
        for j in range(m)
        for l in range(r)
    }

    pres = FreePresentation(
        source=source,
        ordering=ordering,
        variables=variables,
        koszul=koszul,
        syzygies=syzygies,
        corrections=corrections,
        diff={},
    )

    order_gens = [variables[var_names.index(name)] for name in ordering]
    lifts = [lift_to_free(f, order_gens) for f in source.relations]

    def e(S):
        return variables[S[0]] if len(S) == 1 else koszul[S]

    diff = {g: NCPoly.zero() for g in variables}
    for S, g in koszul.items():
        terms = {}
        for size in range(1, len(S)):
            for I in combinations(S, size):
                J = tuple(j for j in S if j not in I)
                inv = sum(i > j for i in I for j in J)
                terms[(e(I), e(J))] = (-1) ** (inv + size + 1)
        diff[g] = NCPoly(terms)
    for l, g in enumerate(syzygies):
        diff[g] = lifts[l]
    for (j, l), g in corrections.items():
        xj = NCPoly.gen(variables[j])
        diff[g] = graded_commutator(xj, NCPoly.gen(syzygies[l])) - commutator_lift(
            pres, j, lifts[l]
        )
    pres.diff = diff
    return pres


class Residuals(dict):
    """An exact check's result: each label it checked, in order, mapped to
    the residual there.  The check holds when every residual is zero."""

    @property
    def ok(self) -> bool:
        return not any(self.values())

    def failures(self) -> list:
        return [(label, p) for label, p in self.items() if p]


def check_d_squared(pres: Presentation) -> Residuals:
    """Each generator's name mapped to d(d(g)), for a free or chart presentation."""
    return Residuals((g.name, pres.d(pres.diff[g])) for g in pres.generators)
