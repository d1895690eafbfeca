import random
import re
import sys
from fractions import Fraction

import pytest

from dgquot import (
    AlgebraInput,
    DeRhamAlgebra,
    DimensionError,
    GradedPoly,
    NCPoly,
    StructureError,
    build_resolution,
    check_chart_d_squared,
    close_check,
    diag_point,
    gl_action,
    h0_ideal,
    matricize,
    matrix_image,
    omega0,
)
from dgquot.algebra import poly_sum
from dgquot.points import chart_assignment, evaluate_relation_matrix, matrices_satisfy
from dgquot import algebra, cli, linalg, repify, resolution
from tests.test_algebra import tuple_key


class CDGAMatrix:
    """Reference route for `matrix_image`: a square matrix of GradedPolys
    whose products are sums of GradedPoly products, each checking that the
    two factors' generator tables agree."""

    __slots__ = ("entries", "n")

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        self.n = len(self.entries)
        if any(len(row) != self.n for row in self.entries):
            raise DimensionError("CDGAMatrix must be square")

    @staticmethod
    def identity(n):
        one, zero = GradedPoly.const(1), GradedPoly.zero()
        return CDGAMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def from_gens(block):
        return CDGAMatrix([[GradedPoly.gen(g) for g in row] for row in block])

    def __getitem__(self, idx):
        return self.entries[idx]

    def __matmul__(self, other):
        if self.n != other.n:
            raise DimensionError("matrix size mismatch")
        n = self.n
        return CDGAMatrix(
            [
                [poly_sum(self.entries[mu][rho] * other.entries[rho][nu] for rho in range(n))
                 for nu in range(n)]
                for mu in range(n)
            ]
        )

    def __add__(self, other):
        if self.n != other.n:
            raise DimensionError("matrix size mismatch")
        return CDGAMatrix([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CDGAMatrix([[-p for p in row] for row in self.entries])

    def scale(self, c):
        return CDGAMatrix([[p.scale(c) for p in row] for row in self.entries])

    def trace(self):
        return poly_sum(self.entries[mu][mu] for mu in range(self.n))

    def is_zero(self):
        return all(p.is_zero() for row in self.entries for p in row)

    def __eq__(self, other):
        return isinstance(other, CDGAMatrix) and self.entries == other.entries

    __hash__ = None


def word_matrix_reference(blocks, n, word):
    out = CDGAMatrix.identity(n)
    for g in word:
        out = out @ CDGAMatrix.from_gens(blocks[g.name])
    return out


def poly_matrix_reference(blocks, n, p):
    zero = GradedPoly.zero()
    acc = CDGAMatrix([[zero] * n for _ in range(n)])
    for w, c in sorted(p.terms.items(), key=lambda wc: tuple(map(tuple_key, wc[0]))):
        acc = acc + word_matrix_reference(blocks, n, w).scale(c)
    return acc


def test_matricize_rank_validation(presentations):
    with pytest.raises(StructureError):
        matricize(presentations["k[x]"], 0)


def _eager_diff(chart) -> dict:
    """Every chart differential, built up front by the reference route."""
    pres = chart.source
    diff = {}
    for g in pres.generators:
        mat = poly_matrix_reference(chart.blocks, chart.n, pres.diff[g])
        block = chart.blocks[g.name]
        for mu in range(chart.n):
            for nu in range(chart.n):
                diff[block[mu][nu]] = mat[mu][nu]
    for y in chart.framing:
        diff[y] = GradedPoly.zero()
    return diff


def test_lazy_chart_matches_eager_build(presentations):
    for name, pres in presentations.items():
        for n in (1, 2, 3):
            chart = matricize(pres, n)
            # read one block first, so the full walk meets a partial memo
            h0_ideal(chart)
            assert {g: chart.diff[g] for g in chart.generators} == _eager_diff(chart), (name, n)
            assert len(chart.diff) == len(chart.generators)


def test_partial_read_builds_only_the_blocks_read(presentations):
    chart = matricize(presentations["fermat"], 2)
    h0_ideal(chart)
    # the memo holds the framing zeros and the degree -1 blocks, nothing else
    built = len(chart.framing) + len(chart.generators_of_degree(-1))
    assert len(chart.diff) == built < len(chart.generators)


def test_quintic_chart_coefficients_are_ints(presentations):
    pres = presentations["fermat"]
    chart = matricize(pres, 2)
    polys = list(pres.diff.values()) + [chart.diff[g] for g in chart.generators]
    assert len(polys) == len(pres.generators) + len(chart.generators)
    coeffs = [c for p in polys for c in p.terms.values()]
    assert len(coeffs) > 1500
    assert {type(c) for c in coeffs} == {int}


def test_matricize_checks_every_degree_before_any_block_is_read(presentations):
    pres = build_resolution(presentations["fermat"].source)
    t = pres.corrections[(0, 0)]
    pres.diff[t] = NCPoly.gen(pres.variables[0])  # degree 0; t needs degree -1
    with pytest.raises(StructureError, match=re.escape(t.name)):
        matricize(pres, 2)


def test_rank_one_commutators_vanish(presentations):
    # abelianization: at n = 1 every commutator image is identically zero
    for name in ("k[x,y]", "k[x,y,z]", "k[w,x,y,z]"):
        chart = matricize(presentations[name], 1)
        for S, g in presentations[name].koszul.items():
            if len(S) == 2:
                assert chart.diff[chart.blocks[g.name][0][0]].is_zero()


def test_rank_two_commutator_entry(charts):
    chart = charts[("k[x,y]", 2)]
    pres = chart.source
    a = pres.koszul[(0, 1)]
    x_block = chart.blocks["x"]
    y_block = chart.blocks["y"]
    gp = GradedPoly.gen
    want = (
        gp(x_block[0][1]) * gp(y_block[1][0])
        - gp(y_block[0][1]) * gp(x_block[1][0])
    )
    assert chart.diff[chart.blocks[a.name][0][0]] == want


def test_fermat_syzygy_differential_is_power_sum(charts):
    chart = charts[("fermat", 2)]
    pres = chart.source
    s = pres.syzygies[0]
    blocks = [CDGAMatrix.from_gens(chart.blocks[v.name]) for v in pres.variables]
    total = None
    for m in blocks:
        p5 = m @ m @ m @ m @ m
        total = p5 if total is None else total + p5
    total = total + CDGAMatrix.identity(2)
    power_sum = NCPoly.const(1)
    for v in pres.variables:
        power_sum = power_sum + NCPoly.word((v,) * 5)
    assert CDGAMatrix(matrix_image(chart.blocks, 2, power_sum)) == total
    for mu in range(2):
        for nu in range(2):
            assert chart.diff[chart.blocks[s.name][mu][nu]] == total[mu][nu]


@pytest.mark.parametrize("name", ["fermat", "k[x,y,z]", "sphere"])
def test_free_and_chart_presentations_share_one_interface(presentations, name):
    pres = presentations[name]
    for p in (pres, *(matricize(pres, n) for n in (1, 2, 3))):
        gens = p.generators
        assert p.generators is gens and list(gens) == sorted(gens)
        slices = [p.generators_of_degree(k) for k in (0, -1, -2)]
        assert slices == [tuple(g for g in gens if g.degree == k) for k in (0, -1, -2)]
        assert sum(slices, ()) == gens
        # each slice is built once, and a degree with no generators is empty
        assert all(p.generators_of_degree(k) is slice_ for k, slice_ in zip((0, -1, -2), slices))
        assert p.generators_of_degree(-3) == ()
    assert repify.check_chart_d_squared is resolution.check_d_squared
    assert cli.check_chart_d_squared is cli.check_d_squared is check_chart_d_squared


def test_chart_d_squared_ranks_1_2(charts):
    for (name, n), chart in charts.items():
        rep = check_chart_d_squared(chart)
        assert rep.ok, (name, n, rep.failures()[:1])


def test_chart_d_squared_merges_no_empty_operand(presentations, monkeypatch):
    """extend_derivation splices an image term into an empty side without a
    merge.  At the quintic n = 2 every chart d^2 splice is even, so d^2
    adds packed monomials and calls mono_mul not at all; closure of the
    2-form on that chart still merges tuples and hands mono_mul no empty
    operand."""
    merges = []  # (a empty, b empty) per mono_mul call from extend_derivation
    packed = []  # image terms packed by extend_derivation, per image
    merge, split = algebra.mono_mul, algebra._split_image

    def counted(a, b):
        if sys._getframe(1).f_code is algebra.extend_derivation.__code__:
            merges.append((not a, not b))
        return merge(a, b)

    def counted_split(img, units, fields):
        even, others = split(img, units, fields)
        packed.append(len(even))
        return even, others

    monkeypatch.setattr(algebra, "mono_mul", counted)
    monkeypatch.setattr(algebra, "_split_image", counted_split)
    chart = matricize(presentations["fermat"], 2)
    rep = check_chart_d_squared(chart)
    assert rep.ok
    assert sum(packed) and not merges
    dr = DeRhamAlgebra(chart)
    assert close_check(dr, omega0(dr)).ok
    assert merges and not any(a or b for a, b in merges)


def test_chart_build_merges_no_empty_operand(presentations, monkeypatch):
    """matrix_image starts each index path at its first letter and adds a
    finished path's terms without a merge: building the whole quintic n = 2
    chart hands mono_mul no empty operand."""
    merges = []  # (a empty, b empty) per mono_mul call from repify
    merge = repify.mono_mul

    def counted(a, b):
        merges.append((not a, not b))
        return merge(a, b)

    monkeypatch.setattr(repify, "mono_mul", counted)
    chart = matricize(presentations["fermat"], 2)
    for g in chart.generators:
        chart.diff[g]
    assert merges and not any(a or b for a, b in merges)


def test_word_matrix_multiplicative(charts):
    rng = random.Random(21)
    chart = charts[("k[x,y,z]", 2)]
    letters = list(chart.source.variables) + [
        g for S, g in sorted(chart.source.koszul.items()) if len(S) == 2
    ]
    for _ in range(100):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        lhs = CDGAMatrix(matrix_image(chart.blocks, 2, NCPoly.word(w1 + w2)))
        rhs = CDGAMatrix(matrix_image(chart.blocks, 2, NCPoly.word(w1)))
        rhs = rhs @ CDGAMatrix(matrix_image(chart.blocks, 2, NCPoly.word(w2)))
        assert lhs == rhs
        assert lhs == word_matrix_reference(chart.blocks, 2, w1 + w2)


def trace_image(chart, p):
    image = matrix_image(chart.blocks, chart.n, p)
    return poly_sum(image[mu][mu] for mu in range(chart.n))


def test_trace_examples(charts, presentations):
    chart3 = matricize(presentations["k[x,y]"], 3)
    assert trace_image(chart3, NCPoly.const(1)).constant() == 3
    # trace of a commutator of entry matrices vanishes identically
    for n in (1, 2, 3):
        chart = matricize(presentations["k[x,y]"], n)
        x, y = chart.source.variables
        commutator = NCPoly.word((x, y)) - NCPoly.word((y, x))
        assert trace_image(chart, commutator).is_zero()
        xm, ym = (CDGAMatrix.from_gens(chart.blocks[v.name]) for v in (x, y))
        assert CDGAMatrix(matrix_image(chart.blocks, n, commutator)) == xm @ ym - ym @ xm
    # degree-0 times degree -1 at n = 1
    chart1 = charts[("k[x,y]", 1)]
    x = chart1.source.variables[0]
    a = chart1.source.koszul[(0, 1)]
    tr = trace_image(chart1, NCPoly.word((x, a)))
    gp = GradedPoly.gen
    assert tr == gp(chart1.blocks["x"][0][0]) * gp(chart1.blocks[a.name][0][0])
    assert tr == word_matrix_reference(chart1.blocks, 1, (x, a)).trace()


@pytest.mark.parametrize("name", ["sphere", "k[x,y,z]", "fermat"])
def test_trace_is_graded_cyclic(presentations, name):
    # tr M(uv) = (-1)^(|u||v|) tr M(vu), with Koszul parities, for words
    # in the letters of degree 0 and -1
    pres = presentations[name]
    letters = [g for g in pres.generators if g.degree in (0, -1)]
    assert {g.degree for g in letters} == {0, -1}
    rng = random.Random(41)
    nonzero = 0
    for n in (1, 2, 3):
        chart = matricize(pres, n)
        for _ in range(20):
            u = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            v = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            sign = -1 if sum(g.degree for g in u) * sum(g.degree for g in v) % 2 else 1
            uv = trace_image(chart, NCPoly.word(u + v))
            assert uv == trace_image(chart, NCPoly.word(v + u)).scale(sign), (n, u, v)
            nonzero += bool(uv)
    assert nonzero > 30  # most pairs, so the identity is not met on zeros alone


def test_h0_ideal_counts(charts):
    assert h0_ideal(charts[("k[x]", 1)]) == []
    assert h0_ideal(charts[("k[x]", 2)]) == []
    polys = h0_ideal(charts[("k[x,y]", 2)])
    assert len(polys) == 4
    assert all(not p.is_zero() for p in polys)
    fermat1 = h0_ideal(charts[("fermat", 1)])
    assert len(fermat1) == 7
    nonzero = [p for p in fermat1 if not p.is_zero()]
    assert len(nonzero) == 1
    assert str(nonzero[0]) == "w[1,1]^5 + x[1,1]^5 + y[1,1]^5 + z[1,1]^5 + 1"


def test_diff_images_multilinear_in_negatives(charts):
    # every chart differential image has at most one negative-degree factor
    # per monomial, with degree-0 coefficients
    for (name, n), chart in charts.items():
        for g in chart.generators:
            for mono in chart.diff[g].terms:
                negs = sum(e for h, e in mono if h.degree < 0)
                assert negs <= 1


def _random_matrix(rng, n):
    return tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))


def test_h0_vanishing_iff_direct_matrix_check(corpus, presentations):
    rng = random.Random(31)
    for name in ("k[x,y]", "fermat", "sphere"):
        src = corpus[name]
        pres = presentations[name]
        for n in (2, 3):
            chart = matricize(pres, n)
            ideal = h0_ideal(chart)
            m = len(src.variables)
            for trial in range(100):
                mats = tuple(_random_matrix(rng, n) for _ in range(m))
                vec = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                from dgquot import MatrixPoint

                pt = MatrixPoint(mats, vec)
                assign = chart_assignment(chart, pt)
                sym = all(p.evaluate(assign).constant() == 0 for p in ideal)
                direct = matrices_satisfy(src, mats)
                assert sym == direct
