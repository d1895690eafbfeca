import random
import re
from fractions import Fraction

import pytest

from dgquot import (
    AlgebraInput,
    CDGAMatrix,
    GradedPoly,
    NCPoly,
    StructureError,
    build_resolution,
    check_chart_d_squared,
    diag_point,
    gl_action,
    h0_ideal,
    matricize,
)
from dgquot.points import chart_assignment, evaluate_relation_matrix, matrices_satisfy
from dgquot import linalg


def test_matricize_rank_validation(presentations):
    with pytest.raises(StructureError):
        matricize(presentations["k[x]"], 0)


def _eager_diff(chart) -> dict:
    """Every chart differential, built up front as matricize once did."""
    pres = chart.source
    diff = {}
    for g in pres.generators:
        mat = chart.poly_matrix(pres.diff[g])
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
        for (i, j), g in presentations[name].commutators.items():
            assert chart.diff[chart.blocks[g.name][0][0]].is_zero()


def test_rank_two_commutator_entry(charts):
    chart = charts[("k[x,y]", 2)]
    pres = chart.source
    a = pres.commutators[(0, 1)]
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
    blocks = [chart.entry_matrix(v) for v in pres.variables]
    acc = CDGAMatrix.identity(2)
    total = None
    for m in blocks:
        p5 = m @ m @ m @ m @ m
        total = p5 if total is None else total + p5
    total = total + CDGAMatrix.identity(2)
    for mu in range(2):
        for nu in range(2):
            assert chart.diff[chart.blocks[s.name][mu][nu]] == total[mu][nu]


def test_chart_d_squared_ranks_1_2(charts):
    for (name, n), chart in charts.items():
        rep = check_chart_d_squared(chart)
        assert rep.ok, (name, n, rep.failures()[:1])


def test_word_matrix_multiplicative(charts):
    rng = random.Random(21)
    chart = charts[("k[x,y,z]", 2)]
    letters = list(chart.source.variables) + [
        chart.source.commutators[k] for k in sorted(chart.source.commutators)
    ]
    for _ in range(100):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        lhs = chart.word_matrix(w1 + w2)
        rhs = chart.word_matrix(w1) @ chart.word_matrix(w2)
        assert lhs == rhs


def test_trace_examples(charts, presentations):
    assert CDGAMatrix.identity(3).trace().constant() == 3
    # trace of a commutator of entry matrices vanishes identically
    for n in (1, 2, 3):
        chart = matricize(presentations["k[x,y]"], n)
        x, y = chart.source.variables
        xm, ym = chart.entry_matrix(x), chart.entry_matrix(y)
        assert (xm @ ym - ym @ xm).trace().is_zero()
    # degree-0 times degree -1 at n = 1
    chart1 = charts[("k[x,y]", 1)]
    a = chart1.source.commutators[(0, 1)]
    w = chart1.entry_matrix(chart1.source.variables[0])
    u = chart1.entry_matrix(a)
    tr = (w @ u).trace()
    gp = GradedPoly.gen
    assert tr == gp(chart1.blocks["x"][0][0]) * gp(chart1.blocks[a.name][0][0])


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
