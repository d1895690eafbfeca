import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from dgquot import (
    AlgebraInput,
    MatrixPoint,
    NotClassicalError,
    StructureError,
    build_resolution,
    chart_cohomology,
    cohomology_dims,
    diag_point,
    gl_action,
    is_classical_point,
    koszul_ext_oracle,
    matricize,
    quot_tangent_check,
    tangent_complex_at,
)
from dgquot import linalg
from dgquot.cli import run
from dgquot.points import chart_assignment
from dgquot.serialize import load_manifest
from dgquot.tangent import detect_reduced_support
from tests.conftest import CORPUS_SPECS
from tests.test_algebra import linear_part_reference
from tests.test_points import rand_invertible

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def easy_point(src, name, n):
    """A classical diagonal point: n tuples built from simple roots."""
    if name == "fermat":
        tuples = [(-1, 0, 0, 0), (1, -1, -1, 0), (2, -2, -1, 0)][:n]
    elif name == "sphere":
        tuples = [(1, 0, 0), (0, 1, 0), (0, 0, 1)][:n]
    else:
        tuples = [tuple(range(i, i + len(src.variables))) for i in range(n)]
    return diag_point(tuples, src.relations, src.var_gens)


def test_dimension_formulas(charts, corpus):
    for (name, n), chart in charts.items():
        src = corpus[name]
        m, r = len(src.variables), len(src.relations)
        pt = easy_point(src, name, n)
        t = tangent_complex_at(chart, pt)
        c2 = len(list(combinations(range(m), 2)))
        c3 = len(list(combinations(range(m), 3)))
        assert t.dims == (m * n * n + n, (c2 + r) * n * n, (c3 + m * r) * n * n)
        assert t.composition_is_zero()


def test_origin_affine3(charts):
    chart = charts[("k[x,y,z]", 1)]
    pt = MatrixPoint(([[0]], [[0]], [[0]]), (F(1),))
    t = tangent_complex_at(chart, pt)
    assert t.dims == (4, 3, 1)
    rep = cohomology_dims(t)
    assert rep.as_tuple() == (4, 3, 1)


def test_affine_line(charts):
    chart = charts[("k[x]", 1)]
    pt = MatrixPoint(([[5]],), (F(1),))
    rep = chart_cohomology(chart, pt)
    assert rep.as_tuple() == (2, 0, 0)
    assert rep.h2_exact


def test_two_distinct_points_rank_two(charts, corpus):
    src = corpus["k[x,y,z]"]
    pt = diag_point([(0, 0, 0), (1, 2, 3)], src.relations, src.var_gens)
    rep = chart_cohomology(charts[("k[x,y,z]", 2)], pt)
    assert rep.as_tuple() == (10, 6, 2)


def test_nonclassical_point_rejected(charts):
    chart = charts[("k[x,y]", 2)]
    pt = MatrixPoint(([[0, 1], [0, 0]], [[0, 0], [1, 0]]), (F(1), F(0)))
    with pytest.raises(NotClassicalError) as info:
        tangent_complex_at(chart, pt)
    ok, witness = is_classical_point(pt, chart)
    assert not ok and info.value.witness == witness
    assert isinstance(info.value, StructureError)
    with pytest.raises(NotClassicalError):
        quot_tangent_check(chart, pt)


def test_euler_characteristic_point_independent(charts, corpus):
    src = corpus["sphere"]
    chart = charts[("sphere", 2)]
    pts = [
        diag_point([(1, 0, 0), (0, 1, 0)], src.relations, src.var_gens),
        diag_point([(F(3, 5), F(4, 5), 0), (0, 0, 1)], src.relations, src.var_gens),
        diag_point([(1, 0, 0), (1, 0, 0)], src.relations, src.var_gens),
    ]
    chis = set()
    for pt in pts:
        t = tangent_complex_at(chart, pt)
        n0, n1, n2 = t.dims
        chis.add(n0 - n1 + n2)
    assert len(chis) == 1


def test_cohomology_invariant_under_conjugation(charts, corpus):
    rng = random.Random(23)
    src = corpus["k[x,y,z]"]
    chart = charts[("k[x,y,z]", 2)]
    pt = diag_point([(0, 0, 0), (1, 1, 2)], src.relations, src.var_gens)
    base = chart_cohomology(chart, pt).as_tuple()
    for _ in range(30):
        g = rand_invertible(rng, 2)
        moved = gl_action(g, pt)
        assert chart_cohomology(chart, moved).as_tuple() == base


def symbolic_tangent_reference(chart, pt):
    """(d0, d1) the long way: build every degree -1 and -2 chart block and
    keep the linear part of each entry's differential."""
    assign = chart_assignment(chart, pt)

    def rows(degree, columns):
        col = {g: i for i, g in enumerate(columns)}
        out = []
        for g in chart.generators_of_degree(degree):
            row = [F(0)] * len(columns)
            for h, c in linear_part_reference(chart.diff[g], assign).items():
                row[col[h]] = c
            out.append(tuple(row))
        return tuple(out)

    return rows(-1, chart.generators_of_degree(0)), rows(-2, chart.generators_of_degree(-1))


def assert_free_route_matches_symbolic(presentations, corpus, cases):
    rng = random.Random(31)
    for name, n in cases:
        chart = matricize(presentations[name], n)
        pt = easy_point(corpus[name], name, n)
        for point in (pt, gl_action(rand_invertible(rng, n), pt), gl_action(rand_invertible(rng, n), pt)):
            t = tangent_complex_at(chart, point)
            assert (t.d0, t.d1) == symbolic_tangent_reference(chart, point), (name, n)
            assert t.composition_is_zero()


def test_free_route_matches_symbolic_route(presentations, corpus):
    cases = [(name, n) for n in (1, 2, 3) for name in CORPUS_SPECS if (name, n) != ("fermat", 3)]
    assert_free_route_matches_symbolic(presentations, corpus, cases)


@pytest.mark.extended
def test_free_route_matches_symbolic_route_fermat_n3(presentations, corpus):
    assert_free_route_matches_symbolic(presentations, corpus, [("fermat", 3)])


def test_tangent_builds_no_degree_minus_two_block(fermat_presentation, corpus):
    chart = matricize(fermat_presentation, 2)
    t = tangent_complex_at(chart, easy_point(corpus["fermat"], "fermat", 2))
    assert t.basis2 and t.composition_is_zero()
    assert not any(dict.__contains__(chart.diff, g) for g in t.basis2)


def test_quintic_tangent_at_rank_four(fermat_presentation, corpus):
    src = corpus["fermat"]
    pt = diag_point([(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)], src.relations, src.var_gens)
    rep = chart_cohomology(matricize(fermat_presentation, 4), pt)
    assert (rep.h0, rep.h1) == (28, 12)
    assert rep.ranks == (40, 60)


@pytest.mark.parametrize("stem", ["affine3", "sphere"])
def test_tangent_report_matches_golden(stem):
    manifest = load_manifest(str(MANIFESTS / f"{stem}_n2.json"))
    report = run(manifest, ["tangent"], command="tangent")
    assert report.dumps(include_wall_time=False) == (GOLDEN / f"{stem}_tangent_n2.json").read_text()


def koszul_ext_reference(m, k_points):
    """The oracle computed the long way: build the Koszul resolution of one
    point's maximal ideal, apply Hom(-, point), take exact ranks."""
    point = [F(0)] * m

    def entry_eval(poly):
        val = poly.get(None, F(0))
        for i, c in poly.items():
            if i is not None:
                val += c * point[i]
        return val

    def koszul_matrix(j):
        # map Lambda^j -> Lambda^(j-1), evaluated at the point
        rows = list(combinations(range(m), j - 1))
        cols = list(combinations(range(m), j))
        row_index = {s: k for k, s in enumerate(rows)}
        mat = [[F(0)] * len(cols) for _ in rows]
        for cidx, subset in enumerate(cols):
            for pos, i in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                entry = {i: F(1), None: -point[i]}  # x_i - p_i
                mat[row_index[rest]][cidx] += (-1) ** pos * entry_eval(entry)
        return mat

    hom_dims = [len(list(combinations(range(m), j + 1))) for j in range(m + 1)]
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


def test_koszul_oracle_values():
    for m in range(1, 7):
        for k in range(1, 13):
            assert koszul_ext_oracle(m, k) == koszul_ext_reference(m, k), (m, k)
    assert koszul_ext_oracle(3, 1) == (3, 3, 1)
    assert koszul_ext_oracle(1, 1) == (1, 0, 0)
    assert koszul_ext_oracle(3, 2) == (6, 6, 2)
    assert koszul_ext_oracle(2, 1) == (2, 1, 0)
    assert koszul_ext_oracle(2, 3) == (6, 3, 0)
    assert koszul_ext_oracle(4, 1) == (4, 6, 4)
    with pytest.raises(StructureError):
        koszul_ext_oracle(3, 0)


def test_support_detection(corpus):
    src = corpus["k[x,y,z]"]
    pt = diag_point([(0, 0, 0), (1, 2, 3)], src.relations, src.var_gens)
    assert detect_reduced_support(pt) is True
    rng = random.Random(29)
    g = rand_invertible(rng, 2)
    assert detect_reduced_support(gl_action(g, pt)) is True
    # repeated support is not reduced-distinct
    rep = diag_point([(1, 2, 3), (1, 2, 3)], src.relations, src.var_gens)
    assert detect_reduced_support(rep) is False
    # noncommuting matrices are not a module over the polynomial ring
    bad = MatrixPoint(([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]), (F(1), F(0)))
    assert detect_reduced_support(bad) is False


def test_support_detection_separates_points_that_collide_at_small_weights(presentations, corpus):
    # Under sum_k t^k p_k one of these points meets the origin at each of
    # t = 1, 2, 3, 5, 7 and 11; the weights must go on until all four separate.
    src = corpus["k[x,y,z]"]
    tuples = [(0, 0, 0), (2, -3, 1), (15, -8, 1), (77, -18, 1)]
    pt = diag_point(tuples, src.relations, src.var_gens)
    assert detect_reduced_support(pt) is True
    q = quot_tangent_check(matricize(presentations["k[x,y,z]"], 4), pt)
    assert q.oracle == (12, 12, 4)
    assert q.cohomology.as_tuple() == (28, 12, 4)
    assert q.checks and all(q.checks.values()) and q.ok


def test_support_detection_rejects_a_nondiagonalizable_point():
    # a stable point supported at one point of A^3 with multiplicity 5
    n = 5
    jordan = [[200 if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
    zero = [[0] * n for _ in range(n)]
    pt = MatrixPoint((jordan, zero, zero), tuple(F(int(i == n - 1)) for i in range(n)))
    assert detect_reduced_support(pt) is False


@pytest.mark.parametrize(
    "x, cohomology, oracle",
    [
        ([[0, 2], [1, 0]], (10, 6, 2), (6, 6, 2)),  # X^2 = 2: two real irrational points
        ([[0, -1], [1, 0]], (10, 6, 2), (6, 6, 2)),  # X^2 = -1: two complex conjugate points
        ([[0, 0, 2], [1, 0, 0], [0, 1, 0]], (18, 9, 3), (9, 9, 3)),  # X^3 = 2: cube roots of 2
    ],
)
def test_irrational_support_gets_the_oracle(presentations, x, cohomology, oracle):
    # (X, X + 3, 2X - 1) commute, and the framing e_1 is cyclic for X; the
    # support is (a, a + 3, 2a - 1) over the eigenvalues a of X
    x = linalg.as_matrix(x)
    n = len(x)
    one = linalg.identity(n)
    y = linalg.mat_add(x, linalg.mat_scale(one, 3))
    z = linalg.mat_add(linalg.mat_scale(x, 2), linalg.mat_scale(one, -1))
    pt = MatrixPoint((x, y, z), one[0])
    assert detect_reduced_support(pt) is True
    q = quot_tangent_check(matricize(presentations["k[x,y,z]"], n), pt)
    assert q.oracle == oracle and q.cohomology.as_tuple() == cohomology
    assert q.ok and not q.note


def test_support_detection_with_entries_near_ten_to_the_twelve(charts, corpus):
    # the cost of the support test must not grow with the size of the entries
    big = 10**12
    src = corpus["k[x,y,z]"]
    pt = diag_point([(big + 3, big + 7, big + 11), (big + 4, big + 7, big + 11)], src.relations, src.var_gens)
    moved = gl_action([[1, 1], [0, 1]], pt)
    assert detect_reduced_support(moved) is True
    q = quot_tangent_check(charts[("k[x,y,z]", 2)], moved)
    assert q.oracle == (6, 6, 2) and q.cohomology.as_tuple() == (10, 6, 2)
    assert q.ok


def test_quot_tangent_checks(charts, corpus):
    src3 = corpus["k[x,y,z]"]
    origin = MatrixPoint(([[0]], [[0]], [[0]]), (F(1),))
    q = quot_tangent_check(charts[("k[x,y,z]", 1)], origin)
    assert q.has_oracle and q.ok
    assert q.oracle == (3, 3, 1)
    assert q.cohomology.as_tuple() == (4, 3, 1)

    two = diag_point([(0, 0, 0), (1, 2, 3)], src3.relations, src3.var_gens)
    q2 = quot_tangent_check(charts[("k[x,y,z]", 2)], two)
    assert q2.has_oracle and q2.ok
    assert q2.oracle == (6, 6, 2)
    assert q2.cohomology.as_tuple() == (10, 6, 2)

    line_pt = MatrixPoint(([[7]],), (F(1),))
    q1 = quot_tangent_check(charts[("k[x]", 1)], line_pt)
    assert q1.has_oracle and q1.ok and q1.oracle == (1, 0, 0)
    assert q1.cohomology.as_tuple() == (2, 0, 0)


def test_quot_tangent_no_oracle_cases(charts, corpus):
    # relations present: oracle out of scope
    fermat_pt = MatrixPoint(([[-1]], [[0]], [[0]], [[0]]), (F(1),))
    q = quot_tangent_check(charts[("fermat", 1)], fermat_pt)
    assert not q.has_oracle and "relations" in q.note
    # unstable point
    src3 = corpus["k[x,y,z]"]
    rep = diag_point([(1, 2, 3), (1, 2, 3)], src3.relations, src3.var_gens)
    q2 = quot_tangent_check(charts[("k[x,y,z]", 2)], rep)
    assert not q2.has_oracle and "stable" in q2.note
    # an unstable point on a ring with relations: stability is tested first
    src = corpus["sphere"]
    sph = diag_point([(1, 0, 0), (1, 0, 0)], src.relations, src.var_gens)
    q3 = quot_tangent_check(charts[("sphere", 2)], sph)
    assert not q3.has_oracle and q3.note == "no oracle: point is not stable"


def test_affine4_truncation_is_upper_bound(presentations):
    # m >= 4, r = 0: degree -3 generators are missing, h2 stays an upper bound
    origin4 = MatrixPoint(([[0]], [[0]], [[0]], [[0]]), (F(1),))
    cases = [(matricize(presentations["k[w,x,y,z]"], 1), origin4)]
    src5 = AlgebraInput.from_strings(["v", "w", "x", "y", "z"], [])
    pres5 = build_resolution(src5)
    for tuples in ([(0, 0, 0, 0, 0)], [(0, 0, 0, 0, 0), (1, 2, 3, 4, 5)]):
        pt = diag_point(tuples, src5.relations, src5.var_gens)
        cases.append((matricize(pres5, len(tuples)), pt))
    for chart, pt in cases:
        rep = chart_cohomology(chart, pt)
        assert not rep.h2_exact
        q = quot_tangent_check(chart, pt)
        assert q.has_oracle
        ext = q.oracle
        assert rep.h0 == chart.n**2 + ext[0] and rep.h1 == ext[1] and rep.h2_upper >= ext[2]
        assert q.ok
