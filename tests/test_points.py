import random
from fractions import Fraction as F

import pytest

from dgquot import (
    DimensionError,
    MatrixPoint,
    SingularMatrixError,
    StructureError,
    diag_point,
    gl_action,
    h0_ideal,
    is_classical_point,
    is_stable,
    matricize,
)
from dgquot.linalg import is_zero_matrix, mat_vec, rank
from dgquot.points import (
    chart_assignment,
    evaluate_relation_matrix,
    krylov_dimension_profile,
    matrices_commute,
    matrices_satisfy,
)


def rand_invertible(rng, n):
    while True:
        g = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        try:
            from dgquot.linalg import inverse

            inverse(tuple(tuple(row) for row in g))
            return g
        except SingularMatrixError:
            continue


def test_point_validation():
    with pytest.raises(DimensionError):
        MatrixPoint(([[1, 0], [0, 1]],), (F(1),))


def test_fermat_rank_one_point(charts):
    chart = charts[("fermat", 1)]
    good = MatrixPoint(([[-1]], [[0]], [[0]], [[0]]), (F(1),))
    ok, witness = is_classical_point(good, chart)
    assert ok and witness is None
    bad = MatrixPoint(([[2]], [[0]], [[0]], [[0]]), (F(1),))
    ok, witness = is_classical_point(bad, chart)
    assert not ok and not witness.is_zero()


def test_commuting_diagonals_are_classical(corpus, charts):
    src = corpus["sphere"]
    pt = diag_point([(F(1), F(0), F(0)), (F(3, 5), F(4, 5), F(0))], src.relations, src.var_gens)
    ok, _ = is_classical_point(pt, charts[("sphere", 2)])
    assert ok


def test_noncommuting_pair_fails_with_witness(charts):
    chart = charts[("k[x,y]", 2)]
    pt = MatrixPoint(([[0, 1], [0, 0]], [[0, 0], [1, 0]]), (F(1), F(0)))
    ok, witness = is_classical_point(pt, chart)
    assert not ok
    assert witness is not None


def test_dimension_mismatch_rejected(charts):
    chart = charts[("k[x,y]", 2)]
    pt = MatrixPoint(([[0]], [[0]]), (F(1),))
    with pytest.raises(DimensionError):
        is_classical_point(pt, chart)


def test_stability_examples():
    assert is_stable(MatrixPoint(([[7]],), (F(2),)))
    assert not is_stable(MatrixPoint(([[7]],), (F(0),)))
    zeros = ([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    assert not is_stable(MatrixPoint(zeros, (F(1), F(0))))
    assert is_stable(MatrixPoint(([[1, 0], [0, 2]],), (F(1), F(1))))


def test_krylov_profile_monotone_and_quick():
    rng = random.Random(5)
    for n in (2, 3, 4):
        for _ in range(50):
            mats = tuple(
                tuple(tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
                for _ in range(2)
            )
            vec = tuple(F(rng.randint(-2, 2)) for _ in range(n))
            pt = MatrixPoint(mats, vec)
            dims = krylov_dimension_profile(pt)
            assert all(a <= b for a, b in zip(dims, dims[1:]))
            # stabilizes within n - 1 closure rounds after the seed vector
            if len(dims) > 1:
                final = dims[-1]
                cutoff = min(n - 1, len(dims) - 1)
                assert dims[cutoff] == final


def krylov_reference(pt):
    """The Krylov profile on the point's own rational entries, without
    clearing any denominator."""
    span, dims = [], []
    candidates = [pt.vector]
    while candidates:
        new = []
        for w in candidates:
            if rank(span + [w]) > len(span):
                span.append(w)
                new.append(w)
        dims.append(len(span))
        if len(span) == pt.n:
            break
        candidates = [mat_vec(mat, v) for v in new for mat in pt.matrices]
    return dims


def test_krylov_profile_matches_the_rational_reference(corpus):
    rng = random.Random(43)
    src = corpus["sphere"]
    on_sphere = [(F(3, 5), F(4, 5), 0), (F(2, 3), F(2, 3), F(1, 3)), (F(2, 7), F(3, 7), F(6, 7))]
    cases = [diag_point(on_sphere[:n], src.relations, src.var_gens) for n in (2, 3)]
    cases += [gl_action(rand_invertible(rng, pt.n), pt) for pt in cases for _ in range(3)]
    cases += [MatrixPoint(pt.matrices, (F(1, 2), F(-2, 3), F(3, 4))[: pt.n]) for pt in cases]
    # two equal coordinate tuples: the profile stops at rank 2 of 3
    unstable = diag_point([(F(1, 2), F(1, 3), 0), (F(1, 2), F(1, 3), 0), (F(1, 5), 0, 0)], (), src.var_gens)
    assert krylov_dimension_profile(unstable) == krylov_reference(unstable) == [1, 2, 2]
    cases += [unstable, gl_action(rand_invertible(rng, 3), unstable)]
    for n in (2, 3, 4):
        for _ in range(20):
            mats = [[[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)] for _ in range(2)]
            cases.append(MatrixPoint(mats, [F(rng.randint(-2, 2), rng.randint(1, 6)) for _ in range(n)]))
    for pt in cases:
        assert krylov_dimension_profile(pt) == krylov_reference(pt), pt
        assert is_stable(pt) == (krylov_reference(pt)[-1] == pt.n)
    assert any(krylov_reference(pt)[-1] < pt.n for pt in cases[-60:])


def test_krylov_profile_with_a_zero_framing_or_repeated_candidates():
    shift = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    zero = MatrixPoint((shift, shift), (0, 0, 0))
    assert krylov_dimension_profile(zero) == krylov_reference(zero) == [0]
    assert not is_stable(zero)
    # equal matrices, or a multiple of one, repeat each round's candidates up
    # to a scalar: only the first of them joins
    for mats in ((shift, shift), (shift, [[2 * x for x in row] for row in shift], shift)):
        for vector in ((1, 0, 0), (F(1, 2), F(1, 3), 0), (0, 1, 0)):
            pt = MatrixPoint(mats, vector)
            assert krylov_dimension_profile(pt) == krylov_reference(pt), (mats, vector)
    assert krylov_dimension_profile(MatrixPoint((shift, shift), (1, 0, 0))) == [1, 2, 3]
    assert krylov_dimension_profile(MatrixPoint((shift, shift), (0, 1, 0))) == [1, 2, 2]


def test_diag_point_construction(corpus):
    src = corpus["k[x,y,z]"]
    pt = diag_point([(0, 0, 0), (1, 2, 3)], src.relations, src.var_gens)
    assert pt.matrices[1][0][0] == 0 and pt.matrices[1][1][1] == 2
    assert pt.vector == (F(1), F(1))
    assert is_stable(pt)
    rep = diag_point([(1, 2, 3), (1, 2, 3)], src.relations, src.var_gens)
    assert not is_stable(rep)


def test_diag_point_rejects_bad_tuple(corpus):
    src = corpus["fermat"]
    with pytest.raises(StructureError):
        diag_point([(1, 0, 0, 0)], src.relations, src.var_gens)
    # valid tuples pass
    diag_point([(-1, 0, 0, 0), (1, -1, -1, 0)], src.relations, src.var_gens)


def test_gl_action_identity_and_errors(corpus):
    src = corpus["k[x,y,z]"]
    pt = diag_point([(0, 0, 0), (1, 2, 3)], src.relations, src.var_gens)
    same = gl_action([[1, 0], [0, 1]], pt)
    assert same == pt
    with pytest.raises(SingularMatrixError):
        gl_action([[1, 1], [1, 1]], pt)
    with pytest.raises(DimensionError):
        gl_action([[1]], pt)


def test_gl_action_preserves_classical_and_stable(corpus, charts):
    rng = random.Random(17)
    src = corpus["k[x,y,z]"]
    chart = charts[("k[x,y,z]", 2)]
    stable_pt = diag_point([(0, 0, 0), (1, 2, 3)], src.relations, src.var_gens)
    unstable_pt = diag_point([(1, 2, 3), (1, 2, 3)], src.relations, src.var_gens)
    for _ in range(100):
        g = rand_invertible(rng, 2)
        moved = gl_action(g, stable_pt)
        assert is_classical_point(moved, chart)[0]
        assert is_stable(moved)
        assert matrices_satisfy(src, moved.matrices)
        moved_u = gl_action(g, unstable_pt)
        assert is_classical_point(moved_u, chart)[0]
        assert not is_stable(moved_u)


def test_gl_action_preserves_nonclassical(charts):
    rng = random.Random(18)
    chart = charts[("k[x,y]", 2)]
    pt = MatrixPoint(([[0, 1], [0, 0]], [[0, 0], [1, 0]]), (F(1), F(0)))
    for _ in range(25):
        g = rand_invertible(rng, 2)
        assert not is_classical_point(gl_action(g, pt), chart)[0]


def classical_reference(pt, chart):
    """The symbolic route: evaluate every truncation-ideal polynomial, in
    `generators_of_degree(-1)` order, at the point's chart assignment."""
    assign = chart_assignment(chart, pt)
    for p in h0_ideal(chart):
        if p.evaluate(assign).constant():
            return False, p
    return True, None


N = [[0, 1], [0, 0]]  # N and its transpose do not commute
NT = [[0, 0], [1, 0]]
O2 = [[0, 0], [0, 0]]
NONCLASSICAL = [
    # (chart, point, fails a commutator, fails the relation)
    ("k[x,y,z]", MatrixPoint((N, NT, O2), (1, 0)), True, False),
    ("k[x,y,z]", MatrixPoint((N, O2, NT), (1, 1)), True, False),
    # X^2 + Y^2 = I with [X, Y] != 0
    ("sphere", MatrixPoint(([[0, F(3, 5)], [F(3, 5), 0]], [[F(4, 5), 0], [0, F(-4, 5)]], O2), (1, 0)), True, False),
    ("sphere", MatrixPoint(([[1, 0], [0, 2]], O2, O2), (1, 1)), False, True),
    ("sphere", MatrixPoint(([[1, 1], [0, 1]], NT, O2), (1, 0)), True, True),
    ("fermat", MatrixPoint(([[2]], [[0]], [[0]], [[0]]), (1,)), False, True),
    ("fermat", MatrixPoint(([[0]], [[1]], [[-1]], [[1]]), (1,)), False, True),
    # W^5 = -I and X^5 = Y^5 = 0, so only the commutators fail
    ("fermat", MatrixPoint(([[-1, 0], [0, -1]], N, NT, O2), (1, 0)), True, False),
    ("fermat", MatrixPoint(([[-1, 0], [0, 0]], O2, [[0, 0], [0, 2]], O2), (1, 1)), False, True),
    ("fermat", MatrixPoint(([[-1, 1], [0, 0]], NT, O2, O2), (1, 0)), True, True),
]


@pytest.mark.parametrize("name, pt, commutator, relation", NONCLASSICAL)
def test_witness_matches_symbolic_route(presentations, corpus, name, pt, commutator, relation):
    src = corpus[name]
    assert matrices_commute(pt.matrices) != commutator
    failing = [f for f in src.relations
               if not is_zero_matrix(evaluate_relation_matrix(f, src.var_gens, pt.matrices))]
    assert bool(failing) == relation
    chart = matricize(presentations[name], pt.n)
    ok, witness = is_classical_point(pt, chart)
    ref_ok, ref_witness = classical_reference(pt, matricize(presentations[name], pt.n))
    assert not ok and not ref_ok
    assert witness == ref_witness and str(witness) == str(ref_witness)
    # commutator equations come first in generator order
    first = next(g for g in chart.generators_of_degree(-1) if chart.diff[g] == witness)
    assert first.name.startswith("a[" if commutator else "s[")


def test_classical_point_builds_no_chart_block(presentations, corpus):
    for name, points in (
        ("k[x,y,z]", [(0, 0, 0), (1, 2, 3)]),
        ("sphere", [(1, 0, 0), (F(3, 5), F(4, 5), 0)]),
        ("fermat", [(-1, 0, 0, 0), (0, 0, -1, 0)]),
    ):
        src = corpus[name]
        chart = matricize(presentations[name], 2)
        pt = diag_point(points, src.relations, src.var_gens)
        assert is_classical_point(pt, chart) == (True, None)
        assert dict.__len__(chart.diff) == len(chart.framing)
        assert classical_reference(pt, chart) == (True, None)


@pytest.mark.parametrize(
    "tuples",
    [
        [(F(6, 5), F(8, 5), 0)],  # the sphere point (3/5, 4/5, 0) scaled by 2
        [(F(6, 5), F(8, 5), 0), (0, 0, 1)],
        # 25 (x^2 + y^2 + z^2) = 1: without the weight D^(L - |w|) on the
        # relation's constant, a length-0 word, the scaled sum would vanish
        [(F(1, 5), 0, 0)],
        [(F(1, 5), 0, 0), (0, F(-1, 5), 0)],
    ],
)
def test_classical_test_weights_each_word_to_one_scale(presentations, tuples):
    n = len(tuples)
    mats = [[[F(tuples[d][i]) if d == e else 0 for e in range(n)] for d in range(n)] for i in range(3)]
    pt = MatrixPoint(mats, (1,) * n)
    assert matrices_commute(pt.matrices)
    chart = matricize(presentations["sphere"], n)
    ok, witness = is_classical_point(pt, chart)
    ref_ok, ref_witness = classical_reference(pt, matricize(presentations["sphere"], n))
    assert not ok and not ref_ok
    assert witness == ref_witness and str(witness) == str(ref_witness)
    first = next(g for g in chart.generators_of_degree(-1) if chart.diff[g] == witness)
    assert first.name.startswith("s[")
