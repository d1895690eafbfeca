import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from dgquot import (
    AlgebraInput,
    GradedPoly,
    NCPoly,
    StructureError,
    build_resolution,
    check_d_squared,
    commutator_lift,
    graded_commutator,
    lift_to_free,
    matricize,
    matrix_image,
    parse_poly,
)
from dgquot.parser import variable_gens
from dgquot.serialize import free_presentation_json
from tests.test_repify import CDGAMatrix, poly_matrix_reference, word_matrix_reference


def test_algebra_input_validation():
    with pytest.raises(StructureError):
        AlgebraInput.from_strings([], [])
    with pytest.raises(StructureError):
        AlgebraInput.from_strings(["x", "x"], [])
    with pytest.raises(StructureError):
        AlgebraInput.from_strings(["x"], ["x - x"])  # zero relation
    with pytest.raises(Exception):
        AlgebraInput.from_strings(["x"], ["x + q"])


def test_lift_to_free():
    gens = variable_gens(["x", "y"])
    f = parse_poly("y*x", gens)
    lifted = lift_to_free(f, gens)
    assert lifted == NCPoly.word([gens[0], gens[1]])
    w = variable_gens(["w"])[0]
    assert lift_to_free(parse_poly("w^5", [w]), [w]) == NCPoly.word([w] * 5)
    fermat_gens = variable_gens(["w", "x", "y", "z"])
    f5 = lift_to_free(parse_poly("w^5 + x^5 + y^5 + z^5 + 1", fermat_gens), fermat_gens)
    assert len(f5.terms) == 5
    assert f5.terms[()] == 1
    assert f5.terms[tuple([fermat_gens[0]] * 5)] == 1


def test_lift_unknown_variable():
    gens = variable_gens(["x", "y"])
    f = parse_poly("x*y", gens)
    with pytest.raises(StructureError):
        lift_to_free(f, gens[:1])


def test_commutator_lift_examples(fermat_presentation):
    pres = fermat_presentation
    w, x, y, z = pres.variables
    # single letter: xi with d(xi) = [w, x] is exactly a[w,x]
    out = commutator_lift(pres, 0, NCPoly.gen(x))
    assert out == NCPoly.gen(pres.koszul[(0, 1)])
    # x^5 gives the five-term sandwich pattern
    out5 = commutator_lift(pres, 0, NCPoly.word([x] * 5))
    a_wx = pres.koszul[(0, 1)]
    want = NCPoly.zero()
    for i in range(5):
        want = want + NCPoly.word([x] * i + [a_wx] + [x] * (4 - i))
    assert out5 == want
    # constants commute
    assert commutator_lift(pres, 0, NCPoly.const(3)).is_zero()
    # negative-degree letters rejected
    with pytest.raises(StructureError):
        commutator_lift(pres, 0, NCPoly.gen(a_wx))


def test_commutator_lift_differential_property():
    rng = random.Random(99)
    names = ["x", "y", "z", "t"]
    checked = 0
    while checked < 100:
        m = rng.randint(1, 4)
        gens = variable_gens(names[:m])
        f = GradedPoly.zero()
        for _ in range(rng.randint(1, 3)):
            pairs = []
            total = 0
            for g in gens:
                e = rng.randint(0, 3)
                if total + e > 5:
                    e = 0
                total += e
                if e:
                    pairs.append((g, e))
            f = f + GradedPoly.monomial(pairs, rng.randint(-3, 3))
        if f.is_zero():
            continue
        src = AlgebraInput(tuple(names[:m]), (f,))
        pres = build_resolution(src)
        flift = lift_to_free(f, pres.variables)
        j = rng.randrange(m)
        xi = commutator_lift(pres, j, flift)
        assert pres.d(xi) == graded_commutator(NCPoly.gen(pres.variables[j]), flift)
        checked += 1


def test_build_resolution_generator_tables(corpus, presentations):
    pres = presentations["k[x]"]
    assert [g.name for g in pres.generators] == ["x"]

    pres3 = presentations["k[x,y,z]"]
    names = [g.name for g in pres3.generators]
    assert names == ["x", "y", "z", "a[x,y]", "a[x,z]", "a[y,z]", "v[x,y,z]"]
    assert check_d_squared(pres3).ok

    fer = presentations["fermat"]
    by_degree = {}
    for g in fer.generators:
        by_degree.setdefault(g.degree, []).append(g.name)
    assert len(by_degree[0]) == 4
    assert len(by_degree[-1]) == 7  # 6 commutators + 1 syzygy
    assert len(by_degree[-2]) == 8  # 4 jacobi + 4 corrections


def test_fermat_correction_differential(fermat_presentation):
    # d(t[w,1]) = [w, s] - sum_i (x^i a[w,x] x^(4-i) + y... + z...)
    pres = fermat_presentation
    w, x, y, z = pres.variables
    t_w = pres.corrections[(0, 0)]
    s = pres.syzygies[0]
    want = graded_commutator(NCPoly.gen(w), NCPoly.gen(s))
    for var, pair in ((x, (0, 1)), (y, (0, 2)), (z, (0, 3))):
        a = pres.koszul[pair]
        for i in range(5):
            want = want - NCPoly.word([var] * i + [a] + [var] * (4 - i))
    assert pres.diff[t_w] == want


def test_jacobi_differential_matches_cyclic_pattern(presentations):
    pres = presentations["k[x,y,z]"]
    x, y, z = pres.variables
    v = pres.koszul[(0, 1, 2)]
    a_xy, a_xz, a_yz = (pres.koszul[k] for k in ((0, 1), (0, 2), (1, 2)))
    want = (
        graded_commutator(NCPoly.gen(x), NCPoly.gen(a_yz))
        - graded_commutator(NCPoly.gen(y), NCPoly.gen(a_xz))
        + graded_commutator(NCPoly.gen(z), NCPoly.gen(a_xy))
    )
    assert pres.diff[v] == want


def hand_written_koszul_reference(pres):
    """Index tuple -> differential, by the formulas the subset family
    replaced: d a[x_i,x_j] = [x_i, x_j] and the cyclic Jacobi pattern
    d v[x_i,x_j,x_k] = [x_i, A(j,k)] + [x_j, A(k,i)] + [x_k, A(i,j)]."""
    x = [NCPoly.gen(g) for g in pres.variables]
    A = pres.oriented_commutator
    m = len(x)
    want = {(i, j): graded_commutator(x[i], x[j]) for i, j in combinations(range(m), 2)}
    for i, j, k in combinations(range(m), 3):
        want[(i, j, k)] = (
            graded_commutator(x[i], A(j, k))
            + graded_commutator(x[j], A(k, i))
            + graded_commutator(x[k], A(i, j))
        )
    return want


@pytest.mark.parametrize("m", range(1, 6))
def test_koszul_family_matches_hand_written_formulas(m):
    names = ["v", "w", "x", "y", "z"][:m]
    pres = build_resolution(AlgebraInput.from_strings(names, []))
    want = hand_written_koszul_reference(pres)
    assert sorted(pres.koszul) == sorted(want)
    for S, g in pres.koszul.items():
        letter = {2: "a", 3: "v"}[len(S)]
        assert g.name == f"{letter}[{','.join(names[i] for i in S)}]"
        assert g.degree == 1 - len(S)
        assert pres.diff[g] == want[S], g.name
    rep = check_d_squared(pres)
    assert rep.ok, rep.failures()[:1]


def test_d_squared_corpus(presentations):
    for name, pres in presentations.items():
        rep = check_d_squared(pres)
        assert rep.ok, f"{name}: {rep.failures()[:1]}"


def test_d_squared_detects_flipped_sign(presentations):
    pres = build_resolution(presentations["k[x,y,z]"].source)
    a_xy = pres.koszul[(0, 1)]
    pres.diff[a_xy] = -pres.diff[a_xy]
    rep = check_d_squared(pres)
    assert not rep.ok
    assert any(name.startswith("v[") for name, _ in rep.failures())


def test_determinism(fermat_input):
    a = free_presentation_json(build_resolution(fermat_input))
    b = free_presentation_json(build_resolution(AlgebraInput.from_strings(
        ["w", "x", "y", "z"], ["w^5 + x^5 + y^5 + z^5 + 1"])))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_ordering_override_requires_permutation(fermat_input):
    with pytest.raises(StructureError):
        build_resolution(fermat_input, ordering=["w", "x"])


def _sort_word_with_corrections(chart, word, rank_of):
    """Bubble-sort a degree-0 word, accumulating the commutator-matrix
    corrections: Mat(word) = Mat(sorted word) + correction."""
    n = chart.n
    correction = CDGAMatrix([[GradedPoly.zero()] * n for _ in range(n)])
    word = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if rank_of[a] > rank_of[b]:
                prefix = word_matrix_reference(chart.blocks, n, tuple(word[:i]))
                suffix = word_matrix_reference(chart.blocks, n, tuple(word[i + 2 :]))
                bracket = (word_matrix_reference(chart.blocks, n, (a, b))
                           - word_matrix_reference(chart.blocks, n, (b, a)))
                correction = correction + prefix @ bracket @ suffix
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    return tuple(word), correction


def test_lift_ordering_changes_only_by_commutator_ideal():
    # the two monomial lift orders give matricized relations differing by an
    # explicit combination of commutator-matrix entries, so the truncation
    # ideal (which contains all commutator entries) is order-independent
    src = AlgebraInput.from_strings(["x", "y", "z"], ["x^2*y + y*z^2 + x*y*z - 1"])
    pres_fwd = build_resolution(src)
    pres_rev = build_resolution(src, ordering=["z", "y", "x"])
    chart = matricize(pres_fwd, 2)
    rank_of = {g: i for i, g in enumerate(pres_fwd.variables)}

    f = src.relations[0]
    lift_fwd = lift_to_free(f, pres_fwd.variables)
    lift_rev = lift_to_free(f, list(reversed(pres_fwd.variables)))
    assert lift_fwd != lift_rev
    mat_fwd = CDGAMatrix(matrix_image(chart.blocks, 2, lift_fwd))
    mat_rev = CDGAMatrix(matrix_image(chart.blocks, 2, lift_rev))
    assert mat_fwd == poly_matrix_reference(chart.blocks, 2, lift_fwd)
    assert mat_rev == poly_matrix_reference(chart.blocks, 2, lift_rev)
    assert mat_fwd != mat_rev

    total = None
    for word, c in lift_rev.terms.items():
        sorted_word, corr = _sort_word_with_corrections(chart, word, rank_of)
        assert sorted_word in lift_fwd.terms
        part = corr.scale(c)
        total = part if total is None else total + part
    # Mat(rev lift) = Mat(fwd lift) + total, entry by entry
    assert (mat_rev - mat_fwd - total).is_zero()
    # every bracket entry is a differential of a degree -1 entry generator,
    # so the correction lies in the truncation ideal; spot-check one bracket
    x, y = pres_fwd.variables[0], pres_fwd.variables[1]
    bracket = matrix_image(chart.blocks, 2, NCPoly.word((x, y)) - NCPoly.word((y, x)))
    a_xy_block = chart.blocks[pres_fwd.koszul[(0, 1)].name]
    for mu in range(2):
        for nu in range(2):
            assert bracket[mu][nu] == chart.diff[a_xy_block[mu][nu]]
    # the presentations themselves differ
    assert pres_fwd.diff[pres_fwd.syzygies[0]] != pres_rev.diff[pres_rev.syzygies[0]]
