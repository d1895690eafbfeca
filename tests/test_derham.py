import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from dgquot import (
    DeRhamAlgebra,
    GradedPoly,
    MatrixPoint,
    NotClassicalError,
    StructureError,
    build_phi,
    check_chart_d_squared,
    close_check,
    diag_point,
    gl_action,
    invariance_check,
    is_classical_point,
    matricize,
    omega0,
    pairing_at,
)
from tests.test_points import rand_invertible

FERMAT_PT1 = MatrixPoint(([[-1]], [[0]], [[0]], [[0]]), (F(1),))


@pytest.fixture(scope="module")
def fermat_dr1(fermat_presentation):
    return DeRhamAlgebra(matricize(fermat_presentation, 1))


@pytest.fixture(scope="module")
def fermat_dr2(fermat_presentation):
    return DeRhamAlgebra(matricize(fermat_presentation, 2))


def random_dr_element(rng, dr, max_terms=3, max_factors=3):
    gens = list(dr.chart.generators) + [dr.delta[g] for g in dr.chart.generators]
    p = GradedPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        pairs = [(rng.choice(gens), rng.randint(1, 2)) for _ in range(rng.randint(0, max_factors))]
        p = p + GradedPoly.monomial(pairs, F(rng.randint(-3, 3)))
    return p


def test_ddr_basics(fermat_dr1):
    dr = fermat_dr1
    x = dr.chart.blocks["x"][0][0]
    y = dr.chart.blocks["y"][0][0]
    gp = GradedPoly.gen
    got = dr.ddr(gp(x) * gp(y))
    want = gp(dr.delta[x]) * gp(y) + gp(x) * gp(dr.delta[y])
    assert got == want
    assert dr.ddr(GradedPoly.const(5)).is_zero()
    assert dr.ddr(dr.ddr(gp(x) * gp(y) * gp(x))).is_zero()


def test_dint_basics(fermat_dr1):
    dr = fermat_dr1
    chart = dr.chart
    u = chart.blocks["a[w,x]"][0][0]
    gp = GradedPoly.gen
    assert dr.dint(gp(u)) == chart.diff[u]
    w = chart.blocks["w"][0][0]
    assert dr.dint(gp(dr.delta[w])).is_zero()
    # d(delta u) = -delta(d u)
    assert dr.dint(gp(dr.delta[u])) == -dr.ddr(chart.diff[u])


def test_axioms_on_random_elements(fermat_dr1, presentations):
    rng = random.Random(777)
    charts = [fermat_dr1, DeRhamAlgebra(matricize(presentations["k[x,y,z]"], 2))]
    for dr in charts:
        for _ in range(1000):
            e = random_dr_element(rng, dr)
            assert dr.ddr(dr.ddr(e)).is_zero()
            assert (dr.dint(dr.ddr(e)) + dr.ddr(dr.dint(e))).is_zero()
            assert dr.dint(dr.dint(e)).is_zero()


def test_phi_shape(fermat_dr1, fermat_dr2):
    phi1 = build_phi(fermat_dr1)
    assert len(phi1.terms) == 12
    assert phi1.internal_degree() == -1 and phi1.form_degree() == 1
    phi2 = build_phi(fermat_dr2)
    assert len(phi2.terms) == 114
    assert phi2.internal_degree() == -1 and phi2.form_degree() == 1
    # no syzygy generator enters the potential
    assert all(
        not g.name.startswith("s[") and not g.name.startswith("d(s[")
        for mono in phi2.terms
        for g, _ in mono
    )


def test_phi_requires_fermat_signature(presentations):
    dr = DeRhamAlgebra(matricize(presentations["k[x,y,z]"], 1))
    with pytest.raises(StructureError):
        build_phi(dr)
    dr4 = DeRhamAlgebra(matricize(presentations["k[w,x,y,z]"], 1))
    with pytest.raises(StructureError):
        build_phi(dr4)


def test_omega0_bidegree(fermat_dr1):
    om = omega0(fermat_dr1)
    assert om.internal_degree() == -1
    assert om.form_degree() == 2


def test_closure_rank_1(fermat_dr1):
    rep = close_check(fermat_dr1)
    assert rep.dint_residual.is_zero()
    assert rep.ddr_residual.is_zero()
    assert rep.ok


def test_closure_rank_2(fermat_dr2):
    rep = close_check(fermat_dr2)
    assert rep.ok


@pytest.mark.extended
def test_closure_rank_3(fermat_presentation):
    import time

    dr = DeRhamAlgebra(matricize(fermat_presentation, 3))
    t0 = time.perf_counter()
    rep = close_check(dr)
    elapsed = time.perf_counter() - t0
    print(f"rank-3 closure check: {elapsed:.2f}s")
    assert rep.ok


@pytest.mark.parametrize("n", [4, pytest.param(5, marks=pytest.mark.extended)])
def test_closure_higher_rank(fermat_presentation, n):
    assert close_check(DeRhamAlgebra(matricize(fermat_presentation, n))).ok


def test_closure_builds_no_correction_block(fermat_presentation):
    chart = matricize(fermat_presentation, 3)
    dr = DeRhamAlgebra(chart)
    assert close_check(dr).ok
    built = set(dict.keys(chart.diff))  # the memo itself, without forcing it
    corrections = fermat_presentation.corrections.values()
    assert not {g for t in corrections for row in chart.blocks[t.name] for g in row} & built
    commutator = chart.blocks[fermat_presentation.commutators[(0, 1)].name]
    assert commutator[0][0] in built
    assert dict.__len__(dr._dint_images) < 2 * len(chart.generators)


def test_chart_and_derham_are_freed_by_reference_counting(fermat_presentation):
    enabled = gc.isenabled()
    gc.disable()
    try:
        chart = matricize(fermat_presentation, 2)
        dr = DeRhamAlgebra(chart)
        assert close_check(dr).ok
        assert check_chart_d_squared(chart).ok
        assert len(dr._dint_images) == 2 * len(chart.generators)
        refs = [weakref.ref(chart), weakref.ref(dr)]
        del chart, dr
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_pairing_at_rank_one_point(fermat_dr1):
    om = omega0(fermat_dr1)
    rep = pairing_at(fermat_dr1, om, FERMAT_PT1)
    assert rep.rank == 3
    by_name = {}
    for i, rg in enumerate(rep.rows):
        for j, cg in enumerate(rep.cols):
            if rep.matrix[i][j]:
                by_name[(rg.name, cg.name)] = rep.matrix[i][j]
    # stored columns are a[i,j] with i < j; the cyclically oriented duals
    # U_zx = -a[x,z] flip the middle sign, so all three oriented values are -1
    assert by_name == {
        ("x[1,1]", "a[y,z][1,1]"): F(-1),
        ("y[1,1]", "a[x,z][1,1]"): F(1),
        ("z[1,1]", "a[x,y][1,1]"): F(-1),
    }
    # the syzygy column is identically zero
    s_cols = [j for j, cg in enumerate(rep.cols) if cg.name.startswith("s[")]
    assert s_cols and all(
        rep.matrix[i][j] == 0 for j in s_cols for i in range(len(rep.rows))
    )


def test_pairing_rejects_nonclassical(fermat_dr1):
    om = omega0(fermat_dr1)
    origin = MatrixPoint(([[0]], [[0]], [[0]], [[0]]), (F(1),))
    with pytest.raises(NotClassicalError) as info:
        pairing_at(fermat_dr1, om, origin)
    ok, witness = is_classical_point(origin, fermat_dr1.chart)
    assert not ok and info.value.witness == witness
    assert isinstance(info.value, StructureError)


def test_pairing_rank_invariant_under_conjugation(fermat_dr2, corpus):
    rng = random.Random(41)
    src = corpus["fermat"]
    pt = diag_point([(-1, 0, 0, 0), (1, -1, -1, 0)], src.relations, src.var_gens)
    om = omega0(fermat_dr2)
    base = pairing_at(fermat_dr2, om, pt).rank
    for _ in range(10):
        g = rand_invertible(rng, 2)
        moved = gl_action(g, pt)
        assert pairing_at(fermat_dr2, om, moved).rank == base


def test_invariance_rank_one_and_identity(fermat_dr1, fermat_dr2):
    om1 = omega0(fermat_dr1)
    for xi in ([[1]], [[5]]):
        assert invariance_check(fermat_dr1, om1, xi).ok
    om2 = omega0(fermat_dr2)
    assert invariance_check(fermat_dr2, om2, [[1, 0], [0, 1]]).ok


def test_invariance_elementary_basis(fermat_dr2):
    om = omega0(fermat_dr2)
    for a in range(2):
        for b in range(2):
            xi = [[1 if (i, j) == (a, b) else 0 for j in range(2)] for i in range(2)]
            assert invariance_check(fermat_dr2, om, xi).ok


def test_lie_derivative_recovers_field(fermat_dr2):
    # L_xi(g) = [xi, g] on a coordinate entry, via the Cartan formula
    from dgquot.algebra import extend_derivation
    from dgquot.derham import conjugation_field

    dr = fermat_dr2
    xi = [[0, 1], [0, 0]]
    field = conjugation_field(dr, xi)
    iota = dr.contraction(field)
    g = dr.chart.blocks["w"][0][0]
    gp = GradedPoly.gen(g)
    lie = dr.ddr(extend_derivation(iota, gp, 1)) + extend_derivation(iota, dr.ddr(gp), 1)
    assert lie == field[g]
