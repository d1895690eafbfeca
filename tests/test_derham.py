import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from dgquot import (
    AlgebraInput,
    DeRhamAlgebra,
    GradedPoly,
    MatrixPoint,
    NotClassicalError,
    StructureError,
    build_phi,
    build_resolution,
    check_chart_d_squared,
    check_d_squared,
    close_check,
    diag_point,
    gl_action,
    invariance_check,
    is_classical_point,
    matricize,
    omega0,
    pairing_at,
    tangent_complex_at,
)
from dgquot import derham
from dgquot.algebra import extend_derivation, poly_sum
from dgquot.linalg import as_matrix, rank
from dgquot.points import chart_assignment
from dgquot.resolution import Residuals
from tests.test_points import rand_invertible
from tests.test_repify import CDGAMatrix

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
    assert phi1.internal_degree() == -1
    assert {sum(e for g, e in m if g.dform) for m in phi1.terms} == {1}
    phi2 = build_phi(fermat_dr2)
    assert len(phi2.terms) == 114
    assert phi2.internal_degree() == -1
    assert {sum(e for g, e in m if g.dform) for m in phi2.terms} == {1}
    # no syzygy generator enters the potential
    assert all(
        not g.name.startswith("s[") and not g.name.startswith("d(s[")
        for mono in phi2.terms
        for g, _ in mono
    )


def build_phi_reference(dr):
    """phi as a sum of traces of symbolic matrix products, term by term."""
    chart = dr.chart
    pres = chart.source
    var_idx = {g.name: i for i, g in enumerate(pres.variables)}

    def coord(name):
        return CDGAMatrix.from_gens(chart.blocks[name])

    def dcoord(name):
        return CDGAMatrix([[GradedPoly.gen(dr.delta[g]) for g in row] for row in chart.blocks[name]])

    def u(i_name, j_name):
        i, j = var_idx[i_name], var_idx[j_name]
        if i < j:
            return CDGAMatrix.from_gens(chart.blocks[pres.koszul[(i, j)].name])
        return -CDGAMatrix.from_gens(chart.blocks[pres.koszul[(j, i)].name])

    third = F(1, 3)
    terms = []
    for b, (p, q) in (("x", ("y", "z")), ("y", ("z", "x")), ("z", ("x", "y"))):
        A, B, U = coord("w"), coord(b), u(p, q)
        dA, dB = dcoord("w"), dcoord(b)
        terms.append((A @ dB @ U + B @ dA @ U - (A @ U @ dB).scale(2)).scale(third))
    for (a, b), (p, q) in ((("y", "z"), ("w", "x")), (("z", "x"), ("w", "y")), (("x", "y"), ("w", "z"))):
        A, B, U = coord(a), coord(b), u(p, q)
        dA, dB = dcoord(a), dcoord(b)
        terms.append((B @ dA @ U - A @ dB @ U).scale(third))
    return poly_sum(t.trace() for t in terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_matches_reference(fermat_presentation, n):
    dr = DeRhamAlgebra(matricize(fermat_presentation, n))
    phi, want = build_phi(dr), build_phi_reference(dr)
    assert phi == want
    assert str(phi) == str(want)


def test_phi_and_omega_keep_exact_thirds(fermat_dr1, fermat_dr2):
    # 1/3 in phi is the one non-integer coefficient; no float reaches a term
    for dr in (fermat_dr1, fermat_dr2):
        phi = build_phi(dr)
        om = dr.ddr(phi)
        for p in (phi, om):
            coeffs = list(p.terms.values())
            assert {type(c) for c in coeffs} <= {int, F}
            assert any(type(c) is F and c.denominator != 1 for c in coeffs)
        rep = close_check(dr, om)
        assert rep["dint"].is_zero() and rep["ddr"].is_zero()


def test_phi_omega_and_derivations_hold_no_integral_fraction(fermat_dr1, fermat_dr2):
    # one scalar rule: an int wherever a coefficient is integral
    for dr in (fermat_dr1, fermat_dr2):
        phi = build_phi(dr)
        om = dr.ddr(phi)
        u = next(g for g in dr.chart.generators_of_degree(-1) if dr.chart.diff[g])
        mixed = dr.dint(phi * GradedPoly.gen(u))  # -phi d_int(u): thirds times ints
        assert mixed and dr.ddr(mixed)
        for p in (phi, om, mixed, dr.ddr(mixed)):
            for c in p.terms.values():
                assert type(c) is int or (type(c) is F and c.denominator != 1), (p, c)


def test_closure_runs_on_ints(fermat_dr2, monkeypatch):
    """d_int and d_dR of omega clear its thirds and divide once, so closure
    makes no Fraction product or sum per term of the derivation loops."""
    dr = fermat_dr2
    om = omega0(dr)
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        op = getattr(F, name)

        def counted(a, b, op=op):
            calls.append(None)
            return op(a, b)

        monkeypatch.setattr(F, name, counted)
    assert close_check(dr, om).ok
    monkeypatch.undo()
    assert len(calls) <= 2 * len(om.terms), len(calls)


def test_phi_requires_fermat_signature(presentations):
    dr = DeRhamAlgebra(matricize(presentations["k[x,y,z]"], 1))
    with pytest.raises(StructureError):
        build_phi(dr)
    dr4 = DeRhamAlgebra(matricize(presentations["k[w,x,y,z]"], 1))
    with pytest.raises(StructureError):
        build_phi(dr4)
    # one relation in w, x, y, z that is not the quintic: the second guard
    for relation in ("w^3 + x^3 + y^3 + z^3 - 1", "w*x - y*z"):
        src = AlgebraInput.from_strings(["w", "x", "y", "z"], [relation])
        dr = DeRhamAlgebra(matricize(build_resolution(src), 1))
        with pytest.raises(StructureError, match="not the affine quintic"):
            build_phi(dr)


def test_phi_and_omega_are_built_once(fermat_presentation):
    dr = DeRhamAlgebra(matricize(fermat_presentation, 1))
    om = omega0(dr)
    phi = build_phi(dr)
    assert om == dr.ddr(phi)
    assert omega0(dr) is om and build_phi(dr) is phi
    # d_dR of a mutated phi, after the memo is filled, leaves the memo alone
    x = dr.chart.blocks["x"][0][0]
    u = dr.chart.blocks[dr.chart.source.koszul[(0, 1)].name][0][0]
    mutated = phi + GradedPoly.monomial([(x, 1), (dr.delta[u], 1)], 2)
    assert dr.ddr(mutated) == om + GradedPoly.monomial([(dr.delta[x], 1), (dr.delta[u], 1)], 2)
    assert omega0(dr) is om and build_phi(dr) is phi


def test_omega0_bidegree(fermat_dr1):
    om = omega0(fermat_dr1)
    assert om.internal_degree() == -1
    assert {sum(e for g, e in m if g.dform) for m in om.terms} == {2}


def test_closure_rank_1(fermat_dr1):
    rep = close_check(fermat_dr1, omega0(fermat_dr1))
    assert rep["dint"].is_zero()
    assert rep["ddr"].is_zero()
    assert rep.ok


def test_closure_rank_2(fermat_dr2):
    rep = close_check(fermat_dr2, omega0(fermat_dr2))
    assert rep.ok


@pytest.mark.extended
def test_closure_rank_3(fermat_presentation):
    import time

    dr = DeRhamAlgebra(matricize(fermat_presentation, 3))
    t0 = time.perf_counter()
    rep = close_check(dr, omega0(dr))
    elapsed = time.perf_counter() - t0
    print(f"rank-3 closure check: {elapsed:.2f}s")
    assert rep.ok


@pytest.mark.parametrize("n", [4, pytest.param(5, marks=pytest.mark.extended)])
def test_closure_higher_rank(fermat_presentation, n):
    dr = DeRhamAlgebra(matricize(fermat_presentation, n))
    assert close_check(dr, omega0(dr)).ok


def test_every_exact_check_returns_one_residuals_map(fermat_presentation, fermat_dr1):
    # labels: generator names in generator order, "dint" and "ddr", "lie"
    om = omega0(fermat_dr1)
    chart = matricize(fermat_presentation, 1)
    for pres in (fermat_presentation, chart):
        rep = check_d_squared(pres)
        assert type(rep) is Residuals and list(rep) == [g.name for g in pres.generators]
        assert rep.ok and rep.failures() == []
    rep = close_check(fermat_dr1, om)
    assert type(rep) is Residuals and list(rep) == ["dint", "ddr"] and rep.ok
    rep = invariance_check(fermat_dr1, om, [[1]])
    assert type(rep) is Residuals and list(rep) == ["lie"] and rep.ok
    assert Residuals().ok and Residuals().failures() == []
    # a mutated chart entry of degree -2 fails its own d^2, and only that
    g = chart.generators_of_degree(-2)[-1]
    u = next(h for h in chart.generators_of_degree(-1) if chart.diff[h])
    chart.diff[g] = chart.diff[g] + GradedPoly.gen(u)
    rep = check_d_squared(chart)
    assert not rep.ok and rep.failures() == [(g.name, chart.diff[u])]


def test_closure_builds_no_correction_block(fermat_presentation):
    chart = matricize(fermat_presentation, 3)
    dr = DeRhamAlgebra(chart)
    assert close_check(dr, omega0(dr)).ok
    built = set(dict.keys(chart.diff))  # the memo itself, without forcing it
    corrections = fermat_presentation.corrections.values()
    assert not {g for t in corrections for row in chart.blocks[t.name] for g in row} & built
    commutator = chart.blocks[fermat_presentation.koszul[(0, 1)].name]
    assert commutator[0][0] in built
    assert dict.__len__(dr._dint_images) < 2 * len(chart.generators)


def test_chart_and_derham_are_freed_by_reference_counting(fermat_presentation):
    enabled = gc.isenabled()
    gc.disable()
    try:
        chart = matricize(fermat_presentation, 2)
        dr = DeRhamAlgebra(chart)
        assert close_check(dr, omega0(dr)).ok
        assert check_chart_d_squared(chart).ok
        images = [dr._dint_images[h] for g in chart.generators for h in (g, dr.delta[g])]
        assert len(dr._dint_images) == len(images) == 2 * len(chart.generators)
        # the point tests and the tangent complex keep no reference cycle
        src = fermat_presentation.source
        pt = diag_point([(-1, 0, 0, 0), (0, 0, -1, 0)], src.relations, src.var_gens)
        assert is_classical_point(pt, chart)[0]
        assert tangent_complex_at(chart, pt).composition_is_zero()
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


def pairing_reference(dr, omega, pt, shift=1):
    """The pairing one column at a time: contract omega along the dual
    direction of u (iota(d(u)) = 1, iota an odd derivation when shift is 1
    and an even one when it is 0), substitute the point, kill the
    negative-degree coordinates and read off the coefficient of each d(x)
    with x of degree 0."""
    chart = dr.chart
    assign = chart_assignment(chart, pt)
    rows = chart.generators_of_degree(0)
    cols = chart.generators_of_degree(-1)
    row_index = {g: i for i, g in enumerate(rows)}
    columns = []
    for u in cols:
        contraction = extend_derivation(dr.contraction({u: GradedPoly.const(1)}), omega, shift)
        column = [0] * len(rows)
        for mono, c in contraction.terms.items():
            val, dgen = c, None
            for g, e in mono:
                if g.dform:
                    if g.degree != 0 or dgen is not None:
                        break
                    dgen = dr.delta_base[g]
                elif g.degree == 0:
                    val *= assign[g] ** e
                else:
                    break
            else:
                if dgen is not None and val:
                    column[row_index[dgen]] += val
        columns.append(column)
    return as_matrix(zip(*columns))


def _quintic_points(src, n):
    """A diagonal point with n distinct quintic points, and the same point
    conjugated by I + N, N the upper shift, so its matrices are not diagonal."""
    coords = [(-1, 0, 0, 0), (1, -1, -1, 0), (0, 1, -1, -1)][:n]
    pt = diag_point(coords, src.relations, src.var_gens)
    g = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    return pt, gl_action(g, pt)


def _same_entries(a, b) -> bool:
    """Equal matrices with the same scalar type in every entry."""
    return a == b and [type(x) for r in a for x in r] == [type(x) for r in b for x in r]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pairing_matches_contraction_reference(fermat_presentation, corpus, monkeypatch, n):
    # Sign convention: the entry at (x, u) is the odd contraction
    # iota(d(u)) = 1 read off at d(x).  In omega's canonical order
    # d(x) d(u), iota passes the one odd factor d(x), so the entry is -1
    # times the contraction by the even derivation, and -c for the
    # coefficient c of d(x) d(u) at the point.
    dr = DeRhamAlgebra(matricize(fermat_presentation, n))
    om = omega0(dr)
    pts = _quintic_points(corpus["fermat"], n)
    assert n == 1 or pts[1].matrices[0] != pts[0].matrices[0]
    want = [pairing_reference(dr, om, pt) for pt in pts]
    for ref, pt in zip(want, pts):
        even = pairing_reference(dr, om, pt, shift=0)
        assert ref == tuple(tuple(-x for x in row) for row in even)
        assert any(x for row in ref for x in row)

    def forbidden(*args, **kwargs):
        raise AssertionError("pairing_at runs a derivation")

    monkeypatch.setattr(derham, "extend_derivation", forbidden)
    monkeypatch.setattr(DeRhamAlgebra, "contraction", forbidden)
    for ref, pt in zip(want, pts):
        rep = pairing_at(dr, om, pt)
        assert _same_entries(rep.matrix, ref)
        assert rep.rank == rank(ref)


def test_pairing_reads_only_first_order_dx_du_terms(fermat_dr1):
    # terms that the contraction kills or leaves with a negative-degree
    # factor add nothing; a plain degree-0 factor is evaluated
    dr = fermat_dr1
    (x, y), (u, v) = dr.chart.generators_of_degree(0)[:2], dr.chart.generators_of_degree(-1)[:2]
    dx, dy, du, dv = (dr.delta[g] for g in (x, y, u, v))
    extra = [
        [(dx, 1), (du, 2)],
        [(dx, 1), (v, 1), (du, 1)],
        [(du, 1), (dv, 1)],
        [(dx, 1), (dy, 1)],
        [(y, 2), (dx, 1), (du, 1)],
    ]
    om = omega0(dr) + poly_sum(GradedPoly.monomial(pairs, 5) for pairs in extra)
    rep = pairing_at(dr, om, FERMAT_PT1)
    assert _same_entries(rep.matrix, pairing_reference(dr, om, FERMAT_PT1))
    assert rep.matrix != pairing_at(dr, omega0(dr), FERMAT_PT1).matrix


def test_tangent_bases_are_pairing_axes(fermat_dr2, corpus):
    for pt in _quintic_points(corpus["fermat"], 2):
        t = tangent_complex_at(fermat_dr2.chart, pt)
        rep = pairing_at(fermat_dr2, omega0(fermat_dr2), pt)
        assert t.basis0 == rep.rows and t.basis1 == rep.cols


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


def _scalar_types_follow_one_rule(*matrices) -> bool:
    """Every entry is an int or a Fraction, and an int when integral."""
    entries = [x for mat in matrices for row in mat for x in row]
    return all(
        type(x) is int or type(x) is F and x.denominator != 1 for x in entries
    )


def test_matrix_entries_are_ints_where_integral(charts, corpus, fermat_dr2):
    # an integer point of A^3 at n = 2, moved off the diagonal by a
    # unimodular g whose inverse linalg computes exactly
    src = corpus["k[x,y,z]"]
    pt = gl_action(((1, 1), (0, 1)), diag_point([(0, 0, 0), (1, 2, 3)], src.relations, src.var_gens))
    assert pt.matrices[0] == ((0, 1), (0, 1))
    assert _scalar_types_follow_one_rule(*pt.matrices, [pt.vector])
    t = tangent_complex_at(charts[("k[x,y,z]", 2)], pt)
    assert any(x for row in t.d0 for x in row) and any(x for row in t.d1 for x in row)
    assert _scalar_types_follow_one_rule(t.d0, t.d1)
    # integral Fraction inputs are stored as ints
    assert _scalar_types_follow_one_rule(*MatrixPoint(([[F(4, 2)]],), (F(1),)).matrices)
    # the pairing passes through omega's thirds, yet integral entries are ints
    fermat = corpus["fermat"]
    qpt = diag_point([(-1, 0, 0, 0), (1, -1, -1, 0)], fermat.relations, fermat.var_gens)
    rep = pairing_at(fermat_dr2, omega0(fermat_dr2), qpt)
    assert any(x for row in rep.matrix for x in row)
    assert _scalar_types_follow_one_rule(rep.matrix)


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
    from dgquot.derham import conjugation_field

    dr = fermat_dr2
    xi = [[0, 1], [0, 0]]
    field = conjugation_field(dr, xi)
    iota = dr.contraction(field)
    g = dr.chart.blocks["w"][0][0]
    gp = GradedPoly.gen(g)
    lie = dr.ddr(extend_derivation(iota, gp, 1)) + extend_derivation(iota, dr.ddr(gp), 1)
    assert lie == field[g]
