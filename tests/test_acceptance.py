"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exact (identically-zero polynomials, integer dimension
equalities, byte-identical reports); there are no numeric tolerances
anywhere.  Run with `pytest tests/test_acceptance.py -v -s`; set
DGQUOT_EXTENDED=1 to include the rank-3 closure check.
"""

import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from dgquot import (
    DeRhamAlgebra,
    GradedPoly,
    MatrixPoint,
    build_phi,
    chart_cohomology,
    check_chart_d_squared,
    check_d_squared,
    close_check,
    diag_point,
    gl_action,
    h0_ideal,
    invariance_check,
    is_stable,
    koszul_ext_oracle,
    matricize,
    omega0,
    pairing_at,
    quot_tangent_check,
)
from dgquot.cli import run
from dgquot.points import chart_assignment, matrices_satisfy
from dgquot.serialize import load_manifest
from tests.conftest import RUN_EXTENDED
from tests.test_points import rand_invertible

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def verdict(number, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number} ({label}): {status}{tail}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_d_squared(presentations):
    t0 = time.perf_counter()
    ok = True
    for name, pres in presentations.items():
        ok = ok and check_d_squared(pres).ok
        for n in (1, 2, 3):
            ok = ok and check_chart_d_squared(matricize(pres, n)).ok
    verdict(1, "d^2 = 0 on corpus, free and charts n=1..3", ok,
            f"{time.perf_counter() - t0:.1f}s")


def _commuting_samples(src, n, rng):
    """Constructed tuples that genuinely satisfy the equations."""
    m = len(src.variables)
    roots = {
        "fermat": [(-1, 0, 0, 0), (1, -1, -1, 0), (2, -2, -1, 0), (0, -1, 0, 0)],
        "sphere": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (F(3, 5), F(4, 5), 0)],
    }
    name = "fermat" if m == 4 and src.relations else ("sphere" if src.relations else None)
    out = []
    for _ in range(4):
        if name is None:
            tuples = [tuple(rng.randint(-2, 2) for _ in range(m)) for _ in range(n)]
        else:
            tuples = rng.sample(roots[name], n)
        pt = diag_point(tuples, src.relations, src.var_gens)
        g = rand_invertible(rng, n)
        out.append(gl_action(g, pt))
    return out


def test_criterion_2_classical_truncation(corpus, presentations):
    t0 = time.perf_counter()
    rng = random.Random(202)
    ok = True
    checked = 0
    for name, src in corpus.items():
        pres = presentations[name]
        for n in (2, 3):
            chart = matricize(pres, n)
            ideal = h0_ideal(chart)
            samples = []
            for _ in range(50):
                mats = tuple(
                    tuple(tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n))
                    for _ in range(len(src.variables))
                )
                vec = tuple(F(rng.randint(-2, 2)) for _ in range(n))
                samples.append(MatrixPoint(mats, vec))
            samples.extend(_commuting_samples(src, n, rng))
            for pt in samples:
                assign = chart_assignment(chart, pt)
                symbolic = all(p.evaluate(assign).constant() == 0 for p in ideal)
                direct = matrices_satisfy(src, pt.matrices)
                ok = ok and (symbolic == direct)
                checked += 1
    verdict(2, "truncation ideal vanishing iff direct matrix equations", ok,
            f"{checked} samples, {time.perf_counter() - t0:.1f}s")


def test_criterion_3_stability(corpus):
    rng = random.Random(303)
    src = corpus["k[x,y,z]"]
    ok = True
    for n in (2, 3):
        distinct = [tuple(3 * i + j for j in range(3)) for i in range(n)]
        stable_pt = diag_point(distinct, src.relations, src.var_gens)
        repeated = diag_point([distinct[0]] * n, src.relations, src.var_gens)
        ok = ok and is_stable(stable_pt) and not is_stable(repeated)
        for _ in range(100):
            g = rand_invertible(rng, n)
            ok = ok and is_stable(gl_action(g, stable_pt))
            ok = ok and not is_stable(gl_action(g, repeated))
    verdict(3, "diag-point stability and GL invariance (n=2,3)", ok)


def test_criterion_4_tangent_vs_oracle(corpus, presentations):
    src3 = corpus["k[x,y,z]"]
    ok = True

    # (a) rank 1 at the origin of affine 3-space: truncation complete
    chart1 = matricize(presentations["k[x,y,z]"], 1)
    origin = MatrixPoint(([[0]], [[0]], [[0]]), (F(1),))
    rep = chart_cohomology(chart1, origin)
    ext = koszul_ext_oracle(3, 1)
    ok = ok and (rep.h0, rep.h1, rep.h2_upper) == (4, 3, 1) and ext == (3, 3, 1)
    ok = ok and rep.h0 == 1 + ext[0] and rep.h1 == ext[1]
    ok = ok and rep.h2_exact and rep.h2_upper == ext[2]
    q = quot_tangent_check(chart1, origin)
    ok = ok and q.has_oracle and q.ok

    # (b) rank 2 over two distinct points
    chart2 = matricize(presentations["k[x,y,z]"], 2)
    two = diag_point([(0, 0, 0), (1, 2, 3)], src3.relations, src3.var_gens)
    rep2 = chart_cohomology(chart2, two)
    ext2 = koszul_ext_oracle(3, 2)
    ok = ok and (rep2.h0, rep2.h1, rep2.h2_upper) == (10, 6, 2) and ext2 == (6, 6, 2)
    ok = ok and rep2.h0 == 4 + ext2[0] and rep2.h1 == ext2[1] and rep2.h2_upper == ext2[2]
    ok = ok and quot_tangent_check(chart2, two).ok

    # (c) the affine line
    chartx = matricize(presentations["k[x]"], 1)
    pt = MatrixPoint(([[7]],), (F(1),))
    repx = chart_cohomology(chartx, pt)
    extx = koszul_ext_oracle(1, 1)
    ok = ok and (repx.h0, repx.h1, repx.h2_upper) == (2, 0, 0) and extx == (1, 0, 0)
    ok = ok and repx.h0 == 1 + extx[0]
    ok = ok and quot_tangent_check(chartx, pt).ok

    verdict(4, "tangent cohomology matches Koszul oracle with n^2 offset", ok)


def test_criterion_5_closure(fermat_presentation):
    ranks = (1, 2, 3) if RUN_EXTENDED else (1, 2)
    ok = True
    times = []
    for n in ranks:
        dr = DeRhamAlgebra(matricize(fermat_presentation, n))
        t0 = time.perf_counter()
        rep = close_check(dr, omega0(dr))
        times.append(f"n={n}: {time.perf_counter() - t0:.2f}s")
        ok = ok and rep["dint"].is_zero() and rep["ddr"].is_zero()
    verdict(5, "shifted-form closure d(omega0) = 0", ok, ", ".join(times))


def test_criterion_6_derham_axioms(presentations):
    rng = random.Random(606)
    ok = True
    t0 = time.perf_counter()
    for dr in (
        DeRhamAlgebra(matricize(presentations["fermat"], 1)),
        DeRhamAlgebra(matricize(presentations["k[x,y,z]"], 2)),
    ):
        gens = list(dr.chart.generators) + [dr.delta[g] for g in dr.chart.generators]
        for _ in range(1000):
            p = GradedPoly.zero()
            for _ in range(rng.randint(1, 3)):
                pairs = [(rng.choice(gens), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
                p = p + GradedPoly.monomial(pairs, F(rng.randint(-3, 3)))
            ok = ok and dr.ddr(dr.ddr(p)).is_zero()
            ok = ok and (dr.dint(dr.ddr(p)) + dr.ddr(dr.dint(p))).is_zero()
    verdict(6, "de Rham axioms on 2x1000 random elements", ok,
            f"{time.perf_counter() - t0:.1f}s")


def test_criterion_7_pairing(fermat_presentation):
    dr = DeRhamAlgebra(matricize(fermat_presentation, 1))
    om = omega0(dr)
    pt = MatrixPoint(([[-1]], [[0]], [[0]], [[0]]), (F(1),))
    rep = pairing_at(dr, om, pt)
    entries = {
        (rg.name, cg.name): rep.matrix[i][j]
        for i, rg in enumerate(rep.rows)
        for j, cg in enumerate(rep.cols)
        if rep.matrix[i][j]
    }
    # columns are stored generators a[i,j] (i < j); the oriented dual of
    # U_zx is -a[x,z], so the +1 below is the oriented value -1
    expected = {
        ("x[1,1]", "a[y,z][1,1]"): F(-1),
        ("y[1,1]", "a[x,z][1,1]"): F(1),
        ("z[1,1]", "a[x,y][1,1]"): F(-1),
    }
    ok = rep.rank == 3 and entries == expected
    verdict(7, "pairing at the quintic rank-1 point: rank 3, entries -1", ok)


def test_criterion_8_gl_invariance(fermat_presentation, corpus):
    rng = random.Random(808)
    dr = DeRhamAlgebra(matricize(fermat_presentation, 2))
    om = omega0(dr)
    ok = True
    for a in range(2):
        for b in range(2):
            xi = [[1 if (i, j) == (a, b) else 0 for j in range(2)] for i in range(2)]
            ok = ok and invariance_check(dr, om, xi).ok
    src = corpus["fermat"]
    pt = diag_point([(-1, 0, 0, 0), (1, -1, -1, 0)], src.relations, src.var_gens)
    base = pairing_at(dr, om, pt).rank
    for _ in range(10):
        g = rand_invertible(rng, 2)
        ok = ok and pairing_at(dr, om, gl_action(g, pt)).rank == base
    verdict(8, "Lie derivative zero on xi basis; pairing rank conjugation-invariant", ok)


def test_criterion_9_determinism():
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    runs = [run(manifest, manifest.tasks, command="run") for _ in range(2)]
    texts = [r.dumps() for r in runs]
    ok = texts[0] == texts[1]
    ok = ok and texts[0] == (GOLDEN / "fermat_report_n1.json").read_text()
    ok = ok and all(r.ok for r in runs)
    verdict(9, "byte-identical reports matching committed goldens", ok)
