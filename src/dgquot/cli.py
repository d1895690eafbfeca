"""Command-line interface: run chart pipelines from a JSON manifest.

Subcommands: resolve, repify, h0, stable, tangent, form-check, pair,
selfcheck, run.  `run` executes the manifest's task list; each other
subcommand runs exactly one task.  Exit status 0 iff every task passes.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from .algebra import GradedPoly
from .derham import (
    DeRhamAlgebra,
    _require_fermat,
    build_phi,
    close_check,
    invariance_check,
    omega0,
    pairing_at,
)
from .errors import DgquotError, NotClassicalError, StructureError
from .points import is_classical_point, is_stable, matrices_satisfy
from .repify import check_chart_d_squared, h0_ideal, matricize
from .resolution import AlgebraInput, build_resolution, check_d_squared
from .serialize import (
    Manifest,
    Report,
    chart_presentation_json,
    free_presentation_json,
    load_manifest,
    scalar_str,
)
from .tangent import quot_tangent_check

# unused here, but perfbench/tracing.py wraps and restores this name
from .tangent import chart_cohomology  # noqa: F401


class _Pipeline:
    """Shared lazily-built objects for one manifest."""

    def __init__(self, manifest: Manifest, extended: bool = False):
        self.manifest = manifest
        self.extended = extended
        self._source = None
        self._presentation = None
        self._charts = {}
        self._derham = {}

    @property
    def source(self) -> AlgebraInput:
        if self._source is None:
            self._source = AlgebraInput.from_strings(
                self.manifest.variables, self.manifest.relations
            )
        return self._source

    @property
    def presentation(self):
        if self._presentation is None:
            self._presentation = build_resolution(self.source, self.manifest.ordering)
        return self._presentation

    def chart(self, n=None):
        n = self.manifest.n if n is None else n
        if n not in self._charts:
            self._charts[n] = matricize(self.presentation, n)
        return self._charts[n]

    def derham(self, n=None):
        n = self.manifest.n if n is None else n
        if n not in self._derham:
            self._derham[n] = DeRhamAlgebra(self.chart(n))
        return self._derham[n]


_WITNESS_TERMS = 3  # leading terms of a nonzero residual shown in a report


def _leading_terms(p) -> list:
    """The first terms of a nonzero residual, printed: a failure witness."""
    return [str(type(p)({k: c})) for k, c in p.sorted_terms()[:_WITNESS_TERMS]]


def _d_squared_result(rep, presentation: dict) -> dict:
    failures = rep.failures()
    result = {
        "status": "pass" if rep.ok else "fail",
        "d_squared_zero": rep.ok,
        "failures": [name for name, _ in failures],
        "presentation": presentation,
    }
    if failures:
        result["residuals"] = {name: _leading_terms(p) for name, p in failures}
    return result


def _task_resolve(pipe: _Pipeline) -> dict:
    pres = pipe.presentation
    return _d_squared_result(check_d_squared(pres), free_presentation_json(pres))


def _task_repify(pipe: _Pipeline) -> dict:
    chart = pipe.chart()
    return _d_squared_result(check_chart_d_squared(chart), chart_presentation_json(chart))


def _task_h0(pipe: _Pipeline) -> dict:
    chart = pipe.chart()
    polys = h0_ideal(chart)
    return {
        "status": "pass",
        "count": len(polys),
        "generators": [str(p) for p in polys],
    }


def _task_stable(pipe: _Pipeline) -> dict:
    chart = pipe.chart()
    rows = []
    for k, pt in enumerate(pipe.manifest.points):
        classical, witness = is_classical_point(pt, chart)
        rows.append(
            {
                "point": k,
                "classical": classical,
                "witness": None if witness is None else str(witness),
                "stable": is_stable(pt),
            }
        )
    return {"status": "pass" if rows else "fail", "points": rows,
            **({} if rows else {"error": "no points in manifest"})}


def _task_tangent(pipe: _Pipeline) -> dict:
    chart = pipe.chart()
    rows = []
    ok = bool(pipe.manifest.points)
    for k, pt in enumerate(pipe.manifest.points):
        try:
            quot = quot_tangent_check(chart, pt)
        except NotClassicalError as exc:
            rows.append({"point": k, "classical": False, "witness": str(exc.witness)})
            ok = False
            continue
        report = quot.cohomology
        entry = {
            "point": k,
            "classical": True,
            "h0": report.h0,
            "h1": report.h1,
            "h2_upper": report.h2_upper,
            "h2_exact": report.h2_exact,
            "dims": list(report.dims),
            "ranks": list(report.ranks),
        }
        if quot.has_oracle:
            entry["oracle"] = list(quot.oracle)
            entry["oracle_checks"] = quot.checks
            ok = ok and quot.ok
        else:
            entry["oracle"] = None
            entry["oracle_note"] = quot.note
        rows.append(entry)
    return {"status": "pass" if ok else "fail", "points": rows}


def _task_form_check(pipe: _Pipeline) -> dict:
    dr = pipe.derham()
    phi = build_phi(dr)
    om = omega0(dr, phi)
    rep = close_check(dr, om)
    result = {
        "status": "pass" if rep.ok else "fail",
        "n": pipe.chart().n,
        "phi_monomials": len(phi.terms),
        "omega0_monomials": len(om.terms),
        "dint_omega0_zero": rep.dint_residual.is_zero(),
        "ddr_omega0_zero": rep.ddr_residual.is_zero(),
    }
    for key, residual in (("dint", rep.dint_residual), ("ddr", rep.ddr_residual)):
        if residual:
            result[f"{key}_omega0_residual"] = _leading_terms(residual)
    return result


def _task_pair(pipe: _Pipeline) -> dict:
    dr = pipe.derham()
    om = omega0(dr)
    rows = []
    ok = bool(pipe.manifest.points)
    for k, pt in enumerate(pipe.manifest.points):
        try:
            rep = pairing_at(dr, om, pt)
        except NotClassicalError as exc:
            rows.append({"point": k, "classical": False, "witness": str(exc.witness)})
            ok = False
            continue
        entries = {}
        for i, rg in enumerate(rep.rows):
            for j, cg in enumerate(rep.cols):
                if rep.matrix[i][j]:
                    entries[f"({rg.name}, {cg.name})"] = scalar_str(rep.matrix[i][j])
        rows.append({"point": k, "classical": True, "rank": rep.rank, "entries": entries})
    return {"status": "pass" if ok else "fail", "points": rows}


def _task_selfcheck(pipe: _Pipeline) -> dict:
    checks = {}
    pres = pipe.presentation
    checks["free_d_squared"] = check_d_squared(pres).ok
    ranks = sorted({1, 2, pipe.manifest.n} | ({3} if pipe.extended else set()))
    for n in ranks:
        checks[f"chart_d_squared_n{n}"] = check_chart_d_squared(pipe.chart(n)).ok
    # de Rham axioms on seeded random elements of the manifest chart
    dr = pipe.derham()
    rng = random.Random(0)
    gens = list(dr.chart.generators) + [dr.delta[g] for g in dr.chart.generators]
    axiom_ok = True
    for _ in range(200):
        p = GradedPoly.zero()
        for _ in range(rng.randint(1, 3)):
            pairs = [(rng.choice(gens), 1) for _ in range(rng.randint(1, 3))]
            p = p + GradedPoly.monomial(pairs, rng.randint(-3, 3))
        if not dr.ddr(dr.ddr(p)).is_zero():
            axiom_ok = False
        if not (dr.dint(dr.ddr(p)) + dr.ddr(dr.dint(p))).is_zero():
            axiom_ok = False
    checks["derham_axioms"] = axiom_ok
    # the traced 2-form, when the chart is the affine quintic
    try:
        _require_fermat(dr.chart)
        is_fermat = True
    except StructureError:
        is_fermat = False
    if is_fermat:
        for n in ranks:
            if n > 2 and not pipe.extended:
                continue
            checks[f"form_closure_n{n}"] = close_check(pipe.derham(n)).ok
        om = omega0(pipe.derham(2))
        inv_ok = True
        for a in range(2):
            for b in range(2):
                xi = [[1 if (i, j) == (a, b) else 0 for j in range(2)] for i in range(2)]
                inv_ok = inv_ok and invariance_check(pipe.derham(2), om, xi).ok
        checks["form_invariance_n2"] = inv_ok
    for k, pt in enumerate(pipe.manifest.points):
        classical, _ = is_classical_point(pt, pipe.chart())
        checks[f"point{k}_classical"] = classical
        if classical:
            checks[f"point{k}_oracle_vs_matrices"] = matrices_satisfy(
                pipe.source, pt.matrices
            )
    return {"status": "pass" if all(checks.values()) else "fail", "checks": checks}


_TASK_RUNNERS = {
    "resolve": _task_resolve,
    "repify": _task_repify,
    "h0": _task_h0,
    "stable": _task_stable,
    "tangent": _task_tangent,
    "form-check": _task_form_check,
    "pair": _task_pair,
    "selfcheck": _task_selfcheck,
}


def run(manifest: Manifest, tasks, command: str = "run", extended: bool = False) -> Report:
    pipe = _Pipeline(manifest, extended=extended)
    report = Report(command=command, input_hash=manifest.input_hash())
    t0 = time.perf_counter()
    for task in tasks:
        try:
            result = _TASK_RUNNERS[task](pipe)
        except DgquotError as exc:
            result = {"status": "error", "error": str(exc)}
        result = {"task": task, **result}
        report.results.append(result)
    report.wall_time_s = round(time.perf_counter() - t0, 6)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dgquot",
        description="Derived charts of Quot schemes of points: build, verify, probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("resolve", "build the free resolution and check d^2 = 0"),
        ("repify", "matricize at rank n and check d^2 = 0"),
        ("h0", "list the classical truncation ideal generators"),
        ("stable", "classify manifest points (classical / stable)"),
        ("tangent", "tangent cohomology at manifest points, with oracle"),
        ("form-check", "build the traced 2-form and verify closure"),
        ("pair", "pairing matrix and rank of the 2-form at points"),
        ("selfcheck", "run the full invariant suite on the built objects"),
        ("run", "execute the manifest's task list"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="path to the JSON manifest")
        p.add_argument("--n", type=int, default=None, help="override manifest rank n")
        p.add_argument(
            "--ordering", default=None, help="comma-separated variable order override"
        )
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument(
            "--extended", action="store_true", help="enable slow n=3 suites"
        )
    args = parser.parse_args(argv)

    try:
        manifest = load_manifest(args.manifest)
        if args.n is not None:
            if args.n < 1:
                raise DgquotError("--n must be >= 1")
            manifest.n = args.n
            manifest.points = [pt for pt in manifest.points if pt.n == args.n]
        if args.ordering:
            manifest.ordering = [s.strip() for s in args.ordering.split(",")]
            if sorted(manifest.ordering) != sorted(manifest.variables):
                raise DgquotError("--ordering must be a permutation of the variables")
        tasks = manifest.tasks if args.command == "run" else [args.command]
        if not tasks:
            raise DgquotError("manifest has no tasks; pass a subcommand instead of 'run'")
        report = run(manifest, tasks, command=args.command, extended=args.extended)
    except DgquotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = report.dumps()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    for result in report.results:
        print(f"{result['task']}: {result['status']}")
    if not args.out:
        print(text, end="")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
