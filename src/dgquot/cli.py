"""Command-line interface: run chart pipelines from a JSON manifest.

Subcommands: resolve, repify, h0, stable, tangent, form-check, pair,
selfcheck, run.  `run` executes the manifest's task list; each other
subcommand runs exactly one task.  A per-point task (stable, tangent, pair)
gives one row per manifest point and fails when there are none; in tangent
and pair a point that is not classical gets a witness row and fails the task.
Exit status: 0 when every task passes, 1 when a task fails or errors, 2 when
the arguments or the manifest are unusable (no report is written).
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import nullcontext
from functools import cached_property, partial

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
from .points import PointTests, is_classical_point, is_stable, matrices_satisfy
from .repify import check_chart_d_squared, h0_ideal, matricize
from .resolution import AlgebraInput, build_resolution, check_d_squared
from .serialize import (
    Manifest,
    Report,
    chart_presentation_json,
    free_presentation_json,
    load_manifest,
    scalar_str,
    write_canonical,
)
from .tangent import quot_tangent_check

# unused here, but perfbench/tracing.py wraps and restores this name
from .tangent import chart_cohomology  # noqa: F401


class _Pipeline:
    """Shared lazily-built objects for one manifest.  Each manifest point
    gets one `PointTests` on the manifest's chart, so every task that reads
    a point's classical verdict or stability shares one run of each test;
    they die with the pipeline.  The tests keep a point's word products,
    until the tangent complex takes them, only with `keep_products`: `run`
    sets it when the tangent task, their one later reader, is among its
    tasks."""

    def __init__(self, manifest: Manifest, keep_products: bool = True):
        self.manifest = manifest
        self._keep_products = keep_products
        self._charts = {}
        self._derham = {}
        self._point_tests = {}

    @cached_property
    def source(self) -> AlgebraInput:
        return AlgebraInput.from_strings(self.manifest.variables, self.manifest.relations)

    @cached_property
    def presentation(self):
        return build_resolution(self.source, self.manifest.ordering)

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

    def point_tests(self, k: int) -> PointTests:
        """The tests at manifest point k, through this module's names of
        `is_classical_point` and `is_stable`."""
        if k not in self._point_tests:
            pt = self.manifest.points[k]
            self._point_tests[k] = PointTests(
                self.chart(), pt, is_classical_point, is_stable, self._keep_products
            )
        return self._point_tests[k]


_WITNESS_TERMS = 3  # leading terms of a nonzero residual shown in a report


def _leading_terms(p) -> list:
    """The first terms of a nonzero residual, printed: a failure witness."""
    return p.term_texts(_WITNESS_TERMS)


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


def _per_point(pipe: _Pipeline, row) -> dict:
    """A per-point task's result, from `row(chart, tests) -> (fields,
    passed)` at each manifest point, `tests` its `PointTests`."""
    chart = pipe.chart()
    rows = []
    ok = True
    for k in range(len(pipe.manifest.points)):
        try:
            fields, passed = row(chart, pipe.point_tests(k))
        except NotClassicalError as exc:
            fields, passed = {"classical": False, "witness": str(exc.witness)}, False
        rows.append({"point": k, **fields})
        ok = ok and passed
    if not rows:
        return {"status": "fail", "points": rows, "error": "no points in manifest"}
    return {"status": "pass" if ok else "fail", "points": rows}


def _stable_row(chart, tests):
    classical, witness = tests.verdict
    fields = {
        "classical": classical,
        "witness": None if witness is None else str(witness),
        "stable": tests.stable,
    }
    return fields, True


def _tangent_row(chart, tests):
    quot = quot_tangent_check(chart, tests)
    report = quot.cohomology
    fields = {
        "classical": True,
        "h0": report.h0,
        "h1": report.h1,
        "h2_upper": report.h2_upper,
        "h2_exact": report.h2_exact,
        "dims": list(report.dims),
        "ranks": list(report.ranks),
    }
    if not quot.has_oracle:
        return {**fields, "oracle": None, "oracle_note": quot.note}, True
    return {**fields, "oracle": list(quot.oracle), "oracle_checks": quot.checks}, quot.ok


def _task_form_check(pipe: _Pipeline) -> dict:
    dr = pipe.derham()
    om = omega0(dr)  # builds phi on first use; build_phi then returns it
    phi = build_phi(dr)
    rep = close_check(dr, om)
    result = {
        "status": "pass" if rep.ok else "fail",
        "n": pipe.chart().n,
        "phi_monomials": len(phi.terms),
        "omega0_monomials": len(om.terms),
        **{f"{key}_omega0_zero": residual.is_zero() for key, residual in rep.items()},
    }
    for key, residual in rep.failures():
        result[f"{key}_omega0_residual"] = _leading_terms(residual)
    return result


def _task_pair(pipe: _Pipeline) -> dict:
    dr = pipe.derham()
    om = omega0(dr)

    def pair_row(chart, tests):
        rep = pairing_at(dr, om, tests)
        entries = {}
        for i, rg in enumerate(rep.rows):
            for j, cg in enumerate(rep.cols):
                if rep.matrix[i][j]:
                    entries[f"({rg.name}, {cg.name})"] = scalar_str(rep.matrix[i][j])
        return {"classical": True, "rank": rep.rank, "entries": entries}, True

    return _per_point(pipe, pair_row)


def _task_selfcheck(pipe: _Pipeline) -> dict:
    checks = {}
    checks["free_d_squared"] = check_d_squared(pipe.presentation).ok
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
    try:
        _require_fermat(dr.chart)
        is_fermat = True
    except StructureError:
        is_fermat = False
    for n in sorted({1, 2, pipe.manifest.n}):
        checks[f"chart_d_squared_n{n}"] = check_chart_d_squared(pipe.chart(n)).ok
        if not is_fermat:
            continue
        # the traced 2-form on the affine quintic, shared with form-check and pair
        drn = pipe.derham(n)
        om = omega0(drn)
        checks[f"form_closure_n{n}"] = close_check(drn, om).ok
        if n == 2:
            units = (
                [[1 if (i, j) == (a, b) else 0 for j in range(2)] for i in range(2)]
                for a in range(2)
                for b in range(2)
            )
            checks["form_invariance_n2"] = all(invariance_check(drn, om, xi).ok for xi in units)
    for k, pt in enumerate(pipe.manifest.points):
        classical, _ = pipe.point_tests(k).verdict
        checks[f"point{k}_classical"] = classical
        if classical:
            checks[f"point{k}_oracle_vs_matrices"] = matrices_satisfy(
                pipe.source, pt.matrices
            )
    return {"status": "pass" if all(checks.values()) else "fail", "checks": checks}


_TASKS = {  # name -> (runner, subcommand help)
    "resolve": (_task_resolve, "build the free resolution and check d^2 = 0"),
    "repify": (_task_repify, "matricize at rank n and check d^2 = 0"),
    "h0": (_task_h0, "list the classical truncation ideal generators"),
    "stable": (partial(_per_point, row=_stable_row), "classify manifest points (classical / stable)"),
    "tangent": (partial(_per_point, row=_tangent_row), "tangent cohomology at manifest points, with oracle"),
    "form-check": (_task_form_check, "build the traced 2-form and verify closure"),
    "pair": (_task_pair, "pairing matrix and rank of the 2-form at points"),
    "selfcheck": (_task_selfcheck, "run the full invariant suite on the built objects"),
}


def run(manifest: Manifest, tasks, command: str = "run") -> Report:
    pipe = _Pipeline(manifest, keep_products="tangent" in tasks)
    report = Report(command=command, input_hash=manifest.input_hash())
    for task in tasks:
        try:
            result = _TASKS[task][0](pipe)
        except DgquotError as exc:
            result = {"status": "error", "error": str(exc)}
        report.results.append({"task": task, **result})
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dgquot",
        description="Derived charts of Quot schemes of points: build, verify, probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: help_text for name, (_, help_text) in _TASKS.items()}
    for name, help_text in {**commands, "run": "execute the manifest's task list"}.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="path to the JSON manifest")
        p.add_argument("--n", type=int, default=None, help="override manifest rank n")
        p.add_argument(
            "--ordering", default=None, help="comma-separated variable order override"
        )
        p.add_argument("--out", default=None, help="write the JSON report here")
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
        # malformed names or relations are a usage error, not a failed task
        AlgebraInput.from_strings(manifest.variables, manifest.relations)
        tasks = manifest.tasks if args.command == "run" else [args.command]
        if not tasks:
            raise DgquotError("manifest has no tasks; pass a subcommand instead of 'run'")
        # an unwritable --out is a usage error too: open it before any task runs
        try:
            out = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
        except OSError as exc:
            raise DgquotError(f"cannot write report: {exc}") from None
    except DgquotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with out as fh:
        report = run(manifest, tasks, command=args.command)
        for result in report.results:
            print(f"{result['task']}: {result['status']}")
        write_canonical(report.to_json(), fh.write)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
