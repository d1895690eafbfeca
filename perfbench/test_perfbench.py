"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from dgquot import cli, derham, linalg, points, repify, resolution, tangent  # noqa: E402
from dgquot.serialize import parse_manifest  # noqa: E402

SEEDED = ("quintic-form", "tangent-sweep")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_same_seed_same_manifests(workload, seed):
    first = workloads.build(workload, seed)
    second = workloads.build(workload, seed)
    assert [(i.name, i.manifest, i.tasks) for i in first] == [
        (i.name, i.manifest, i.tasks) for i in second
    ]


@pytest.mark.parametrize("workload", SEEDED)
def test_seed_picks_the_points(workload):
    a = [i.manifest for i in workloads.build(workload, 1)]
    b = [i.manifest for i in workloads.build(workload, 2)]
    assert a != b


@pytest.mark.parametrize("workload", SEEDED)
@pytest.mark.parametrize("seed", range(6))
def test_generated_points_are_distinct_classical_and_stable(workload, seed):
    items = workloads.build(workload, seed)
    assert workloads.validate_inputs(items) == []
    for item in items:
        manifest = parse_manifest(item.manifest)
        source = resolution.AlgebraInput.from_strings(manifest.variables, manifest.relations)
        for pt in manifest.points:
            assert pt.n == item.n
            assert points.matrices_satisfy(source, pt.matrices), item.name
            assert points.is_stable(pt), item.name
        coords = workloads.point_coords(item.manifest)
        assert len(set(coords)) == item.n


def test_relation_checks_reject_bad_points():
    item = workloads.Item(
        "bad", workloads.diag_manifest(workloads.XYZ, workloads.SPHERE, [(1, 1, 0), (1, 1, 0)], []),
        [], "sphere", 2,
    )
    problems = workloads.validate_inputs([item])
    assert any("not distinct" in p for p in problems)
    assert any("violates" in p for p in problems)


def test_sphere_points_are_rational_points_of_the_sphere():
    import random

    for p in workloads.sphere_points(random.Random(3), 5):
        assert sum(c * c for c in p) == 1
        assert all(isinstance(c, Fraction) for c in p)


@pytest.mark.parametrize("points", [workloads.affine_points, workloads.sphere_points])
def test_seed_keeps_the_entry_sizes(points):
    # so that a pass costs the same for every seed
    import random

    def sizes(seed):
        return [sorted(abs(c) for c in p) for p in points(random.Random(seed), 4)]

    assert sizes(1) == sizes(2) == sizes(17)
    assert points(random.Random(1), 4) != points(random.Random(2), 4)


def test_smooth_point_dims():
    # A^3 and the sphere, n = 2: n^2 + n*C(d,1) and n*C(d,2)
    assert workloads.smooth_point_dims(2, 3, 0) == (10, 6)
    assert workloads.smooth_point_dims(2, 3, 1) == (8, 2)
    assert workloads.smooth_point_dims(5, 3, 1) == (35, 5)


def test_first_difference_names_the_field():
    got = {"a": [1, {"b": 2}], "c": 3}
    want = {"a": [1, {"b": 5}], "c": 3}
    assert workloads.first_difference(got, want) == ("$.a[1].b", 2, 5)
    assert workloads.first_difference(want, want) is None


def test_timing_fields_counts_wall_clock_keys():
    results = [{"task": "form-check", "seconds": 0.1, "n": 1}, {"task": "pair", "points": [{"x_s": 1}]}]
    assert workloads.timing_fields(results) == 2


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, "item")


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.y", 5.0, 6.0, 3),
        _span("b.z", 5.5, 7.0, 3),  # overlaps its sibling: covered once
        _span("late", 9.5, 12.0, 0),  # runs past its parent: only 0.5 s counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2.0, 1.0, 2.0, 1.0, 1.5, 2.5])


def test_tracer_nests_spans():
    tracer = tracing.Tracer()
    tracer.item = "one"
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None
    assert inner.item == outer.item == "one"
    assert outer.start <= inner.start <= inner.end <= outer.end


def _fermat_n1():
    return parse_manifest(
        workloads.diag_manifest(workloads.WXYZ, workloads.QUINTIC, [(1, -1, -1, 0)], [])
    )


def test_traced_run_restores_every_wrapped_name():
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert cli.matricize is not repify.matricize
        report = cli.run(_fermat_n1(), ["resolve", "repify", "stable", "tangent", "form-check", "pair"])
    assert report.ok
    assert tracing.unrestored(before) == []
    assert cli.matricize is repify.matricize
    assert cli.build_resolution is resolution.build_resolution
    assert cli.DeRhamAlgebra is derham.DeRhamAlgebra
    assert cli.chart_cohomology is tangent.chart_cohomology
    assert tangent.is_classical_point is points.is_classical_point
    assert "from_strings" in vars(resolution.AlgebraInput)
    assert isinstance(vars(resolution.AlgebraInput)["from_strings"], staticmethod)
    assert not hasattr(linalg.rank, "__wrapped__")
    names = {s.name for s in tracer.spans}
    assert {"repify.matricize", "derham.DeRhamAlgebra", "tangent.chart_cohomology", "linalg.rank"} <= names
    # omega0 called without a form builds phi: the nested call is a child span
    phi_parents = {tracer.spans[s.parent].name for s in tracer.spans
                   if s.name == "derham.build_phi" and s.parent is not None}
    assert "derham.omega0" in phi_parents


def test_wrapped_names_are_restored_after_an_error():
    before = tracing.snapshot()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            raise RuntimeError("boom")
    assert tracing.unrestored(before) == []
