from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquot import cli
from dgquot.serialize import TASKS, Report, load_manifest, write_canonical
from tests.test_cli import MANIFESTS, _corrupted_pipeline, canonical


def written(obj) -> str:
    out = []
    write_canonical(obj, out.append)
    return "".join(out)


TRICKY_TEXT = st.text(
    alphabet=st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f é\U0001f600\ud800'),
    max_size=8,
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e300, -1e-300, 5e-324, 2**64, -(2**64) - 1])
    | TRICKY_TEXT
)
TREES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(TRICKY_TEXT, kids, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(TREES)
def test_writer_matches_json_dumps(obj):
    assert written(obj) == canonical(obj)


def test_writer_on_empty_and_deep_trees():
    for obj in ({}, [], (), {"a": {}, "b": [], "c": [[], {}]}, "", 0):
        assert written(obj) == canonical(obj)
    deep = "leaf"
    for depth in range(150):
        deep = [deep, {"k": 1}] if depth % 2 else {"k": deep, "e": []}
    assert written(deep) == canonical(deep)


@pytest.mark.parametrize(
    "bad",
    [{1: "a"}, {"a": 1, 2: "b"}, float("nan"), float("inf"), Fraction(1, 3), {"a", "b"}],
    ids=["int-key", "mixed-keys", "nan", "inf", "fraction", "set"],
)
def test_writer_rejects_what_is_not_json(bad):
    out = []
    with pytest.raises((TypeError, ValueError)):
        write_canonical(bad, out.append)
    assert out == []
    # nested, it still raises rather than writing different bytes
    with pytest.raises((TypeError, ValueError)):
        write_canonical({"x": [1, bad]}, [].append)


def test_every_report_shape_matches_json_dumps():
    # a failed d^2 check carries residual witnesses
    failed = Report(command="resolve", input_hash="0" * 64)
    failed.results.append({"task": "resolve", **cli._task_resolve(_corrupted_pipeline("affine3_n2.json"))})
    assert "residuals" in failed.results[0]
    reports = [failed]
    for path in sorted(MANIFESTS.glob("*.json")):
        manifest = load_manifest(str(path))
        for tasks in [[task] for task in TASKS] + [manifest.tasks]:
            reports.append(cli.run(manifest, tasks))
    statuses = {r["status"] for report in reports for r in report.results}
    assert statuses == {"pass", "fail", "error"}
    for report in reports:
        assert report.dumps() == canonical(report.to_json())
