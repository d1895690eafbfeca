import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquot import GenSym, cli, matricize
from dgquot.serialize import (
    TASKS,
    Report,
    chart_presentation_json,
    free_presentation_json,
    load_manifest,
    write_canonical,
)
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


def test_leaf_lists_match_json_dumps_in_one_write():
    leaves = [["w", 5], ["x", 1, "y", -(2**70), 2**64 + 1], ["\u00e9\x00\"", 0], ("t", 2**64)]
    for leaf in leaves:
        out = []
        write_canonical(leaf, out.append)
        assert out == [canonical(leaf)[:-1], "\n"]
    # bools, floats, None, empty lists and nesting take the token path
    for obj in (
        [True, 1],
        [1, False],
        [0, None],
        [1.5, 2],
        [[], 1],
        [1, []],
        [[1, "a"], [], ["b", [2, [3]]]],
        {"c": "1", "m": [["w", 5], ["x", 1]], "e": []},
    ):
        assert written(obj) == canonical(obj)


X = GenSym("x", 0, "variable")


@pytest.mark.parametrize(
    "bad",
    [
        X,
        [X],
        ["x", 1, GenSym("d(x)", 0, "variable", dform=True)],
        {"a": GenSym("u", -1, "commutator")},
        {X: 1},
        {"a": 1, GenSym("a", 0, "variable"): 2},
    ],
    ids=["value", "leaf-list", "late-in-leaf-list", "dict-value", "key", "key-among-str"],
)
def test_writer_rejects_a_generator_as_a_string(bad):
    # a GenSym is a str whose raw value is an internal order key, not text
    with pytest.raises(TypeError):
        write_canonical(bad, [].append)


def test_a_generator_value_or_key_writes_nothing():
    for bad in (X, {X: 1}, {"a": 1, GenSym("a", 0, "variable"): 2}):
        out = []
        with pytest.raises(TypeError):
            write_canonical(bad, out.append)
        assert out == []


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


def _terms(tree):
    return [t for terms in tree["differentials"].values() for t in terms]


@pytest.fixture(scope="module")
def chart_tree(presentations):
    return chart_presentation_json(matricize(presentations["fermat"], 2))


def test_chart_report_shares_one_list_per_generator_exponent_pair(chart_tree):
    items = [item for t in _terms(chart_tree) for item in t["m"]]
    assert all(type(item) is list for item in items)
    assert len({id(item) for item in items}) == len({tuple(item) for item in items})


def test_presentation_reports_share_one_string_per_coefficient(presentations, chart_tree):
    free_tree = free_presentation_json(presentations["fermat"])
    for tree in (chart_tree, free_tree):
        coeffs = [t["c"] for t in _terms(tree)]
        assert len({id(c) for c in coeffs}) == len(set(coeffs)) > 1


def test_a_shared_leaf_tree_equals_its_parsed_json(chart_tree):
    text = canonical(chart_tree)
    assert json.loads(text) == chart_tree
    assert written(chart_tree) == text


def test_writer_matches_json_dumps_on_shared_leaves():
    leaf, c = ["x[1,2]", 3], "-5"
    terms = [{"c": c, "m": [leaf, ["y[1]", 1]]}, {"c": c, "m": [leaf]}, {"c": "1", "m": [leaf, leaf]}]
    tree = {"differentials": {"a": terms, "b": terms[1:]}}
    assert written(tree) == canonical(tree)


@pytest.mark.parametrize("path", sorted(MANIFESTS.glob("*.json")), ids=lambda p: p.name)
def test_input_hash_is_the_sha256_of_the_canonical_manifest(path):
    import hashlib

    manifest = load_manifest(str(path))
    blob = json.dumps(manifest.to_json(), sort_keys=True, separators=(",", ":"))
    assert manifest.input_hash() == hashlib.sha256(blob.encode()).hexdigest()
