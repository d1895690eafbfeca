import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgquot import GenSym, GradedPoly, NCPoly, cli, matricize, parse_poly
from dgquot.serialize import (
    TASKS,
    Report,
    chart_presentation_json,
    free_presentation_json,
    load_manifest,
    write_canonical,
)
from tests.test_cli import GOLDEN, MANIFESTS, _corrupted_pipeline, canonical


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


@pytest.fixture(scope="module")
def chart_tree(presentations):
    return chart_presentation_json(matricize(presentations["fermat"], 2))


def test_differentials_are_term_strings_written_one_list_per_write(presentations, chart_tree):
    free_tree = free_presentation_json(presentations["fermat"])
    for tree in (chart_tree, free_tree):
        diffs = [terms for _, terms in sorted(tree["differentials"].items())]
        assert all(type(terms) is list and all(type(t) is str for t in terms) for terms in diffs)
        assert sum(map(len, diffs)) > len(diffs)
        writes = []
        write_canonical(tree, writes.append)
        # "differentials" sorts first, so its lists are the first whole lists written
        whole_lists = [json.loads(w) for w in writes if w.startswith("[") and w.endswith("]")]
        assert whole_lists[: len(diffs)] == diffs


def test_a_shared_leaf_tree_equals_its_parsed_json(chart_tree):
    # a report tree is plain JSON, and subtrees shared between reports write
    # as often as they occur
    for tree in (chart_tree, {"a": chart_tree, "b": [chart_tree["differentials"]] * 2}):
        text = canonical(tree)
        assert json.loads(text) == tree
        assert written(tree) == text


def test_writer_matches_json_dumps_on_shared_leaves():
    terms = ["-5*x[1,2]^4*a[w,x][1,1]", "w[1,2]*x[2,1]", "1"]
    tree = {"differentials": {"a": terms, "b": terms, "c": terms[1:], "d": []}, "e": [terms, terms]}
    assert written(tree) == canonical(tree)


def generator_table(presentation: dict) -> list:
    """A presentation report's generators, rebuilt from its own table."""
    return [
        GenSym(g["name"], g["degree"], g["kind"], g.get("dform", False))
        for g in presentation["generators"]
    ]


def parse_word_term(text: str, by_name: dict) -> NCPoly:
    """A free-side term string, ``-2*a[w,x]*y``: an optional sign and
    coefficient, then letters in word order."""
    sign = -1 if text.startswith("-") else 1
    factors = text.lstrip("-").split("*")
    c = Fraction(factors.pop(0)) if factors[0][0].isdigit() else 1
    return NCPoly.word([by_name[f] for f in factors], sign * c)


def parsed_differentials(presentation: dict) -> dict:
    """generator name -> its differential, read back from the term strings
    against the report's own generator table only."""
    gens = generator_table(presentation)
    by_name = {g.name: g for g in gens}
    out = {}
    for name, terms in presentation["differentials"].items():
        if "n" in presentation:  # a chart: graded-commutative terms
            polys = [parse_poly(t, gens) for t in terms]
            assert all(len(p.terms) == 1 for p in polys)
            out[name] = sum(polys, GradedPoly.zero())
        else:
            out[name] = sum((parse_word_term(t, by_name) for t in terms), NCPoly.zero())
    return out


def _presentations(report: dict) -> list:
    return [r["presentation"] for r in report["results"] if "presentation" in r]


@pytest.mark.parametrize(
    "golden, n",
    [
        ("fermat_free.json", None),
        ("fermat_chart_n1.json", 1),
        ("fermat_chart_n2.json", 2),
        ("fermat_report_n1.json", 1),
    ],
)
def test_golden_presentations_parse_back_to_the_live_differentials(presentations, charts, golden, n):
    tree = json.loads((GOLDEN / golden).read_text())
    found = _presentations(tree) if "results" in tree else [tree]
    assert len(found) == (2 if "results" in tree else 1)
    for pres_json in found:
        live = charts["fermat", n] if "n" in pres_json else presentations["fermat"]
        assert sorted(g.name for g in live.generators) == list(pres_json["differentials"])
        assert generator_table(pres_json) == list(live.generators)
        parsed = parsed_differentials(pres_json)
        for g in live.generators:
            assert parsed[g.name] == live.diff[g], g.name
            assert pres_json["differentials"][g.name] == live.diff[g].term_texts()


@pytest.mark.parametrize("n", [1, 2])
def test_h0_strings_parse_back_to_the_chart_differentials(presentations, n):
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    manifest.n = n
    manifest.points = []
    report = cli.run(manifest, ["repify", "h0"]).to_json()
    (pres_json,), h0 = _presentations(report), report["results"][1]
    gens = generator_table(pres_json)
    chart = matricize(presentations["fermat"], n)
    entries = [g for g in gens if g.degree == -1]
    assert h0["count"] == len(entries) == len(h0["generators"])
    for g, text in zip(entries, h0["generators"]):
        assert parse_poly(text, gens) == chart.diff[g]
        # the h0 text is the presentation's term strings, joined
        terms = pres_json["differentials"][g.name]
        assert text == (" + ".join(terms).replace(" + -", " - ") if terms else "0")
    if n == 1:
        golden = json.loads((GOLDEN / "fermat_report_n1.json").read_text())
        assert [r for r in golden["results"] if r["task"] == "h0"] == [h0]


@pytest.mark.parametrize("path", sorted(MANIFESTS.glob("*.json")), ids=lambda p: p.name)
def test_input_hash_is_the_sha256_of_the_canonical_manifest(path):
    import hashlib

    manifest = load_manifest(str(path))
    blob = json.dumps(manifest.to_json(), sort_keys=True, separators=(",", ":"))
    assert manifest.input_hash() == hashlib.sha256(blob.encode()).hexdigest()
