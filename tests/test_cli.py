import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dgquot import AlgebraInput, DgquotError, GradedPoly, StructureError, build_resolution, matricize
from dgquot import algebra, cli, derham, points, tangent
from dgquot.cli import main, run
from dgquot.derham import close_check, pairing_at
from dgquot.repify import matrix_image
from dgquot.resolution import Residuals
from dgquot.serialize import (
    TASKS,
    chart_presentation_json,
    free_presentation_json,
    load_manifest,
    parse_manifest,
    parse_point,
    parse_scalar,
    scalar_str,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFESTS = ROOT / "manifests"


def canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_scalar_round_trip():
    from fractions import Fraction

    assert parse_scalar("3") == 3
    assert parse_scalar("-2/3") == Fraction(-2, 3)
    assert parse_scalar(7) == 7
    assert scalar_str(Fraction(-2, 3)) == "-2/3"
    # one scalar rule: an int where the value is integral
    assert [type(parse_scalar(v)) for v in ("3", 7, "4/2", " -6/3 ")] == [int] * 4
    assert type(parse_scalar("-2/4")) is Fraction
    for value in (3, Fraction(3), Fraction(-2, 3)):
        assert parse_scalar(scalar_str(value)) == value
    with pytest.raises(StructureError):
        parse_scalar("1/0")
    with pytest.raises(StructureError):
        parse_scalar("0.5")
    with pytest.raises(StructureError):
        parse_scalar(True)


def test_point_parsing_errors():
    with pytest.raises(StructureError):
        parse_point({"matrices": [[["1"]]]})


def test_manifest_validation():
    good = {"variables": ["x"], "relations": [], "n": 1}
    parse_manifest(good)
    for bad in [
        {},
        {"variables": [], "relations": []},
        {"variables": ["x"], "relations": [], "n": 0},
        {"variables": ["x"], "relations": [], "n": True},  # bool is an int subclass
        {"variables": ["x"], "relations": [], "ordering": ["y"]},
        {"variables": ["x"], "relations": [], "tasks": ["unknown"]},
        {"variables": ["x"], "relations": [], "points": [{"matrices": [[["1"]]], "vector": ["1", "0"]}]},
    ]:
        with pytest.raises(DgquotError):
            parse_manifest(bad)
    # malformed structure is a StructureError, never a raw TypeError
    for bad in [
        {"variables": ["x"], "points": 5},
        {"variables": ["x"], "points": [{"matrices": 5, "vector": ["1"]}]},
        {"variables": ["x"], "points": [{"matrices": [[["1"]]], "vector": 5}]},
        {"variables": ["x"], "points": [{"matrices": [[1]], "vector": ["1"]}]},
        {"variables": ["x"], "ordering": [1, "x"]},
    ]:
        with pytest.raises(StructureError):
            parse_manifest(bad)


def test_golden_free_presentation(fermat_input):
    pres = build_resolution(fermat_input)
    got = canonical(free_presentation_json(pres))
    assert got == (GOLDEN / "fermat_free.json").read_text()


@pytest.mark.parametrize("n", [1, 2])
def test_golden_chart(fermat_presentation, n):
    got = canonical(chart_presentation_json(matricize(fermat_presentation, n)))
    assert got == (GOLDEN / f"fermat_chart_n{n}.json").read_text()


def test_repify_after_a_partial_read_sees_the_whole_chart():
    manifest = load_manifest(str(MANIFESTS / "fermat_n2.json"))
    h0, repify = run(manifest, ["h0", "repify"]).results
    assert h0["status"] == repify["status"] == "pass"
    got = canonical(repify["presentation"])
    assert got == (GOLDEN / "fermat_chart_n2.json").read_text()


def test_report_deterministic_and_matches_golden():
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    first = run(manifest, manifest.tasks, command="run")
    second = run(manifest, manifest.tasks, command="run")
    assert first.dumps() == second.dumps()
    assert first.dumps() == (GOLDEN / "fermat_report_n1.json").read_text()


def test_main_run_writes_the_golden_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "--manifest", str(MANIFESTS / "fermat_n1.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "fermat_report_n1.json").read_bytes()


def test_main_runs_single_task(tmp_path):
    out = tmp_path / "report.json"
    code = main(["h0", "--manifest", str(MANIFESTS / "fermat_n1.json"), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["results"][0]["task"] == "h0"
    assert rep["results"][0]["count"] == 7


def test_main_streams_the_canonical_report(tmp_path, capsys):
    path = MANIFESTS / "fermat_n2.json"
    want = run(load_manifest(str(path)), ["repify"]).to_json()["results"]
    out = tmp_path / "report.json"
    assert main(["repify", "--manifest", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == "repify: pass\n"
    text = out.read_text()
    assert text.endswith("}\n")
    rep = json.loads(text)
    assert rep["results"] == want
    assert text == canonical(rep)

    assert main(["repify", "--manifest", str(path)]) == 0
    status, text = capsys.readouterr().out.split("\n", 1)
    assert status == "repify: pass"
    assert text.endswith("}\n")
    rep = json.loads(text)
    assert rep["results"] == want
    assert text == canonical(rep)


def test_main_n_override(tmp_path):
    out = tmp_path / "report.json"
    code = main(["h0", "--manifest", str(MANIFESTS / "fermat_n1.json"), "--n", "2", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"][0]["count"] == 28  # 7 blocks of 2x2 entries


def test_main_ordering_override(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "resolve",
        "--manifest", str(MANIFESTS / "fermat_n1.json"),
        "--ordering", "z,y,x,w",
        "--out", str(out),
    ])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"][0]["presentation"]["ordering"] == ["z", "y", "x", "w"]


def test_main_rejects_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["h0", "--manifest", str(bad)]) == 2
    good = MANIFESTS / "fermat_n1.json"
    assert main(["h0", "--manifest", str(good), "--ordering", "a,b,c,d"]) == 2
    assert main(["h0", "--manifest", str(good), "--n", "0"]) == 2
    bad.write_text(json.dumps({"variables": ["x"], "points": [{"matrices": [[1]], "vector": ["1"]}]}))
    assert main(["h0", "--manifest", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    # malformed content is caught before any task runs: no report, exit 2
    for variables, relations in ((["x", "1y"], []), (["x"], ["x^2 + q"]), (["x"], ["x - x"])):
        bad.write_text(json.dumps({"variables": variables, "relations": relations, "tasks": ["h0"]}))
        assert main(["run", "--manifest", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def test_main_rejects_an_indexed_name_in_a_relation(tmp_path, capsys):
    # chart names parse only against a chart's table, never as manifest variables
    bad = tmp_path / "indexed.json"
    bad.write_text(json.dumps({"variables": ["x"], "relations": ["x[1] - 1"], "tasks": ["h0"]}))
    assert main(["run", "--manifest", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "'x[1]'" in err


def test_main_rejects_missing_manifest(tmp_path, capsys):
    assert main(["h0", "--manifest", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read manifest")


def test_main_rejects_non_utf8_manifest(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"variables": ["\u00e9"], "relations": []}'.encode("latin-1"))
    with pytest.raises(StructureError, match="not UTF-8"):
        load_manifest(str(bad))
    assert main(["h0", "--manifest", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: manifest is not UTF-8")


def test_main_rejects_an_unwritable_out_path_before_any_task(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "absent" / "r.json"
    assert main(["h0", "--manifest", str(MANIFESTS / "fermat_n1.json"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot write report: ")
    assert "Traceback" not in captured.err
    assert calls == [] and not out.exists()


def test_main_failing_task_exits_nonzero(tmp_path):
    manifest = {
        "variables": ["x", "y"],
        "relations": [],
        "n": 2,
        "points": [
            {
                "matrices": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]],
                "vector": ["1", "0"],
            }
        ],
        "tasks": ["tangent"],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "r.json"
    code = main(["tangent", "--manifest", str(path), "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["ok"] is False
    assert rep["results"][0]["points"][0]["classical"] is False


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "dgquot", "stable",
         "--manifest", str(MANIFESTS / "affine3_n2.json"), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "stable: pass" in proc.stdout
    rep = json.loads(out.read_text())
    assert rep["results"][0]["points"][0]["stable"] is True


@pytest.mark.skipif(
    importlib.util.find_spec("_sha256") is None,
    reason="no lean built-in sha256 module",
)
def test_a_run_loads_no_openssl():
    code = (
        "import sys\n"
        "from dgquot import cli\n"
        "from dgquot.serialize import load_manifest\n"
        f"manifest = load_manifest({str(MANIFESTS / 'fermat_n1.json')!r})\n"
        "report = cli.run(manifest, manifest.tasks)\n"
        "report.dumps()\n"
        "print(report.ok, '_hashlib' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_public_names_resolve():
    import dgquot

    assert [name for name in dgquot.__all__ if not hasattr(dgquot, name)] == []


def test_selfcheck_task():
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    report = run(manifest, ["selfcheck"], command="selfcheck")
    assert report.ok
    checks = report.results[0]["checks"]
    assert checks["free_d_squared"] and checks["derham_axioms"]
    assert checks["form_closure_n1"] and checks["form_closure_n2"]
    assert checks["form_invariance_n2"]


@pytest.mark.parametrize("name", ["affine3_n2", "fermat_n1"])
def test_derham_axioms_catch_a_sign_error_on_two_odd_factors(name, monkeypatch):
    """A kernel whose Koszul sign is wrong when both merged monomials are odd
    fails selfcheck's de Rham axioms; the true kernel passes them."""
    manifest = load_manifest(str(MANIFESTS / f"{name}.json"))
    assert run(manifest, ["selfcheck"]).results[0]["checks"]["derham_axioms"]
    merge = algebra.mono_mul

    def odd(m):
        return sum(g.parity * e for g, e in m) % 2

    def flipped(a, b):
        sign, m = merge(a, b)
        return (-sign if odd(a) and odd(b) else sign), m

    monkeypatch.setattr(algebra, "mono_mul", flipped)
    result = run(manifest, ["selfcheck"]).results[0]
    assert result["status"] == "fail" and not result["checks"]["derham_axioms"]


def test_form_tasks_build_the_quintic_form_once_per_rank(monkeypatch):
    """form-check, pair and selfcheck share one phi and one omega per
    DeRhamAlgebra: matrix_image, which only build_phi calls, runs once at
    each of the ranks 1 and 2, and pair reads the omega form-check built."""
    images, closed, paired = [], [], []

    def counted(*args):
        images.append(args[1])
        return matrix_image(*args)

    monkeypatch.setattr(derham, "matrix_image", counted)
    monkeypatch.setattr(cli, "close_check", lambda dr, om: closed.append(om) or close_check(dr, om))
    monkeypatch.setattr(cli, "pairing_at", lambda dr, om, pt: paired.append(om) or pairing_at(dr, om, pt))
    manifest = load_manifest(str(MANIFESTS / "fermat_n2.json"))
    report = run(manifest, ["form-check", "pair", "selfcheck"])
    assert report.ok
    assert sorted(images) == [1, 2]
    # closure runs at n = 2 (form-check), then n = 1 and n = 2 (selfcheck)
    assert len(closed) == 3 and len(paired) == 1
    assert paired[0] is closed[0] and closed[2] is closed[0]


@pytest.mark.extended
def test_selfcheck_checks_closure_at_every_chart_rank(monkeypatch):
    # about 4 s, about 2 s of it the de Rham axioms on the rank-3 chart; chart d^2
    # is stubbed, since test_criterion_1_d_squared checks it at rank 3
    monkeypatch.setattr(cli, "check_chart_d_squared", lambda chart: Residuals())
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    manifest.n, manifest.points = 3, []
    checks = run(manifest, ["selfcheck"], command="selfcheck").results[0]["checks"]
    for n in (1, 2, 3):
        assert checks[f"chart_d_squared_n{n}"] and checks[f"form_closure_n{n}"]
    assert all(checks.values())


def test_run_requires_tasks(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"variables": ["x"], "relations": []}))
    assert main(["run", "--manifest", str(path)]) == 2
    # but a named subcommand works without manifest tasks
    out = tmp_path / "r.json"
    assert main(["resolve", "--manifest", str(path), "--out", str(out)]) == 0


def test_tangent_task_tests_each_point_once(monkeypatch):
    manifest = load_manifest(str(MANIFESTS / "affine3_n2.json"))
    calls = {"is_classical_point": 0, "is_stable": 0}

    def counting(name):
        real = getattr(points, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        for module in (cli, tangent):
            monkeypatch.setattr(module, name, counting(name))
    report = run(manifest, ["tangent"], command="tangent")
    assert report.ok and report.results[0]["points"][0]["oracle_checks"]
    assert calls == {"is_classical_point": len(manifest.points), "is_stable": len(manifest.points)}


def test_pair_task_tests_each_point_once(monkeypatch):
    manifest = load_manifest(str(MANIFESTS / "fermat_n2.json"))
    calls = []
    real = points.is_classical_point

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, derham):
        monkeypatch.setattr(module, "is_classical_point", counting)
    report = run(manifest, ["pair"], command="pair")
    assert report.ok and len(manifest.points) == len(report.results[0]["points"]) > 0
    assert len(calls) == len(manifest.points)


@pytest.mark.parametrize(
    "stem, tasks",
    [("fermat_n1", ["stable", "tangent", "pair"]), ("affine3_n2", ["stable", "tangent", "selfcheck"])],
)
def test_point_tasks_share_one_test_of_each_point(monkeypatch, stem, tasks):
    # every task reads the point's one classical test and one stability test,
    # a non-classical point included: E[1,n] and E[n,1] in turn, which do not
    # commute at n = 2 and miss the quintic at n = 1
    manifest = load_manifest(str(MANIFESTS / f"{stem}.json"))
    n = manifest.n
    units = [[[str(int((i, j) == corner)) for j in range(n)] for i in range(n)] for corner in ((0, n - 1), (n - 1, 0))]
    off = [units[k % 2] for k in range(len(manifest.variables))]
    manifest.points = [*manifest.points, parse_point({"matrices": off, "vector": ["1"] * n})]
    calls = {"is_classical_point": 0, "is_stable": 0}

    def counting(name):
        real = getattr(points, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name, modules in (("is_classical_point", (cli, tangent, derham)), ("is_stable", (cli, tangent))):
        for module in modules:
            monkeypatch.setattr(module, name, counting(name))
    results = run(manifest, tasks).results
    stable = results[0]["points"]
    assert [row["classical"] for row in stable] == [True, False]
    assert results[1]["points"][1]["classical"] is False
    assert calls == {"is_classical_point": 2, "is_stable": 2}


@pytest.mark.parametrize("tasks", [["stable", "pair"], ["stable", "tangent"], ["tangent", "selfcheck"]])
def test_point_tests_keep_no_word_products_past_the_tangent_task(monkeypatch, tasks):
    # a run without the tangent task drops each point's word products after
    # its classical test, and the tangent task takes them
    made = []

    class Recorded(points.PointTests):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cli, "PointTests", Recorded)
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    assert run(manifest, tasks).ok
    assert len(made) == len(manifest.points) and all(tests._product is None for tests in made)


def test_point_tasks_name_a_missing_point_list():
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    manifest.points = []
    results = run(manifest, ["stable", "tangent", "pair"]).results
    assert [r["task"] for r in results] == ["stable", "tangent", "pair"]
    for result in results:
        assert result["status"] == "fail" and result["points"] == []
        assert result["error"] == "no points in manifest"


def test_point_tasks_with_a_classical_and_a_non_classical_point():
    manifest = load_manifest(str(MANIFESTS / "fermat_n1.json"))
    tasks = ["stable", "tangent", "pair"]
    alone = run(manifest, tasks).results
    manifest.points = [manifest.points[0], parse_point({"matrices": [[["1"]]] * 4, "vector": ["1"]})]
    mixed = run(manifest, tasks).results
    witness = "w[1,1]^5 + x[1,1]^5 + y[1,1]^5 + z[1,1]^5 + 1"
    stable, tangent_result, pair = mixed
    # the classical point's row is the one it gets on its own
    for result, single in zip(mixed, alone):
        assert single["status"] == "pass" and result["points"][0] == single["points"][0]
    assert stable["status"] == "pass"
    assert stable["points"][1] == {"point": 1, "classical": False, "witness": witness, "stable": True}
    assert tangent_result["points"][0]["h2_upper"] == 5 and pair["points"][0]["rank"] == 3
    for result in (tangent_result, pair):
        assert result["status"] == "fail"
        assert result["points"][1] == {"point": 1, "classical": False, "witness": witness}


def test_every_manifest_task_has_a_runner_and_a_subcommand(capsys):
    assert set(cli._TASKS) == set(TASKS)
    with pytest.raises(SystemExit):
        main(["--help"])
    choices = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1)
    assert sorted(choices.split(",")) == sorted([*TASKS, "run"])


def _corrupted_pipeline(manifest_name):
    """A pipeline on the manifest whose free differential of the first
    commutator generator has its sign flipped."""
    pipe = cli._Pipeline(load_manifest(str(MANIFESTS / manifest_name)))
    pres = pipe.presentation
    a = pres.koszul[(0, 1)]
    pres.diff[a] = -pres.diff[a]
    return pipe


def test_failed_checks_show_leading_residual_terms():
    for task in (cli._task_resolve, cli._task_repify):
        result = task(_corrupted_pipeline("affine3_n2.json"))
        assert result["status"] == "fail" and result["failures"]
        assert sorted(result["residuals"]) == sorted(result["failures"])
        assert all(1 <= len(terms) <= 3 for terms in result["residuals"].values())
        assert all(isinstance(t, str) and t != "0" for terms in result["residuals"].values() for t in terms)

    pipe = cli._Pipeline(load_manifest(str(MANIFESTS / "fermat_n2.json")))
    chart = pipe.chart()
    a = chart.blocks[chart.source.koszul[(0, 1)].name][0][1]
    chart.diff[a] = -chart.diff[a]
    result = cli._task_form_check(pipe)
    assert result["status"] == "fail" and not result["dint_omega0_zero"]
    assert 1 <= len(result["dint_omega0_residual"]) <= 3
    assert "ddr_omega0_residual" not in result

    # passing reports carry no witness keys
    for task in (cli._task_resolve, cli._task_repify, cli._task_form_check):
        result = task(cli._Pipeline(load_manifest(str(MANIFESTS / "fermat_n1.json"))))
        assert result["status"] == "pass"
        assert not {"residuals", "dint_omega0_residual", "ddr_omega0_residual"} & set(result)


def test_form_check_on_a_form_that_is_not_closed(monkeypatch):
    # exactly the failing residuals read false and show their leading terms
    pipe = cli._Pipeline(load_manifest(str(MANIFESTS / "fermat_n1.json")))
    dr = pipe.derham()
    x, y = dr.chart.blocks["x"][0][0], dr.chart.blocks["y"][0][0]
    not_closed = derham.omega0(dr) + GradedPoly.monomial([(x, 1), (dr.delta[y], 1)], 1)
    monkeypatch.setattr(cli, "omega0", lambda dr: not_closed)
    result = cli._task_form_check(pipe)
    failing = [key for key, _ in close_check(dr, not_closed).failures()]
    assert result["status"] == "fail" and failing == ["ddr"]
    for key in ("dint", "ddr"):
        assert result[f"{key}_omega0_zero"] is (key not in failing)
        assert (f"{key}_omega0_residual" in result) is (key in failing)
    assert 1 <= len(result["ddr_omega0_residual"]) <= 3
