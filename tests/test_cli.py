import json
import subprocess
import sys
from pathlib import Path

import pytest

from dgquot import AlgebraInput, DgquotError, StructureError, build_resolution, matricize
from dgquot import cli, derham, points, tangent
from dgquot.cli import main, run
from dgquot.serialize import (
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
    assert first.dumps(include_wall_time=False) == second.dumps(include_wall_time=False)
    assert first.dumps(include_wall_time=False) == (GOLDEN / "fermat_report_n1.json").read_text()
    # wall time is the only varying field
    a = first.to_json(include_wall_time=True)
    a.pop("wall_time_s")
    b = first.to_json(include_wall_time=False)
    assert a == b


def test_main_runs_single_task(tmp_path):
    out = tmp_path / "report.json"
    code = main(["h0", "--manifest", str(MANIFESTS / "fermat_n1.json"), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["results"][0]["task"] == "h0"
    assert rep["results"][0]["count"] == 7


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


def _corrupted_pipeline(manifest_name):
    """A pipeline on the manifest whose free differential of the first
    commutator generator has its sign flipped."""
    pipe = cli._Pipeline(load_manifest(str(MANIFESTS / manifest_name)))
    pres = pipe.presentation
    a = pres.commutators[(0, 1)]
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
    a = chart.blocks[chart.source.commutators[(0, 1)].name][0][1]
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
