"""Seeded inputs and independent reference checks for the dgquot benchmark.

A workload is a list of items.  Each item is one manifest, in the JSON
schema that `dgquot.serialize.parse_manifest` reads, plus the task list the
benchmark passes to `dgquot.cli.run`.  The seed picks only the support
points; everything else is fixed so that run-to-run cost stays flat.

The references below are derived here from the mathematics, never from
dgquot itself: the generated coordinates are checked against the relations
in exact arithmetic, expected tangent dimensions come from the smooth-point
Koszul count, and the chart-export presentations are compared with the
committed goldens.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"
GOLDEN = ROOT / "tests" / "golden"

QUINTIC = ("w^5 + x^5 + y^5 + z^5 + 1",)
SPHERE = ("x^2 + y^2 + z^2 - 1",)
WXYZ = ["w", "x", "y", "z"]
XYZ = ["x", "y", "z"]

WORKLOADS = ("quintic-form", "tangent-sweep", "chart-export")


@dataclass
class Item:
    name: str
    manifest: dict  # JSON object as a manifest file would hold it
    tasks: list
    # what the references need to know about how the item was generated
    kind: str = ""  # "quintic", "affine3", "sphere" or "shipped"
    n: int = 1


def _quintic(p) -> Fraction:
    return sum(Fraction(c) ** 5 for c in p) + 1


def _sphere(p) -> Fraction:
    return sum(Fraction(c) ** 2 for c in p) - 1


def diag_manifest(variables, relations, coords, tasks) -> dict:
    """Manifest of one point: diagonal matrices over n coordinate tuples,
    framing vector all ones.  With distinct tuples the point is stable (the
    Krylov space of the ones vector is a Vandermonde span)."""
    n = len(coords)
    matrices = [
        [[str(coords[d][i]) if d == e else "0" for e in range(n)] for d in range(n)]
        for i in range(len(variables))
    ]
    return {
        "variables": list(variables),
        "relations": list(relations),
        "n": n,
        "points": [{"matrices": matrices, "vector": ["1"] * n}],
        "tasks": list(tasks),
    }


def quintic_points(rng: random.Random, n: int) -> list:
    """n distinct points of w^5+x^5+y^5+z^5+1 = 0, each a coordinate
    permutation of (a, -a, -1, 0) with a small positive integer a."""
    out = []
    while len(out) < n:
        a = rng.randint(1, 3)
        p = tuple(rng.sample([a, -a, -1, 0], 4))
        if p not in out:
            out.append(p)
    return out


# Coordinate magnitudes of the A^3 points, one triple per slot.  No two are
# equal, so the points stay distinct under any signs.
AFFINE_BASE = ((1, 2, 3), (0, 1, 4), (2, 2, 3), (3, 0, 4), (1, 1, 2))


def affine_points(rng: random.Random, n: int) -> list:
    """n distinct integer points of A^3 with entries in [-4, 4]: the first n
    magnitude triples of AFFINE_BASE under one seeded permutation of the
    coordinates and a seeded sign per entry.  Signs and a common permutation
    keep the size of every entry and of every coordinate matrix's
    determinant, so the cost of a point is the same for every seed."""
    perm = rng.sample(range(3), 3)
    return [
        tuple(rng.choice((1, -1)) * base[perm[i]] for i in range(3))
        for base in AFFINE_BASE[:n]
    ]


def large_affine_points(rng: random.Random) -> list:
    """Two A^3 points with entries near 10^6, drawn from a narrow window so
    that support-detection cost (which grows with the square root of the
    charpoly constant term) stays nearly the same for every seed.  They
    differ in the first coordinate only."""
    base = tuple(10**6 + rng.randint(0, 99) for _ in range(3))
    return [base, (base[0] + rng.randint(1, 9),) + base[1:]]


# Stereographic parameters (s, u) of the sphere points, one pair per slot;
# no two agree up to signs, so the points stay distinct under any signs.
SPHERE_BASE = ((1, 1), (2, 1), (1, 0), (2, 0), (2, 2))


def sphere_points(rng: random.Random, n: int) -> list:
    """n distinct rational points of x^2+y^2+z^2 = 1 from the inverse
    stereographic projection of the first n pairs of SPHERE_BASE, with
    (s, u) swapped or not for the whole point set and a seeded sign on each
    parameter.  That keeps every numerator and denominator, so the cost of a
    point is the same for every seed."""
    swap = rng.random() < 0.5
    out = []
    for s, u in SPHERE_BASE[:n]:
        if swap:
            s, u = u, s
        s, u = rng.choice((1, -1)) * s, rng.choice((1, -1)) * u
        den = 1 + s * s + u * u
        out.append((Fraction(2 * s, den), Fraction(2 * u, den), Fraction(s * s + u * u - 1, den)))
    return out


def build(workload: str, seed: int) -> list:
    """The items of one workload, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "quintic-form":
        tasks = ["form-check", "pair"]
        return [
            Item(f"quintic-n{n}", diag_manifest(WXYZ, QUINTIC, quintic_points(rng, n), tasks),
                 tasks, "quintic", n)
            for n in (1, 2, 3)
        ]
    if workload == "tangent-sweep":
        tasks = ["stable", "tangent"]
        items = []
        for n in (2, 3, 4, 5):
            items.append(Item(f"affine3-n{n}", diag_manifest(XYZ, (), affine_points(rng, n), tasks),
                              tasks, "affine3", n))
            # the sphere at n = 5 takes twice as long as the rest of the pass,
            # which would leave too few passes in a run for a steady median
            if n < 5:
                items.append(Item(f"sphere-n{n}", diag_manifest(XYZ, SPHERE, sphere_points(rng, n), tasks),
                                  tasks, "sphere", n))
        items.insert(1, Item("affine3-n2-large",
                             diag_manifest(XYZ, (), large_affine_points(rng), tasks),
                             tasks, "affine3", 2))
        return items
    if workload == "chart-export":
        items = []
        for name in ("fermat_n1", "fermat_n2", "affine3_n2", "sphere_n2"):
            obj = json.loads((MANIFESTS / f"{name}.json").read_text(encoding="utf-8"))
            items.append(Item(name, obj, list(obj["tasks"]), "shipped", obj["n"]))
        tasks = ["resolve", "repify", "h0"]
        items.append(Item("quintic-n3",
                          {"variables": WXYZ, "relations": list(QUINTIC), "n": 3, "tasks": tasks},
                          tasks, "quintic", 3))
        return items
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def point_coords(manifest: dict) -> list:
    """Coordinate tuples of the single diagonal point of a manifest."""
    mats = manifest["points"][0]["matrices"]
    n = manifest["n"]
    return [tuple(Fraction(m[d][d]) for m in mats) for d in range(n)]


def validate_inputs(items) -> list:
    """Problems with generated points: each must satisfy the relations
    exactly, and the n tuples of a point must be distinct."""
    problems = []
    for item in items:
        if not item.manifest.get("points"):
            continue
        coords = point_coords(item.manifest)
        if len(set(coords)) != len(coords):
            problems.append(f"{item.name}: support points are not distinct")
        rel = {"quintic": _quintic, "sphere": _sphere}.get(item.kind)
        for p in coords:
            if rel is not None and rel(p) != 0:
                problems.append(f"{item.name}: {p} violates the relation")
    return problems


# ---------------------------------------------------------------- references


def canonical(obj) -> str:
    """The encoding the test suite compares goldens with."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def first_difference(got, want, path="$"):
    """Path and values of the first place two JSON values differ, or None."""
    if type(got) is not type(want):
        return path, got, want
    if isinstance(got, dict):
        for key in sorted(set(got) | set(want)):
            if key not in got or key not in want:
                return f"{path}.{key}", got.get(key, "<missing>"), want.get(key, "<missing>")
            diff = first_difference(got[key], want[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(got, list):
        for k, (a, b) in enumerate(itertools.zip_longest(got, want, fillvalue="<missing>")):
            diff = first_difference(a, b, f"{path}[{k}]")
            if diff:
                return diff
        return None
    return None if got == want else (path, got, want)


def smooth_point_dims(n: int, m: int, r: int) -> tuple:
    """(h0, h1) at n distinct smooth points of a codimension-r complete
    intersection in A^m: the gauge n^2 plus n copies of the Koszul count
    on d = m - r local parameters, C(d,1) and C(d,2)."""
    d = m - r
    return n * n + n * comb(d, 1), n * comb(d, 2)


class Checker:
    """Counts reference checks and records the first failures."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list = []

    def expect(self, item: str, task: str, field: str, got, want) -> bool:
        self.attempted += 1
        if got == want:
            return True
        self.failures.append(
            f"FAIL {self.workload} {item} {task} {field}: got {got!r}, want {want!r}"
        )
        return False

    @property
    def failed(self) -> int:
        return len(self.failures)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def check_report(checker: Checker, item: Item, report: dict, goldens: dict) -> None:
    """Check one dumped report against the references for its item."""
    name = item.name
    results = {r["task"]: r for r in report["results"]}
    checker.expect(name, "-", "tasks", sorted(results), sorted(item.tasks))
    for task in item.tasks:
        res = results.get(task, {})
        if not checker.expect(name, task, "status", res.get("status"), "pass"):
            continue
        if task == "form-check":
            checker.expect(name, task, "n", res["n"], item.n)
            checker.expect(name, task, "dint_omega0_zero", res["dint_omega0_zero"], True)
            checker.expect(name, task, "ddr_omega0_zero", res["ddr_omega0_zero"], True)
        elif task in ("pair", "stable"):
            for row in res["points"]:
                checker.expect(name, task, f"points[{row['point']}].classical", row["classical"], True)
                if task == "stable":
                    checker.expect(name, task, f"points[{row['point']}].stable", row["stable"], True)
        elif task == "tangent" and item.kind in ("affine3", "sphere"):
            r = 0 if item.kind == "affine3" else 1
            h0, h1 = smooth_point_dims(item.n, 3, r)
            for row in res["points"]:
                k = row["point"]
                checker.expect(name, task, f"points[{k}].h0", row.get("h0"), h0)
                checker.expect(name, task, f"points[{k}].h1", row.get("h1"), h1)
                if item.kind == "affine3":
                    checker.expect(name, task, f"points[{k}].oracle_present", row.get("oracle") is not None, True)
                    checker.expect(name, task, f"points[{k}].oracle_checks",
                                   all((row.get("oracle_checks") or {"none": False}).values()), True)
        elif task == "h0" and item.kind == "quintic":
            # one degree -1 block per commutator pair and per relation
            checker.expect(name, task, "count", res["count"], (comb(4, 2) + 1) * item.n ** 2)
        elif task in ("resolve", "repify"):
            checker.expect(name, task, "d_squared_zero", res["d_squared_zero"], True)
            golden = goldens.get((name, task))
            if golden is not None:
                got = canonical(res["presentation"])
                if not checker.expect(name, task, "presentation_bytes", got == golden, True):
                    diff = first_difference(res["presentation"], json.loads(golden))
                    if diff:
                        checker.failures[-1] += f" (first difference at {diff[0]}: {diff[1]!r} vs {diff[2]!r})"


def goldens_for(workload: str) -> dict:
    """(item, task) -> golden text, read once per run; the goldens are never written."""
    if workload != "chart-export":
        return {}
    return {
        ("fermat_n1", "resolve"): _golden("fermat_free.json"),
        ("fermat_n2", "resolve"): _golden("fermat_free.json"),
        ("fermat_n1", "repify"): _golden("fermat_chart_n1.json"),
        ("fermat_n2", "repify"): _golden("fermat_chart_n2.json"),
    }


def timing_fields(obj) -> int:
    """Wall-clock fields anywhere inside task results."""
    if isinstance(obj, dict):
        own = sum(1 for k in obj if k == "seconds" or k.endswith(("_s", "_seconds")))
        return own + sum(timing_fields(v) for v in obj.values())
    if isinstance(obj, list):
        return sum(timing_fields(v) for v in obj)
    return 0


def unchecked_points(report: dict) -> int:
    """Tangent rows that pass with no oracle behind them."""
    return sum(
        1
        for r in report["results"]
        if r["task"] == "tangent" and r["status"] == "pass"
        for row in r["points"]
        if row.get("classical") and row.get("oracle") is None
    )
