"""JSON schemas: manifests in, presentations and reports out.

Scalars travel as exact "num/den" strings (plain integers allowed on
input), polynomials as canonically ordered term lists, so identical inputs
always serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .algebra import GradedPoly, NCPoly
from .errors import StructureError
from .points import MatrixPoint
from .repify import ChartPresentation
from .resolution import FreePresentation


def scalar_str(value) -> str:
    return str(Fraction(value))


_SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_scalar(value) -> Fraction:
    if isinstance(value, bool):
        raise StructureError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _SCALAR_RE.fullmatch(value.strip()):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise StructureError(f"zero denominator in scalar {value!r}") from None
    raise StructureError(f"bad scalar literal {value!r} (use 'num/den' strings)")


def gensym_json(g) -> dict:
    out = {"name": g.name, "degree": g.degree, "kind": g.kind}
    if g.dform:
        out["dform"] = True
    return out


def poly_json(p: GradedPoly) -> list:
    return [
        {"c": scalar_str(c), "m": [[g.name, e] for g, e in mono]}
        for mono, c in p.sorted_terms()
    ]


def ncpoly_json(p: NCPoly) -> list:
    return [
        {"c": scalar_str(c), "w": [g.name for g in word]}
        for word, c in p.sorted_terms()
    ]


def free_presentation_json(pres: FreePresentation) -> dict:
    return {
        "variables": list(pres.source.variables),
        "relations": [str(f) for f in pres.source.relations],
        "ordering": list(pres.ordering),
        "truncation_degree": pres.truncation_degree,
        "generators": [gensym_json(g) for g in pres.generators],
        "differentials": {g.name: ncpoly_json(pres.diff[g]) for g in pres.generators},
    }


def chart_presentation_json(chart: ChartPresentation) -> dict:
    return {
        "n": chart.n,
        "variables": list(chart.source.source.variables),
        "relations": [str(f) for f in chart.source.source.relations],
        "generators": [gensym_json(g) for g in chart.generators],
        "differentials": {g.name: poly_json(chart.diff[g]) for g in chart.generators},
    }


def matrix_json(mat) -> list:
    return [[scalar_str(x) for x in row] for row in mat]


def point_json(pt: MatrixPoint) -> dict:
    return {
        "matrices": [matrix_json(m) for m in pt.matrices],
        "vector": [scalar_str(x) for x in pt.vector],
    }


def parse_point(obj) -> MatrixPoint:
    if not isinstance(obj, dict) or "matrices" not in obj or "vector" not in obj:
        raise StructureError("a point needs 'matrices' and 'vector'")
    mats = tuple(
        tuple(tuple(parse_scalar(x) for x in row) for row in m) for m in obj["matrices"]
    )
    vec = tuple(parse_scalar(x) for x in obj["vector"])
    return MatrixPoint(mats, vec)


TASKS = ("resolve", "repify", "h0", "stable", "tangent", "form-check", "pair", "selfcheck")


@dataclass
class Manifest:
    variables: list
    relations: list  # polynomial strings
    n: int = 1
    ordering: Optional[list] = None
    points: list = field(default_factory=list)  # MatrixPoint values
    tasks: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "variables": list(self.variables),
            "relations": list(self.relations),
            "n": self.n,
        }
        if self.ordering:
            out["ordering"] = list(self.ordering)
        if self.points:
            out["points"] = [point_json(pt) for pt in self.points]
        if self.tasks:
            out["tasks"] = list(self.tasks)
        return out

    def input_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_manifest(obj: dict) -> Manifest:
    if not isinstance(obj, dict):
        raise StructureError("manifest must be a JSON object")
    variables = obj.get("variables")
    if not isinstance(variables, list) or not variables or not all(isinstance(v, str) for v in variables):
        raise StructureError("manifest 'variables' must be a nonempty list of names")
    relations = obj.get("relations", [])
    if not isinstance(relations, list) or not all(isinstance(r, str) for r in relations):
        raise StructureError("manifest 'relations' must be a list of polynomial strings")
    n = obj.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StructureError("manifest 'n' must be a positive integer")
    ordering = obj.get("ordering")
    if ordering is not None:
        if not isinstance(ordering, list) or sorted(ordering) != sorted(variables):
            raise StructureError("manifest 'ordering' must be a permutation of variables")
    points = [parse_point(p) for p in obj.get("points", [])]
    for pt in points:
        if pt.m != len(variables):
            raise StructureError("point has wrong number of matrices")
        if pt.n != n:
            raise StructureError("point rank does not match manifest n")
    tasks = obj.get("tasks", [])
    if not isinstance(tasks, list) or not all(t in TASKS for t in tasks):
        raise StructureError(f"manifest 'tasks' must be a list drawn from {TASKS}")
    return Manifest(list(variables), list(relations), n, ordering, points, list(tasks))


def load_manifest(path: str) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StructureError(f"manifest is not valid JSON: {exc}") from None
    return parse_manifest(obj)


@dataclass
class Report:
    command: str
    input_hash: str
    results: list = field(default_factory=list)  # {"task":..., "status":..., ...}
    wall_time_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.get("status") == "pass" for r in self.results)

    def to_json(self, include_wall_time: bool = True) -> dict:
        out = {
            "command": self.command,
            "input_hash": self.input_hash,
            "results": self.results,
            "ok": self.ok,
        }
        if include_wall_time:
            out["wall_time_s"] = self.wall_time_s
        return out

    def dumps(self, include_wall_time: bool = True) -> str:
        return json.dumps(self.to_json(include_wall_time), indent=2, sort_keys=True) + "\n"
