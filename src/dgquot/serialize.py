"""JSON schemas: manifests in, presentations and reports out.

Scalars travel as exact "num/den" strings (plain integers allowed on
input), polynomials as canonically ordered term lists, so identical inputs
always serialize to identical bytes.

Reports are written by one encoder, write_canonical, whose bytes are
exactly ``json.dumps(obj, indent=2, sort_keys=True)`` plus a trailing
newline.  It exists because CPython 3.11 drops to its pure-Python encoder
whenever ``indent`` is set: that path holds every token of the report in a
list before joining, which set the peak memory and about a third of the time
of writing a whole quintic chart.  write_canonical streams the same tokens
to a ``write`` callable instead.

A presentation report writes each differential as a list of term strings
in canonical order, each the text ``str`` gives that one-term polynomial:
``-5*x[1,1]^4*a[w,x][1,1]``, ``w[1,2]*x[2,1]``, ``1``; a free word term
keeps its letters in word order, ``-a[w,x]*y``.  That is the parser's own
syntax, so with the report's ``generators`` table alone a reader parses
every term back (parser.parse_poly for a chart; a free term splits on
``*``).  One string per term also keeps the text small: a list of strings
is one ``write``, and ``indent=2`` indents each term once, not each
coefficient and ``[name, exponent]`` pair of a nested term object.  The
quintic chart at n = 3 went from 10.1 MB, 83% of it spaces and newlines,
to 1.18 MB, and at n = 4 from 76.6 to 8.5 MB.

A report's input_hash is the sha256 of the manifest's canonical JSON.  The
digest comes from the lean built-in ``_sha256`` module, as the stdlib's
``random`` takes ``_sha512``: ``import hashlib`` loads OpenSSL's libcrypto,
which added 3.6 MiB of resident memory and its start-up time to every
process that imports the package, for one checksum per report.  ``hashlib``
is the fallback where ``_sha256`` is missing; both give the same digest.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional

try:  # hashlib loads OpenSSL; the lean built-in module gives the same digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .algebra import Scalar, _coeff
from .errors import StructureError
from .points import MatrixPoint
from .repify import ChartPresentation
from .resolution import FreePresentation


def scalar_str(value) -> str:
    return str(value)


_SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_scalar(value) -> Scalar:
    if isinstance(value, bool):
        raise StructureError("booleans are not scalars")
    if isinstance(value, int):
        return _coeff(value)
    if isinstance(value, str) and _SCALAR_RE.fullmatch(value.strip()):
        try:
            return _coeff(Fraction(value))
        except ZeroDivisionError:
            raise StructureError(f"zero denominator in scalar {value!r}") from None
    raise StructureError(f"bad scalar literal {value!r} (use 'num/den' strings)")


def gensym_json(g) -> dict:
    out = {"name": g.name, "degree": g.degree, "kind": g.kind}
    if g.dform:
        out["dform"] = True
    return out


def free_presentation_json(pres: FreePresentation) -> dict:
    return {
        "variables": list(pres.source.variables),
        "relations": [str(f) for f in pres.source.relations],
        "ordering": list(pres.ordering),
        "truncation_degree": pres.truncation_degree,
        "generators": [gensym_json(g) for g in pres.generators],
        "differentials": {g.name: pres.diff[g].term_texts() for g in pres.generators},
    }


def chart_presentation_json(chart: ChartPresentation) -> dict:
    return {
        "n": chart.n,
        "variables": list(chart.source.source.variables),
        "relations": [str(f) for f in chart.source.source.relations],
        "generators": [gensym_json(g) for g in chart.generators],
        "differentials": {g.name: chart.diff[g].term_texts() for g in chart.generators},
    }


def matrix_json(mat) -> list:
    return [[scalar_str(x) for x in row] for row in mat]


def point_json(pt: MatrixPoint) -> dict:
    return {
        "matrices": [matrix_json(m) for m in pt.matrices],
        "vector": [scalar_str(x) for x in pt.vector],
    }


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def parse_point(obj) -> MatrixPoint:
    if not isinstance(obj, dict) or "matrices" not in obj or "vector" not in obj:
        raise StructureError("a point needs 'matrices' and 'vector'")
    mats, vec = obj["matrices"], obj["vector"]
    if not (_is_list_of(mats, list) and all(_is_list_of(m, list) for m in mats) and isinstance(vec, list)):
        raise StructureError("a point's 'matrices' must be lists of row lists, its 'vector' a list")
    return MatrixPoint(
        tuple(tuple(tuple(parse_scalar(x) for x in row) for row in m) for m in mats),
        tuple(parse_scalar(x) for x in vec),
    )


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
        return sha256(blob.encode()).hexdigest()


def parse_manifest(obj: dict) -> Manifest:
    if not isinstance(obj, dict):
        raise StructureError("manifest must be a JSON object")
    variables = obj.get("variables")
    if not variables or not _is_list_of(variables, str):
        raise StructureError("manifest 'variables' must be a nonempty list of names")
    relations = obj.get("relations", [])
    if not _is_list_of(relations, str):
        raise StructureError("manifest 'relations' must be a list of polynomial strings")
    n = obj.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise StructureError("manifest 'n' must be a positive integer")
    ordering = obj.get("ordering")
    if ordering is not None:
        if not _is_list_of(ordering, str) or sorted(ordering) != sorted(variables):
            raise StructureError("manifest 'ordering' must be a permutation of variables")
    points = obj.get("points", [])
    if not isinstance(points, list):
        raise StructureError("manifest 'points' must be a list of points")
    points = [parse_point(p) for p in points]
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise StructureError(f"cannot read manifest: {exc}") from None
    except UnicodeDecodeError as exc:
        raise StructureError(f"manifest is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise StructureError(f"manifest is not valid JSON: {exc}") from None
    return parse_manifest(obj)


@dataclass
class Report:
    command: str
    input_hash: str
    results: list = field(default_factory=list)  # {"task":..., "status":..., ...}

    @property
    def ok(self) -> bool:
        return all(r.get("status") == "pass" for r in self.results)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "input_hash": self.input_hash,
            "results": self.results,
            "ok": self.ok,
        }

    def dumps(self) -> str:
        buf = io.StringIO()
        write_canonical(self.to_json(), buf.write)
        return buf.getvalue()


class _Layouts(dict):
    """depth -> ("[", "{", ",", "]", "}") with the layout of that nesting
    depth, built by the first miss on `[]`."""

    def __missing__(self, depth):
        inner = "\n" + "  " * (depth + 1)
        outer = "\n" + "  " * depth
        layout = self[depth] = ("[" + inner, "{" + inner, "," + inner, outer + "]", outer + "}")
        return layout


def write_canonical(obj, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True) + "\n"`` through `write`.

    `obj` is a tree of dicts with str keys, lists, tuples, strs, ints, finite
    floats, bools and None.  Strings and keys must be exactly str: a str
    subclass such as a GenSym, whose raw value is an internal key, raises
    TypeError.  Anything else raises TypeError too (a finite-float check
    raises ValueError) before any of its own bytes are written, rather than
    being written differently.  A list of only str and int items is one
    `write`, and so is each dict key with the separator before it; other
    values are one `write` per token.  The strings that open, separate and
    close a container are built once per nesting level and shared.
    """
    levels = _Layouts()

    def value(o, depth):
        if type(o) is str:
            write(encode_basestring_ascii(o))
        elif isinstance(o, (list, tuple)):
            if not o:
                write("[]")
                return
            open_, _, sep, close, _ = levels[depth]
            texts = []  # the items' JSON while every item is exactly a str or an int
            for item in o:
                t = type(item)
                if t is str:
                    texts.append(encode_basestring_ascii(item))
                elif t is int:
                    texts.append(int.__repr__(item))
                else:
                    break
            else:
                write(open_ + sep.join(texts) + close)
                return
            write(open_)
            for i, item in enumerate(o):
                if i:
                    write(sep)
                value(item, depth + 1)
            write(close)
        elif isinstance(o, dict):
            if not o:
                write("{}")
                return
            keys = sorted(o)
            for k in keys:
                if type(k) is not str:
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
            _, lead, sep, _, close = levels[depth]
            for k in keys:
                write(lead + encode_basestring_ascii(k) + ": ")
                value(o[k], depth + 1)
                lead = sep
            write(close)
        elif o is None:
            write("null")
        elif o is True:
            write("true")
        elif o is False:
            write("false")
        elif isinstance(o, int):
            write(int.__repr__(o))
        elif isinstance(o, float):
            if not math.isfinite(o):
                raise ValueError(f"float {o!r} is not JSON")
            write(float.__repr__(o))
        else:
            raise TypeError(f"object of type {type(o).__name__} is not JSON")

    value(obj, 0)
    write("\n")
