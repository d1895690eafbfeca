"""Exact arithmetic for graded-commutative and free associative polynomials.

Coefficients are exact rationals (fractions.Fraction).  Generators carry an
internal degree <= 0 and a Koszul parity; odd generators anticommute and
square to zero.  Both polynomial layers are sparse term maps, key -> nonzero
rational, on one private base class that owns canonical construction, the
linear operations, equality and printing.  They differ only in the key:

* GradedPoly  -- graded-commutative; a key is a monomial kept in a single
  canonical generator order, and products merge monomials with the Koszul
  reordering sign (mono_mul);
* NCPoly      -- free associative; a key is a word, never reordered, and
  products concatenate words.

Every differential in the package is a derivation extended from generator
images by the graded Leibniz rule (extend_derivation).  Each image term is
spliced into the input key in place: a word splice on the free layer, and
two monomial merges left * image * right, with their Koszul signs, on the
graded layer.  No intermediate polynomial is built per term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import StructureError

Scalar = Fraction
ScalarLike = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GenSym:
    """A named generator with internal degree, kind tag and form flag.

    ``dform`` marks the de Rham symbol attached to a base generator; it
    shifts the Koszul parity by one while keeping the internal degree.
    Equality and hashing are by (name, degree, kind, dform), so rebuilding
    the same presentation yields interchangeable generators.
    """

    __slots__ = ("name", "degree", "kind", "dform", "parity", "sort_key", "_hash")

    def __init__(self, name: str, degree: int, kind: str, dform: bool = False):
        if degree > 0:
            raise StructureError(f"generator {name!r} has positive degree {degree}")
        self.name = name
        self.degree = degree
        self.kind = kind
        self.dform = dform
        self.parity = (degree + (1 if dform else 0)) % 2
        # internal degree descending, plain before de Rham, then kind, then name
        self.sort_key = (-degree, 1 if dform else 0, kind, name)
        self._hash = hash((name, degree, kind, dform))

    def __eq__(self, other):
        return (
            isinstance(other, GenSym)
            and self.name == other.name
            and self.degree == other.degree
            and self.kind == other.kind
            and self.dform == other.dform
        )

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "GenSym"):
        return self.sort_key < other.sort_key

    def __repr__(self):
        return f"GenSym({self.name!r}, {self.degree}, {self.kind!r}{', dform' if self.dform else ''})"

    def __str__(self):
        return self.name


# A monomial is a tuple of (GenSym, exponent) pairs sorted by sort_key,
# exponents positive, odd generators never squared.
Monomial = tuple


def make_monomial(pairs: Iterable[tuple]) -> Monomial:
    """Canonicalize (generator, exponent) pairs into a monomial.

    Returns None when an odd generator appears squared (the monomial is 0).
    """
    merged: dict = {}
    for g, e in pairs:
        if e < 0:
            raise StructureError(f"negative exponent on {g.name}")
        if e == 0:
            continue
        merged[g] = merged.get(g, 0) + e
    for g, e in merged.items():
        if g.parity and e > 1:
            return None
    items = sorted(merged.items(), key=lambda ge: ge[0].sort_key)
    names = {}
    for g, _ in items:
        prev = names.get(g.name)
        if prev is not None and prev != g:
            raise StructureError(f"two distinct generators named {g.name!r} in one monomial")
        names[g.name] = g
    return tuple(items)


def mono_mul(a: Monomial, b: Monomial):
    """Merge two canonical monomials; return (sign, monomial) or (0, None)."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    # suffix[i] = parity of the product of a[i:], for the crossing sign
    la = len(a)
    suffix = [0] * (la + 1)
    for k in range(la - 1, -1, -1):
        g, e = a[k]
        suffix[k] = (suffix[k + 1] + g.parity * e) % 2
    sign = 0
    out = []
    i = j = 0
    lb = len(b)
    while i < la and j < lb:
        ga, ea = a[i]
        gb, eb = b[j]
        ka, kb = ga.sort_key, gb.sort_key
        if ka < kb:
            out.append(a[i])
            i += 1
        elif ka > kb:
            sign ^= gb.parity * eb * suffix[i] & 1
            out.append(b[j])
            j += 1
        else:
            if ga.parity:
                return 0, None
            out.append((ga, ea + eb))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if sign else 1), tuple(out)


def mono_internal_degree(m: Monomial) -> int:
    return sum(g.degree * e for g, e in m)


def mono_form_degree(m: Monomial) -> int:
    return sum(e for g, e in m if g.dform)


def mono_grade(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_print_key(m: Monomial):
    # descending graded-lex: higher total exponent first, then earlier
    # generators with higher exponents first
    return (-mono_grade(m), tuple((g.sort_key, -e) for g, e in m))


def _coeff(c: ScalarLike) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _homogeneous(degs: set, what: str):
    """The single degree in degs, None when empty; raise when mixed."""
    if not degs:
        return None
    if len(degs) > 1:
        raise StructureError(f"inhomogeneous {what} degrees {sorted(degs)}")
    return degs.pop()


class _TermMap:
    """Finite map from keys to nonzero rationals, with the linear operations.

    Subclasses fix the key type through three hooks: ``_canon`` turns a
    caller-supplied key into canonical form (None when it is zero),
    ``_print_key`` orders keys for printing, and ``_factors`` names a key's
    factors.  Results of the linear operations keep the operand's class.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping = (), _raw: bool = False):
        """Canonicalize ``terms``.  A ``_raw`` caller hands over a fresh,
        canonical dict (canonical keys, nonzero coefficients) that nothing
        else holds; it becomes ``.terms`` as is, without a copy."""
        if _raw:
            self.terms = terms
            return
        acc: dict = {}
        for k, c in dict(terms).items():
            c = _coeff(c)
            if not c:
                continue
            k = self._canon(k)
            if k is None:
                continue
            s = acc.get(k, _ZERO) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        self.terms = acc

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls):
        return cls({}, _raw=True)

    @classmethod
    def const(cls, c: ScalarLike):
        c = _coeff(c)
        return cls({(): c} if c else {}, _raw=True)

    # -- structure ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _coerce(self, other):
        """other as a polynomial of this class, or None if it cannot be."""
        if isinstance(other, (int, Fraction)):
            return self.const(other)
        return other if isinstance(other, type(self)) else None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def normalize(self):
        """Rebuild the canonical form (idempotent by construction)."""
        return type(self)(self.terms)

    def constant(self) -> Fraction:
        """The value of a constant polynomial."""
        if not self.terms:
            return _ZERO
        if set(self.terms) != {()}:
            raise StructureError("polynomial is not constant")
        return self.terms[()]

    # -- linear operations -------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms.items():
            s = acc.get(k, _ZERO) + c
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
        return type(self)(acc, _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, _raw=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: ScalarLike):
        c = _coeff(c)
        if not c:
            return self.zero()
        return type(self)({k: c * v for k, v in self.terms.items()}, _raw=True)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    # -- printing ----------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kc: self._print_key(kc[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for k, c in self.sorted_terms():
            factors = self._factors(k)
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            chunks.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(chunks)
        return "-" + text[2:] if text.startswith("- ") else text[2:]

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class GradedPoly(_TermMap):
    """Graded-commutative polynomial: finite map from monomials to rationals."""

    __slots__ = ("_table",)

    _canon = staticmethod(make_monomial)
    _print_key = staticmethod(mono_print_key)

    @staticmethod
    def _factors(m: Monomial) -> list:
        return [g.name if e == 1 else f"{g.name}^{e}" for g, e in m]

    # -- constructors ------------------------------------------------------
    @staticmethod
    def gen(g: GenSym) -> "GradedPoly":
        return GradedPoly({((g, 1),): _ONE}, _raw=True)

    @staticmethod
    def monomial(pairs: Iterable[tuple], c: ScalarLike = 1) -> "GradedPoly":
        c = _coeff(c)
        m = make_monomial(pairs)
        if m is None or not c:
            return GradedPoly.zero()
        return GradedPoly({m: c}, _raw=True)

    # -- structure ---------------------------------------------------------
    def generators(self) -> set:
        return {g for m in self.terms for g, _ in m}

    def table(self) -> dict:
        """Generator name -> generator, computed once per polynomial."""
        try:
            return self._table
        except AttributeError:
            self._table = {g.name: g for m in self.terms for g, _ in m}
            return self._table

    def check_table(self, other: "GradedPoly"):
        a, b = self.table(), other.table()
        if len(b) < len(a):
            a, b = b, a
        for name, g in a.items():
            prev = b.get(name)
            if prev is not None and prev != g:
                raise StructureError(f"mixed generator tables: {name!r} differs")

    def internal_degree(self):
        """Internal degree if homogeneous, else raise."""
        return _homogeneous({mono_internal_degree(m) for m in self.terms}, "internal")

    def form_degree(self):
        return _homogeneous({mono_form_degree(m) for m in self.terms}, "form")

    # -- products ----------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, GradedPoly):
            return NotImplemented
        self.check_table(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = mono_mul(m1, m2)
                if not sign:
                    continue
                c = c1 * c2 if sign > 0 else -c1 * c2
                s = acc.get(m, _ZERO) + c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return GradedPoly(acc, _raw=True)

    def __pow__(self, e: int):
        if e < 0:
            raise StructureError("negative polynomial power")
        out = GradedPoly.const(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- evaluation --------------------------------------------------------
    def evaluate(self, pt: Mapping) -> "GradedPoly":
        """Substitute rationals for plain degree-0 generators.

        Every plain degree-0 generator occurring in the polynomial must be
        assigned; negative-degree and de Rham generators stay symbolic.
        """
        acc: dict = {}
        for m, c in self.terms.items():
            rest = []
            val = c
            for g, e in m:
                if g.degree == 0 and not g.dform:
                    if g not in pt:
                        raise StructureError(f"unassigned degree-0 generator {g.name!r}")
                    val = val * _coeff(pt[g]) ** e
                else:
                    rest.append((g, e))
            if not val:
                continue
            key = tuple(rest)
            s = acc.get(key, _ZERO) + val
            if s:
                acc[key] = s
            else:
                del acc[key]
        return GradedPoly(acc, _raw=True)

    def linear_part(self, pt: Mapping) -> dict:
        """First-order term at pt, as a map generator -> coefficient.

        Degree-0 generators are expanded around their assigned values;
        negative-degree generators are coordinates vanishing at the point.
        """
        out: dict = {}

        def add(g, c):
            s = out.get(g, _ZERO) + c
            if s:
                out[g] = s
            else:
                out.pop(g, None)

        for m, c in self.terms.items():
            neg = [(g, e) for g, e in m if g.degree != 0 or g.dform]
            pos = [(g, e) for g, e in m if g.degree == 0 and not g.dform]
            for g, _ in pos:
                if g not in pt:
                    raise StructureError(f"unassigned degree-0 generator {g.name!r}")
            nneg = sum(e for _, e in neg)
            if nneg >= 2:
                continue
            if nneg == 1:
                val = c
                for g, e in pos:
                    val = val * _coeff(pt[g]) ** e
                if val:
                    add(neg[0][0], val)
                continue
            # pure degree 0: one partial derivative per generator
            for k, (g, e) in enumerate(pos):
                val = c * e
                for l, (h, f) in enumerate(pos):
                    ex = f - 1 if l == k else f
                    val = val * _coeff(pt[h]) ** ex
                if val:
                    add(g, val)
        return out


class NCPoly(_TermMap):
    """Free associative polynomial: finite map from words to rationals."""

    __slots__ = ()

    _canon = staticmethod(tuple)

    @staticmethod
    def _print_key(w: tuple):
        return (-len(w), tuple(g.sort_key for g in w))

    @staticmethod
    def _factors(w: tuple) -> list:
        return [g.name for g in w]

    @staticmethod
    def gen(g: GenSym) -> "NCPoly":
        return NCPoly({(g,): _ONE}, _raw=True)

    @staticmethod
    def word(letters: Sequence[GenSym], c: ScalarLike = 1) -> "NCPoly":
        c = _coeff(c)
        if not c:
            return NCPoly.zero()
        return NCPoly({tuple(letters): c}, _raw=True)

    def generators(self) -> set:
        return {g for w in self.terms for g in w}

    def internal_degree(self):
        return _homogeneous({sum(g.degree for g in w) for w in self.terms}, "internal")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        acc: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = acc.get(w, _ZERO) + c1 * c2
                if s:
                    acc[w] = s
                else:
                    del acc[w]
        return NCPoly(acc, _raw=True)


def graded_commutator(a: NCPoly, b: NCPoly) -> NCPoly:
    """[a, b] = a*b - (-1)^(|a||b|) b*a for homogeneous a, b."""
    da = a.internal_degree()
    db = b.internal_degree()
    if da is None or db is None:
        return NCPoly.zero()
    if (da * db) % 2:
        return a * b + b * a
    return a * b - b * a


def poly_sum(polys: Iterable) -> GradedPoly:
    """Sum of GradedPoly values without quadratic re-copying."""
    acc: dict = {}
    for p in polys:
        for m, c in p.terms.items():
            s = acc.get(m, _ZERO) + c
            if s:
                acc[m] = s
            else:
                del acc[m]
    return GradedPoly(acc, _raw=True)


def extend_derivation(images: Mapping, e, degree_shift: int = 1):
    """Extend generator images to the unique graded Leibniz derivation.

    D(ab) = D(a) b + (-1)^(shift*|a|) a D(b), where |a| is the Koszul parity.
    Works on both GradedPoly and NCPoly; every generator occurring in e must
    have an image (use an explicit zero for killed generators).  On the
    graded layer the image of each generator of e is checked once against
    e's generator table, so an image generator that shares a name with a
    different generator of e raises StructureError.
    """
    odd = degree_shift % 2

    def image(g):
        try:
            return images[g]
        except KeyError:
            raise StructureError(f"no derivation image for generator {g.name!r}") from None

    if isinstance(e, NCPoly):
        acc: dict = {}
        for w, c in e.terms.items():
            par = 0
            for l, g in enumerate(w):
                img = image(g)
                if img:
                    sign = -c if (odd and par) else c
                    left, right = w[:l], w[l + 1 :]
                    for w2, c2 in img.terms.items():
                        key = left + w2 + right
                        s = acc.get(key, _ZERO) + sign * c2
                        if s:
                            acc[key] = s
                        else:
                            del acc[key]
                par = (par + g.parity) % 2
        return NCPoly(acc, _raw=True)

    if isinstance(e, GradedPoly):
        acc = {}
        checked = set()
        for m, c in e.terms.items():
            par = 0
            for l, (g, ex) in enumerate(m):
                img = image(g)
                if img:
                    if g not in checked:
                        e.check_table(img)
                        checked.add(g)
                    sign = -c * ex if (odd and par) else c * ex
                    left = m[:l] + (((g, ex - 1),) if ex > 1 else ())
                    right = m[l + 1 :]
                    # D(g^ex) contributes left * image-term * right
                    for m2, c2 in img.terms.items():
                        s1, lm = mono_mul(left, m2)
                        if not s1:
                            continue
                        s2, key = mono_mul(lm, right)
                        if not s2:
                            continue
                        s = acc.get(key, _ZERO) + (sign * c2 if s1 == s2 else -sign * c2)
                        if s:
                            acc[key] = s
                        else:
                            del acc[key]
                par = (par + g.parity * ex) % 2
        return GradedPoly(acc, _raw=True)

    raise StructureError(f"cannot extend a derivation over {type(e).__name__}")


class _LazyImages(dict):
    """Derivation images built the first time each one is read.

    A lookup that misses (by ``[]``, ``get`` or ``in``) calls ``_build(key)``,
    which stores the image of key (and may store others with it) or raises
    KeyError for a key outside the map; a hit stays a plain dict lookup.
    Reads of the map as a whole -- iteration, the views, len and equality --
    first build every key of ``_domain()``, so they see the same map an
    eager build would.  Subclasses hold only what building needs, never the
    object that owns the map, so the owner is freed by reference counting
    alone.
    """

    _complete = False

    def _domain(self) -> Iterable:
        raise NotImplementedError

    def _build(self, key) -> None:
        raise NotImplementedError

    def __missing__(self, key):
        self._build(key)
        return dict.__getitem__(self, key)

    def _force(self):
        if not self._complete:
            for key in self._domain():
                if not dict.__contains__(self, key):
                    self._build(key)
            self._complete = True

    def __contains__(self, key):
        return self.get(key) is not None

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __iter__(self):
        self._force()
        return dict.__iter__(self)

    def __len__(self):
        self._force()
        return dict.__len__(self)

    def keys(self):
        self._force()
        return dict.keys(self)

    def values(self):
        self._force()
        return dict.values(self)

    def items(self):
        self._force()
        return dict.items(self)

    def __eq__(self, other):
        self._force()
        if isinstance(other, _LazyImages):
            other._force()
        return dict.__eq__(self, other)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq
