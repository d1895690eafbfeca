"""Exact arithmetic for graded-commutative and free associative polynomials.

Coefficients are exact rationals: an int when the value is an integer, else
a fractions.Fraction.  _coeff is the package's one scalar rule, for these
coefficients and for the entries of linalg's matrices alike.  Constructors
canonicalize through it and int arithmetic stays int, so the all-integer
charts and points never touch Fraction.  Derivation results and divide
follow the rule too; an integral Fraction result of +, * or scale may stay
one, equal and hash-equal to the int.
The one division, divide, is an exact Fraction quotient, so no float
reaches a coefficient.  Generators carry
an internal degree <= 0 and a Koszul parity; odd generators anticommute and
square to zero.  A generator (GenSym) is a str whose value packs its
canonical order key, chr(-degree) + chr(dform) + kind + NUL + name, so the
kernel's merges, sorts, dicts and sets compare and hash generators in C
with no Python-level method.  That value is internal, and kinds hold no
NUL; text comes from .name, since str.join and JSON see the raw value.
Both polynomial layers are sparse term maps, key -> nonzero
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
monomial merges left * image * right, with their Koszul signs, on the
graded layer, where an empty operand takes no merge.  No intermediate
polynomial is built per term.  A graded splice whose remaining factors
(left * right) and image term hold only even generators commutes with no
sign, so it is one integer addition of packed monomials (Monagan and
Pearce, CASC 2007): each even generator met in the call gets an 8-bit
exponent field, and the packed keys are decoded into canonical monomials
once at the end.  Only exponents below 2^7 are packed, so the sum of two
never carries; a monomial with a larger exponent, or a splice with an odd
factor beside the image term, takes the tuple merge.  The loops run
fraction-free: on D*e, where D is the lcm of the denominators of e's
coefficients, so with integer images every product and sum is an int, and
each result coefficient is divided by D once at the end (as linalg clears
each row to integers before it eliminates).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

from .errors import StructureError

Scalar = Union[int, Fraction]  # _coeff stores an integral value as an int


class GenSym(str):
    """A named generator with internal degree, kind tag and form flag.

    ``dform`` marks the de Rham symbol attached to a base generator; it
    shifts the Koszul parity by one while keeping the internal degree.

    A GenSym is a str whose value encodes its canonical order key,
    internal degree descending, plain before de Rham, then kind, then name:

        chr(-degree) + chr(dform) + kind + NUL + name

    A kind holds no NUL (checked), so the first NUL after the two lead
    characters ends it, and a kind that is a prefix of another sorts
    first, as in the tuple order.  The name comes last and needs no such
    rule.  So ``==``, ``hash`` and ``<`` are str's own C slots, equality
    is by (name, degree, kind, dform), and rebuilding the same
    presentation yields interchangeable generators.  The raw value is
    internal: str(), format() and f-strings give the name, but
    ``str.join``, ``+`` and a JSON encoder see the raw value, so text is
    built from ``.name`` (serialize.write_canonical rejects a GenSym).
    """

    __slots__ = ("name", "degree", "kind", "dform", "parity")

    def __new__(cls, name: str, degree: int, kind: str, dform: bool = False):
        if degree > 0:
            raise StructureError(f"generator {name!r} has positive degree {degree}")
        if "\0" in kind:
            raise StructureError(f"generator kind {kind!r} holds a NUL")
        self = super().__new__(cls, chr(-degree) + ("\1" if dform else "\0") + kind + "\0" + name)
        self.name = name
        self.degree = degree
        self.kind = kind
        self.dform = dform
        self.parity = (degree + (1 if dform else 0)) % 2
        return self

    def __getnewargs__(self):
        return (self.name, self.degree, self.kind, self.dform)

    def __repr__(self):
        return f"GenSym({self.name!r}, {self.degree}, {self.kind!r}{', dform' if self.dform else ''})"

    def __str__(self):
        return self.name

    def __format__(self, spec):
        return format(self.name, spec)


# A monomial is a tuple of (GenSym, exponent) pairs sorted by generator,
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
    items = sorted(merged.items())
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
    # An odd factor of b moving past the unconsumed part of a flips the sign
    # when that part is odd.  Its parity is found when an odd factor of b
    # first needs it, then kept as a is consumed.
    rest = None
    sign = 0
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ga, ea = a[i]
        gb, eb = b[j]
        if ga < gb:
            out.append(a[i])
            if rest is not None:
                rest ^= ga.parity * ea & 1
            i += 1
        elif ga > gb:
            if gb.parity * eb & 1:
                if rest is None:
                    rest = sum(g.parity * e for g, e in a[i:]) & 1
                sign ^= rest
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


def mono_grade(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_print_key(m: Monomial):
    # descending graded-lex: higher total exponent first, then earlier
    # generators with higher exponents first
    return (-mono_grade(m), tuple((g, -e) for g, e in m))


def _coeff(c: Scalar) -> Scalar:
    """c as stored: an integral value as an int, any other as a Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _homogeneous(degs: set):
    """The single degree in degs, None when empty; raise when mixed."""
    if not degs:
        return None
    if len(degs) > 1:
        raise StructureError(f"inhomogeneous internal degrees {sorted(degs)}")
    return degs.pop()


class _TermMap:
    """Finite map from keys to nonzero rationals, with the linear operations.

    Coefficients are Scalars, added and multiplied as they are.
    Subclasses fix the key type through three hooks: ``_canon`` turns a
    caller-supplied key into canonical form (None when it is zero),
    ``_print_key`` orders keys for printing, and ``_factors`` names a key's
    factors in a fresh list.  Results of the linear operations keep the
    operand's class.
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
            s = acc.get(k, 0) + c
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
    def const(cls, c: Scalar):
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

    def constant(self) -> Scalar:
        """The value of a constant polynomial."""
        if not self.terms:
            return 0
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
            s = acc.get(k, 0) + c
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

    def divide(self, d: int):
        """self / d for a positive int d, one exact quotient per coefficient:
        an int wherever it is integral, else a Fraction."""
        return type(self)({k: _coeff(Fraction(c, d)) for k, c in self.terms.items()}, _raw=True)

    def scale(self, c: Scalar):
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

    def term_texts(self, limit=None) -> list:
        """The first `limit` terms (every term by default) in printing order,
        each as ``str`` prints it alone, in the parser's syntax:
        ``-5*x^4*y``, ``x*y``, ``-1/3``, ``1``."""
        texts = []
        for k, c in self.sorted_terms()[:limit]:
            factors = self._factors(k)
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            texts.append("-" + "*".join(factors) if c < 0 else "*".join(factors))
        return texts

    def __str__(self):
        # generator names hold no spaces, so " + -" only ever opens a negative term
        return " + ".join(self.term_texts()).replace(" + -", " - ") or "0"

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
        return GradedPoly({((g, 1),): 1}, _raw=True)

    @staticmethod
    def monomial(pairs: Iterable[tuple], c: Scalar = 1) -> "GradedPoly":
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
        return _homogeneous({mono_internal_degree(m) for m in self.terms})

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
                s = acc.get(m, 0) + c
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
            s = acc.get(key, 0) + val
            if s:
                acc[key] = s
            else:
                del acc[key]
        return GradedPoly(acc, _raw=True)


class NCPoly(_TermMap):
    """Free associative polynomial: finite map from words to rationals."""

    __slots__ = ()

    _canon = staticmethod(tuple)

    @staticmethod
    def _print_key(w: tuple):
        return (-len(w), w)

    @staticmethod
    def _factors(w: tuple) -> list:
        return [g.name for g in w]

    @staticmethod
    def gen(g: GenSym) -> "NCPoly":
        return NCPoly({(g,): 1}, _raw=True)

    @staticmethod
    def word(letters: Sequence[GenSym], c: Scalar = 1) -> "NCPoly":
        c = _coeff(c)
        if not c:
            return NCPoly.zero()
        return NCPoly({tuple(letters): c}, _raw=True)

    def internal_degree(self):
        return _homogeneous({sum(g.degree for g in w) for w in self.terms})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        acc: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = acc.get(w, 0) + c1 * c2
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
            s = acc.get(m, 0) + c
            if s:
                acc[m] = s
            else:
                del acc[m]
    return GradedPoly(acc, _raw=True)


def _no_image(g: GenSym) -> StructureError:
    return StructureError(f"no derivation image for generator {g.name!r}")


def _cleared(terms: dict):
    """(D, D * terms) with D the lcm of the coefficients' denominators, so
    every coefficient of D * terms is an int; (1, terms) when all are ints."""
    if Fraction not in map(type, terms.values()):
        return 1, terms
    d = lcm(*[c.denominator for c in terms.values() if type(c) is not int])
    return d, {k: c * d if type(c) is int else c.numerator * (d // c.denominator) for k, c in terms.items()}


# A packed monomial is one int with a W-bit field per even generator,
# holding its exponent.  Packed exponents stay below 2^(W-1), so the sum of
# two packed monomials never carries out of a field.
_PACK_BITS = 8
_PACK_LIMIT = 1 << (_PACK_BITS - 1)


def _pack(m: Monomial, units: dict, fields: list):
    """(k, odd): k packs m's even factors and odd counts its odd factors;
    None when m has two odd factors or an exponent of at least _PACK_LIMIT.
    ``units`` maps each generator met to 1 << its field's offset, or to 0
    when it is odd; ``fields`` lists the even ones in offset order."""
    k = odd = 0
    for g, ex in m:
        unit = units.get(g)
        if unit is None:
            unit = units[g] = 0 if g.parity else 1 << (_PACK_BITS * len(fields))
            if unit:
                fields.append(g)
        if not unit:
            if odd:
                return None
            odd = 1
        elif ex < _PACK_LIMIT:
            k += ex * unit
        else:
            return None
    return k, odd


def _split_image(img: GradedPoly, units: dict, fields: list):
    """([(packed monomial, c)] for img's even terms that pack, [(monomial,
    c)] for the rest)."""
    even, others = [], []
    for m, c in img.terms.items():
        k = _pack(m, units, fields)
        if k is not None and not k[1]:
            even.append((k[0], c))
        else:
            others.append((m, c))
    return even, others


def _unpack(k: int, fields: list) -> Monomial:
    """The canonical monomial that k packs."""
    pairs = []
    while k:
        offset = (k.bit_length() - 1) // _PACK_BITS * _PACK_BITS
        ex = k >> offset
        pairs.append((fields[offset // _PACK_BITS], ex))
        k -= ex << offset
    return tuple(sorted(pairs))


def extend_derivation(images: Mapping, e, degree_shift: int = 1):
    """Extend generator images to the unique graded Leibniz derivation.

    D(ab) = D(a) b + (-1)^(shift*|a|) a D(b), where |a| is the Koszul parity.
    Works on both GradedPoly and NCPoly; every generator occurring in e must
    have an image (use an explicit zero for killed generators).  On the
    graded layer the image of each generator of e is checked once against
    e's generator table, so an image generator that shares a name with a
    different generator of e raises StructureError.

    A graded splice whose remaining factors and image term are all even
    adds packed monomials instead of merging tuples; each image is packed
    once per call, and only when a splice beside it can use the packing.

    The loops run on D*e with integer coefficients, D the lcm of the
    denominators of e's coefficients, so integer images keep every product
    and sum an int.  The result is divided by D once at the end, and holds
    an int wherever a coefficient is integral, also when an image holds a
    Fraction.
    """
    odd = degree_shift % 2
    if isinstance(e, NCPoly):
        den, terms = _cleared(e.terms)
        acc: dict = {}
        for w, c in terms.items():
            par = 0
            for l, g in enumerate(w):
                try:
                    img = images[g]
                except KeyError:
                    raise _no_image(g) from None
                if img.terms:
                    sign = -c if (odd and par) else c
                    left, right = w[:l], w[l + 1 :]
                    for w2, c2 in img.terms.items():
                        key = left + w2 + right
                        s = acc.get(key, 0) + sign * c2
                        if s:
                            acc[key] = s
                        else:
                            del acc[key]
                par = (par + g.parity) % 2
        out = NCPoly(acc, _raw=True)

    elif isinstance(e, GradedPoly):
        den, terms = _cleared(e.terms)
        acc = {}
        packed = {}  # packed even monomial -> coefficient, decoded at the end
        checked = set()
        units, fields = {}, []  # packed fields, assigned in this call
        splits = {}  # g -> its image's even terms packed, and the other terms
        for m, c in terms.items():
            packed_m = False  # _pack(m), taken beside m's first even image term
            par = 0  # odd factors before g
            for l, (g, ex) in enumerate(m):
                try:
                    img = images[g]
                except KeyError:
                    raise _no_image(g) from None
                if img.terms:
                    if g not in checked:
                        e.check_table(img)
                        checked.add(g)
                    sign = -c * ex if (odd and par & 1) else c * ex
                    others = img.terms.items()
                    # the factors left beside an image with even terms,
                    # packed when they are all even: m's even part less one
                    # g, or all of it when g is m's one odd factor
                    if not par and (ex > 1 or len(m) > 1):
                        split = splits.get(g)
                        if split is None:
                            split = splits[g] = _split_image(img, units, fields)
                        if split[0] and packed_m is False:
                            packed_m = _pack(m, units, fields)
                        if split[0] and packed_m and packed_m[1] == g.parity:
                            even, others = split
                            rest = packed_m[0] if g.parity else packed_m[0] - units[g]
                            # two even factors commute: one addition, no sign
                            for k2, c2 in even:
                                key = rest + k2
                                s = packed.get(key, 0) + sign * c2
                                if s:
                                    packed[key] = s
                                else:
                                    del packed[key]
                    if others:
                        left = m[:l] + (((g, ex - 1),) if ex > 1 else ())
                        right = m[l + 1 :]
                        # D(g^ex) contributes left * image-term * right; an
                        # empty operand is the unit and takes no merge
                        for m2, c2 in others:
                            s1, key = mono_mul(left, m2) if left and m2 else (1, left or m2)
                            if s1 and right:
                                s2, key = mono_mul(key, right) if key else (1, right)
                                s1 *= s2
                            if not s1:
                                continue
                            s = acc.get(key, 0) + (sign * c2 if s1 > 0 else -sign * c2)
                            if s:
                                acc[key] = s
                            else:
                                del acc[key]
                par += g.parity * ex
        for key, c in packed.items():
            key = _unpack(key, fields)
            s = acc.get(key, 0) + c
            if s:
                acc[key] = s
            else:
                del acc[key]
        out = GradedPoly(acc, _raw=True)

    else:
        raise StructureError(f"cannot extend a derivation over {type(e).__name__}")
    # with D = 1 a Fraction in the result came from an image; divide(1)
    # makes it an int where it is integral
    return out.divide(den) if den > 1 or Fraction in map(type, acc.values()) else out
