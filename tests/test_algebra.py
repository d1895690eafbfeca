import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgquot import GenSym, GradedPoly, NCPoly, StructureError, extend_derivation, graded_commutator
from dgquot import algebra
from dgquot.algebra import make_monomial, mono_mul, poly_sum

X = GenSym("x", 0, "variable")
Y = GenSym("y", 0, "variable")
Z = GenSym("z", 0, "variable")
U = GenSym("u", -1, "commutator")
V = GenSym("v", -1, "commutator")
T = GenSym("t", -2, "correction")

GENS = [X, Y, Z, U, V, T]
P = GradedPoly.gen


def tuple_key(g):
    """The canonical generator order as a tuple, the reference for GenSym's
    str order: internal degree descending, plain before de Rham, then kind,
    then name."""
    return (-g.degree, 1 if g.dform else 0, g.kind, g.name)


def random_poly(rng, gens=GENS, max_terms=4, max_factors=3, max_exp=2):
    p = GradedPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        pairs = [(rng.choice(gens), rng.randint(1, max_exp)) for _ in range(rng.randint(0, max_factors))]
        p = p + GradedPoly.monomial(pairs, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return p


def test_odd_square_vanishes():
    assert (P(U) * P(U)).is_zero()
    assert GradedPoly.monomial([(U, 2)]).is_zero()


def test_odd_generators_anticommute():
    assert (P(U) * P(V) + P(V) * P(U)).is_zero()


def test_even_generators_commute():
    assert (P(X) + P(Y)) * (P(X) - P(Y)) == P(X) * P(X) - P(Y) * P(Y)
    assert P(T) * P(T) == GradedPoly.monomial([(T, 2)])


def test_mixed_generator_tables_rejected():
    fake = GenSym("x", -1, "commutator")
    with pytest.raises(StructureError):
        P(X) * P(fake)
    with pytest.raises(StructureError):
        make_monomial([(X, 1), (fake, 1)])


# names and kinds where one is a prefix of another, as a[1,1] extends a;
# a name may hold NUL, because it is compared last
GEN_TEXT = st.sampled_from(["", "a", "a[1,1]", "a[1,2]", "ab", "d(x)", "x", "x1", "y[1]", "\x00", "a\x00b"])
GEN_KIND = st.sampled_from(["", "a", "a[1,1]", "ab", "\x01", "variable", "commutator", "matrix-entry"])
GEN_SYMS = st.builds(GenSym, GEN_TEXT, st.integers(-5, 0), GEN_KIND, st.booleans())


@settings(max_examples=400, deadline=None)
@given(GEN_SYMS, GEN_SYMS)
def test_gensym_order_equality_and_hash_follow_the_tuple_key(g, h):
    assert (g == h) == (tuple_key(g) == tuple_key(h))
    assert (g < h) == (tuple_key(g) < tuple_key(h))
    assert (g > h) == (tuple_key(g) > tuple_key(h))
    if g == h:
        assert hash(g) == hash(h)
    twin = GenSym(g.name, g.degree, g.kind, g.dform)
    assert twin == g and hash(twin) == hash(g)


@settings(max_examples=100, deadline=None)
@given(GEN_SYMS)
def test_gensym_prints_its_name_and_round_trips(g):
    assert str(g) == g.name and f"{g}" == g.name and f"{g:>8}" == f"{g.name:>8}"
    assert repr(g) == f"GenSym({g.name!r}, {g.degree}, {g.kind!r}{', dform' if g.dform else ''})"
    for copied in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(copied) is GenSym and copied == g and hash(copied) == hash(g)
        fields = ("name", "degree", "kind", "dform", "parity")
        assert [getattr(copied, f) for f in fields] == [getattr(g, f) for f in fields]


def test_gensym_compares_and_hashes_in_c():
    # no Python-level method on the kernel's dict, set and merge paths
    assert GenSym.__hash__ is str.__hash__
    assert GenSym.__eq__ is str.__eq__
    assert GenSym.__lt__ is str.__lt__
    assert not hasattr(X, "__dict__")


def test_gensym_rejects_a_nul_kind_and_a_positive_degree():
    with pytest.raises(StructureError):
        GenSym("x", 0, "vari\x00able")
    with pytest.raises(StructureError):
        GenSym("x", 1, "variable")


def test_canonical_form_idempotent():
    rng = random.Random(1)
    for _ in range(300):
        p = random_poly(rng)
        q = type(p)(p.terms)
        assert q == p
        assert type(q)(q.terms) == q


def test_mul_associative_and_graded_commutative():
    rng = random.Random(2)
    for _ in range(1000):
        a, b, c = (random_poly(rng, max_terms=2, max_factors=2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
    for _ in range(1000):
        # homogeneous monomial pairs: the Koszul sign rule itself
        ma = [(rng.choice(GENS), 1) for _ in range(rng.randint(0, 3))]
        mb = [(rng.choice(GENS), 1) for _ in range(rng.randint(0, 3))]
        a = GradedPoly.monomial(ma)
        b = GradedPoly.monomial(mb)
        if a.is_zero() or b.is_zero():
            continue
        pa = sum(g.parity for g, _ in next(iter(a.terms))) % 2
        pb = sum(g.parity for g, _ in next(iter(b.terms))) % 2
        sign = -1 if (pa and pb) else 1
        assert a * b == (b * a).scale(sign)


def test_commutator_basics():
    x, w = NCPoly.gen(X), NCPoly.gen(Y)
    assert graded_commutator(x, x).is_zero()
    assert graded_commutator(w, x) == w * x - x * w
    u = NCPoly.gen(U)
    assert graded_commutator(u, u) == NCPoly.word([U, U], 2)


def test_commutator_rejects_inhomogeneous():
    with pytest.raises(StructureError):
        graded_commutator(NCPoly.gen(X) + NCPoly.gen(U), NCPoly.gen(X))


def test_commutator_graded_jacobi():
    # [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|}[b,[a,c]] on random homogeneous inputs
    rng = random.Random(3)
    evens, odds = [X, Y, Z], [U, V]
    for _ in range(400):
        trip = []
        for _ in range(3):
            pool = evens if rng.random() < 0.5 else odds
            word = tuple(rng.choice(pool) for _ in range(rng.randint(1, 2)))
            trip.append(NCPoly.word(word, rng.randint(1, 3)))
        a, b, c = trip
        pa, pb = a.internal_degree() % 2, b.internal_degree() % 2
        lhs = graded_commutator(a, graded_commutator(b, c))
        rhs = graded_commutator(graded_commutator(a, b), c) + graded_commutator(
            b, graded_commutator(a, c)
        ).scale(-1 if (pa and pb) else 1)
        assert lhs == rhs


def test_derivation_leibniz_examples():
    # d(a12) = [x1,x2], d on the free layer
    x1, x2 = NCPoly.gen(X), NCPoly.gen(Y)
    a12 = U
    images = {U: graded_commutator(x1, x2), X: NCPoly.zero(), Y: NCPoly.zero(), V: NCPoly.zero()}
    d = lambda e: extend_derivation(images, e, 1)
    assert d(NCPoly.word([U, X])) == graded_commutator(x1, x2) * x1
    # d(a12*a13) = [x1,x2]*a13 - a12*[x1,x3]
    a13 = V
    images[V] = graded_commutator(x1, NCPoly.gen(Z))
    images[Z] = NCPoly.zero()
    got = d(NCPoly.word([U, V]))
    want = images[U] * NCPoly.gen(V) - NCPoly.gen(U) * images[V]
    assert got == want
    assert d(NCPoly.const(7)).is_zero()


def test_derivation_leibniz_property():
    rng = random.Random(4)
    img = {
        X: GradedPoly.zero(),
        Y: GradedPoly.zero(),
        Z: GradedPoly.zero(),
        U: P(X) * P(Y),
        V: P(Y) * P(Z),
        T: P(X) * P(U),
    }
    d = lambda e: extend_derivation(img, e, 1)
    for _ in range(400):
        a = random_poly(rng, max_terms=2)
        b = random_poly(rng, max_terms=2)
        try:
            pa = 0 if a.is_zero() else (a.internal_degree() % 2)
        except StructureError:
            continue
        assert d(a * b) == d(a) * b + (a * d(b)).scale(-1 if pa else 1)


def derivation_reference(images, e, degree_shift):
    """The three-temporaries route: sum over terms c*m of e and positions l
    of monomial(left, +-c*ex) * image * monomial(right)."""
    odd = degree_shift % 2
    out = GradedPoly.zero()
    for m, c in e.terms.items():
        par = 0
        for l, (g, ex) in enumerate(m):
            sign = -c * ex if (odd and par) else c * ex
            left = m[:l] + (((g, ex - 1),) if ex > 1 else ())
            out = out + GradedPoly.monomial(left, sign) * images[g] * GradedPoly.monomial(m[l + 1 :])
            par = (par + g.parity * ex) % 2
    return out


def test_derivation_matches_three_temporaries_route():
    # de Rham symbols: d(x) and d(t) are odd, d(u) is even and can be squared
    DX = GenSym("d(x)", 0, "variable", dform=True)
    DU = GenSym("d(u)", -1, "commutator", dform=True)
    DT = GenSym("d(t)", -2, "correction", dform=True)
    gens = GENS + [DX, DU, DT]
    rng = random.Random(8)

    def sample(max_terms):
        # distinct generators per monomial, even ones raised up to the cube
        p = GradedPoly.zero()
        for _ in range(rng.randint(1, max_terms)):
            picked = rng.sample(gens, rng.randint(0, 4))
            pairs = [(g, 1 if g.parity else rng.randint(1, 3)) for g in picked]
            p = p + GradedPoly.monomial(pairs, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        return p

    nonzero = 0
    for _ in range(300):
        images = {g: GradedPoly.zero() if rng.random() < 0.2 else sample(3) for g in gens}
        e = sample(4)
        for shift in (0, 1):
            got = extend_derivation(images, e, shift)
            assert got == derivation_reference(images, e, shift)
            nonzero += bool(got)
    assert nonzero > 400


def leibniz_reference(images, e, degree_shift):
    """The Leibniz rule term by term, with no clearing of denominators: each
    term and position of e adds +-c * left * image * right, as products of
    polynomials with the coefficients as they are.  The sum is rebuilt
    through the canonical constructor, so its scalars follow _coeff."""
    odd = degree_shift % 2
    out = type(e).zero()
    if isinstance(e, NCPoly):
        for w, c in e.terms.items():
            par = 0
            for l, g in enumerate(w):
                sign = -c if (odd and par) else c
                out = out + NCPoly.word(w[:l], sign) * images[g] * NCPoly.word(w[l + 1 :])
                par = (par + g.parity) % 2
    else:
        out = derivation_reference(images, e, degree_shift)
    return type(out)(out.terms)


def test_cleared_derivation_matches_leibniz_reference():
    """extend_derivation clears e's denominators, runs on ints and divides
    once; the terms, printing and scalar types equal the reference's."""
    rng = random.Random(16)

    def coeff(fractional):
        # mixed denominators 3, 4 and 6, with ints among them
        den = rng.choice((1, 3, 4, 6)) if fractional else 1
        return Fraction(rng.randint(-6, 6), den)

    def graded(fractional, max_terms=4):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            pairs = [(rng.choice(GENS), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
            terms[tuple(pairs)] = coeff(fractional)
        return GradedPoly(terms)

    def free(fractional, max_terms=4):
        terms = {}
        for _ in range(rng.randint(0, max_terms)):
            terms[tuple(rng.choice(GENS) for _ in range(rng.randint(0, 3)))] = coeff(fractional)
        return NCPoly(terms)

    def same(got, want):
        assert got.terms == want.terms and str(got) == str(want)
        assert {k: type(c) for k, c in got.terms.items()} == {k: type(c) for k, c in want.terms.items()}
        assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())

    seen = {"zero operand": 0, "fraction images": 0, "integral result": 0}
    for make in (graded, free):
        for _ in range(150):
            fractional_images = rng.random() < 0.4
            images = {g: make(fractional_images, 3) for g in GENS}
            e = make(True)
            for shift in (0, 1):
                got = extend_derivation(images, e, shift)
                same(got, leibniz_reference(images, e, shift))
                seen["zero operand"] += e.is_zero()
                seen["fraction images"] += any(type(c) is Fraction for p in images.values() for c in p.terms.values())
                seen["integral result"] += bool(got) and all(type(c) is int for c in got.terms.values())
    assert min(seen.values()) > 10, seen

    # thirds and quarters that cancel to an int, and a third that does not
    x3 = GradedPoly.monomial([(X, 3)], Fraction(1, 3))
    for images in ({X: GradedPoly.const(1)}, {X: P(Y).scale(Fraction(2, 3))}):
        got = extend_derivation(images, x3, 1)
        same(got, leibniz_reference(images, x3, 1))
    assert extend_derivation({X: P(Y).scale(Fraction(4, 3))}, x3.scale(Fraction(3, 4)), 1).terms == {
        make_monomial([(X, 2), (Y, 1)]): 1
    }
    xxx = NCPoly.word([X, X, X], Fraction(1, 3))
    got = extend_derivation({X: NCPoly.const(1)}, xxx, 1)
    assert got.terms == {(X, X): 1} and type(got.terms[(X, X)]) is int
    assert extend_derivation({X: NCPoly.const(1)}, NCPoly.zero(), 0).is_zero()


# de Rham symbol of the odd U: even, of internal degree -1
DU = GenSym("d(u)", -1, "commutator", dform=True)
PACK_LIMIT = algebra._PACK_LIMIT  # packed exponents stay below it


def packed_run(monkeypatch, images, e, shift=1, layout=None):
    """extend_derivation(images, e, shift, layout), the number of tuple
    merges it made and the number of image terms it packed."""
    merges, packed = [], []
    merge, split = algebra.mono_mul, algebra._split_image

    def counted(a, b):
        merges.append((a, b))
        return merge(a, b)

    def counted_split(img, units, fields):
        even, others = split(img, units, fields)
        packed.append(len(even))
        return even, others

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "mono_mul", counted)
        patch.setattr(algebra, "_split_image", counted_split)
        got = extend_derivation(images, e, shift, layout)
    return got, len(merges), sum(packed)


def test_packed_derivation_of_even_inputs_matches_reference(monkeypatch):
    """Even terms and even images: every splice adds packed monomials, and
    no tuple merge is made."""
    evens = [X, Y, Z, T, DU]
    rng = random.Random(31)

    def sample(max_terms):
        p = GradedPoly.zero()
        for _ in range(rng.randint(1, max_terms)):
            pairs = [(g, rng.randint(1, 4)) for g in rng.sample(evens, rng.randint(0, 4))]
            p = p + GradedPoly.monomial(pairs, rng.randint(-5, 5))
        return p

    nonzero = 0
    for _ in range(200):
        images = {g: GradedPoly.zero() if rng.random() < 0.2 else sample(4) for g in evens}
        e = sample(4)
        for shift in (0, 1):
            got, merges, packed = packed_run(monkeypatch, images, e, shift)
            assert got == derivation_reference(images, e, shift)
            assert merges == 0
            nonzero += bool(got) and packed > 0
    assert nonzero > 200


def test_packed_exponents_below_the_limit_and_the_fallback_at_it(monkeypatch):
    top = PACK_LIMIT - 1
    # exponents at 2^(W-1) - 1 pack, and sums up to 2^W - 2 stay in their field
    e = GradedPoly.monomial([(X, top), (Y, 1)])
    images = {X: GradedPoly.monomial([(Y, top)]) + P(Z).scale(3), Y: GradedPoly.monomial([(X, top), (Z, 1)])}
    got, merges, packed = packed_run(monkeypatch, images, e)
    assert got == derivation_reference(images, e, 1)
    assert merges == 0 and packed == 3
    assert got.terms == {
        make_monomial([(X, top - 1), (Y, PACK_LIMIT)]): top,
        make_monomial([(X, top - 1), (Y, 1), (Z, 1)]): 3 * top,
        make_monomial([(X, 2 * top), (Z, 1)]): 1,
    }
    # an exponent of 2^(W-1) in a term of e takes the tuple merges
    e = GradedPoly.monomial([(X, PACK_LIMIT), (Y, 1)])
    got, merges, packed = packed_run(monkeypatch, images, e)
    assert got == derivation_reference(images, e, 1)
    assert merges > 0
    # and so does an image term with it, beside the image's packed terms
    e = P(X) * P(Y)
    images = {X: GradedPoly.monomial([(Y, PACK_LIMIT)]) + P(Z), Y: P(Z)}
    got, merges, packed = packed_run(monkeypatch, images, e)
    assert got == derivation_reference(images, e, 1)
    assert merges == 1 and packed == 2
    assert got.terms[make_monomial([(Y, PACK_LIMIT + 1)])] == 1


def test_packed_and_merged_image_terms_in_one_call(monkeypatch):
    """Images mixing even terms, odd terms and terms with two odd factors;
    terms of e with no, one and two odd factors."""
    gens = [X, Y, Z, U, V, DU]
    images = {
        X: P(Y) * P(Z) + P(U) + (P(U) * P(V)).scale(2),
        Y: P(DU) - P(X),
        Z: P(V) * P(Y),
        U: P(X) * P(Y),  # an odd generator with an even image
        V: P(Z) + P(U),
        DU: GradedPoly.zero(),
    }
    rng = random.Random(32)
    merged = packed_total = 0
    for _ in range(150):
        e = GradedPoly.zero()
        for _ in range(rng.randint(1, 4)):
            pairs = [(g, 1 if g.parity else rng.randint(1, 3)) for g in rng.sample(gens, rng.randint(1, 3))]
            e = e + GradedPoly.monomial(pairs, rng.randint(-3, 3))
        for shift in (0, 1):
            got, merges, packed = packed_run(monkeypatch, images, e, shift)
            assert got == derivation_reference(images, e, shift)
            merged += merges
            packed_total += packed
    assert merged > 0 and packed_total > 0
    # U's even image packs beside the even X, and merges beside the odd V
    images = {X: GradedPoly.zero(), U: P(X) * P(Y), V: GradedPoly.zero()}
    for e, want in ((P(X) * P(U), 0), (P(U) * P(V), 1)):
        got, merges, packed = packed_run(monkeypatch, images, e)
        assert got == derivation_reference(images, e, 1)
        assert merges == want and packed == 1


def test_packed_derivation_with_fraction_coefficients(monkeypatch):
    """Fraction coefficients in e are cleared before the packed loops, and
    those of the images ride through them; the result's terms, printing
    and scalar types equal the reference's."""
    rng = random.Random(33)
    evens = [X, Y, Z, T]

    def poly(max_terms):
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            pairs = tuple(sorted((g, rng.randint(1, 3)) for g in rng.sample(evens, rng.randint(1, 3))))
            terms[pairs] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
        return GradedPoly(terms)

    for _ in range(100):
        images = {g: poly(3) for g in evens}
        e = poly(4)
        got, merges, _ = packed_run(monkeypatch, images, e)
        want = leibniz_reference(images, e, 1)
        assert merges == 0
        assert got.terms == want.terms and str(got) == str(want)
        assert {k: type(c) for k, c in got.terms.items()} == {k: type(c) for k, c in want.terms.items()}
    # on the packed path a non-integral result stays a Fraction and an
    # integral one becomes an int
    e = GradedPoly.monomial([(X, 3), (Y, 1)], Fraction(1, 3))
    got, merges, packed = packed_run(monkeypatch, {X: P(Z).scale(Fraction(2, 3)), Y: GradedPoly.zero()}, e)
    assert merges == 0 and packed == 1
    assert got.terms == {make_monomial([(X, 2), (Y, 1), (Z, 1)]): Fraction(2, 3)}
    got, _, _ = packed_run(monkeypatch, {X: P(Z).scale(Fraction(3, 2)), Y: GradedPoly.zero()}, e.scale(2))
    key = make_monomial([(X, 2), (Y, 1), (Z, 1)])
    assert got.terms == {key: 3} and type(got.terms[key]) is int


def test_shared_layout_matches_a_fresh_layout_per_call(monkeypatch):
    """One layout across calls, as a presentation keeps it: each image is
    packed once, an image replaced by another object is packed again, and
    every result equals the one a fresh layout gives."""
    gens = [X, Y, Z, U, V, DU]
    images = {
        X: P(Y) * P(Z) + P(U),
        Y: P(DU) - P(X).scale(2),
        Z: P(V) * P(Y),
        U: P(X) * P(Y),
        V: P(Z) + P(U),
        DU: GradedPoly.zero(),
    }
    layout = algebra.PackLayout()
    rng = random.Random(34)
    packed_total = 0
    for trial in range(150):
        if trial == 75:  # a replaced image; the old split must not be read
            images[Y] = P(Z) * P(Z) - P(DU)
        e = GradedPoly.zero()
        for _ in range(rng.randint(1, 4)):
            pairs = [(g, 1 if g.parity else rng.randint(1, 3)) for g in rng.sample(gens, rng.randint(1, 3))]
            e = e + GradedPoly.monomial(pairs, rng.randint(-3, 3))
        for shift in (0, 1):
            got, _, packed = packed_run(monkeypatch, images, e, shift, layout)
            assert got == extend_derivation(images, e, shift) == derivation_reference(images, e, shift)
            packed_total += packed
    assert all(img is images[g] for g, (img, _, _) in layout.splits.items())
    # two splits of Y, before and after its replacement, and one of every
    # other image with an even term beside an even factor
    assert 0 < packed_total <= sum(len(p.terms) for p in images.values()) + 2


def test_shared_layout_meets_an_exponent_at_the_limit_after_its_fields(monkeypatch):
    layout = algebra.PackLayout()
    images = {X: P(Y) + P(Z).scale(2), Y: P(X) * P(Z), Z: GradedPoly.zero()}
    got, merges, packed = packed_run(monkeypatch, images, P(X) * P(Y), 1, layout)
    assert merges == 0 and packed == 3 and set(layout.fields) == {X, Y, Z}
    # the fields are assigned; an exponent of 2^(W-1) in e takes the merges
    e = GradedPoly.monomial([(X, PACK_LIMIT), (Y, 1)])
    got, merges, packed = packed_run(monkeypatch, images, e, 1, layout)
    assert merges > 0 and packed == 0
    assert got == extend_derivation(images, e, 1) == derivation_reference(images, e, 1)
    # and so does an image term with it, beside terms that still pack
    images[Y] = GradedPoly.monomial([(X, PACK_LIMIT)]) + P(Z)
    got, merges, packed = packed_run(monkeypatch, images, P(X) * P(Y), 1, layout)
    assert merges == 1 and packed == 1
    assert got == extend_derivation(images, P(X) * P(Y), 1) == derivation_reference(images, P(X) * P(Y), 1)
    assert got.terms[make_monomial([(X, PACK_LIMIT + 1)])] == 1


def test_packed_results_that_cancel_to_zero(monkeypatch):
    # packed keys that cancel among themselves
    e = P(X) * P(Z) - P(Y) * P(Z)
    images = {X: P(T), Y: P(T), Z: GradedPoly.zero()}
    got, merges, packed = packed_run(monkeypatch, images, e)
    assert got.is_zero() and got.terms == {} and merges == 0 and packed == 2
    # a packed key that cancels a term spliced with no factor left: D(x^2 - 2y)
    e = GradedPoly.monomial([(X, 2)]) - P(Y).scale(2)
    images = {X: P(Z), Y: P(X) * P(Z)}
    got, merges, packed = packed_run(monkeypatch, images, e)
    assert got.is_zero() and got.terms == {} and merges == 0 and packed == 1
    assert derivation_reference(images, e, 1).is_zero()


def test_derivation_rejects_mixed_generator_tables():
    fake = GenSym("x", -2, "correction")
    images = {X: GradedPoly.zero(), U: P(fake)}
    with pytest.raises(StructureError):
        extend_derivation(images, P(X) * P(U), 1)


def test_missing_image_errors():
    with pytest.raises(StructureError):
        extend_derivation({X: GradedPoly.zero()}, P(X) * P(Y), 1)


def test_evaluate():
    pt = {X: Fraction(-1), Y: Fraction(0), Z: Fraction(0)}
    f = P(X) ** 5 + P(Y) ** 5 + P(Z) ** 5 + 1
    assert f.evaluate(pt).constant() == 0
    assert P(U).evaluate(pt) == P(U)
    with pytest.raises(StructureError):
        (P(X) * P(Y)).evaluate({X: Fraction(1)})


def test_evaluate_multiplicative():
    rng = random.Random(5)
    evens = [X, Y, Z]
    for _ in range(200):
        p = random_poly(rng, gens=evens)
        q = random_poly(rng, gens=evens)
        pt = {g: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for g in evens}
        assert (p * q).evaluate(pt).constant() == p.evaluate(pt).constant() * q.evaluate(pt).constant()


def linear_part_reference(poly, assign):
    """First-order term of a chart polynomial at a point, as a map generator
    -> coefficient.  Degree-0 generators are expanded around their assigned
    values; negative-degree generators are coordinates vanishing there."""
    out = {}

    def add(g, c):
        s = out.get(g, Fraction(0)) + c
        if s:
            out[g] = s
        else:
            out.pop(g, None)

    for mono, c in poly.terms.items():
        neg = [(g, e) for g, e in mono if g.degree != 0]
        pos = [(g, e) for g, e in mono if g.degree == 0]
        nneg = sum(e for _, e in neg)
        if nneg >= 2:
            continue
        if nneg == 1:
            val = c
            for g, e in pos:
                val *= assign[g] ** e
            if val:
                add(neg[0][0], val)
            continue
        # pure degree 0: one partial derivative per generator
        for k, (g, e) in enumerate(pos):
            val = c * e
            for l, (h, f) in enumerate(pos):
                val *= assign[h] ** (f - 1 if l == k else f)
            if val:
                add(g, val)
    return out


def test_linear_part():
    pt = {X: Fraction(2), Y: Fraction(3)}
    assert linear_part_reference(P(X) * P(Y), pt) == {X: Fraction(3), Y: Fraction(2)}
    assert linear_part_reference(P(X) * P(U), {X: Fraction(5)}) == {U: Fraction(5)}
    assert linear_part_reference(P(U) * P(V), {}) == {}


def test_linear_part_product_rule():
    rng = random.Random(6)
    evens = [X, Y]
    for _ in range(200):
        p = random_poly(rng, gens=evens)
        q = random_poly(rng, gens=evens)
        pt = {g: Fraction(rng.randint(-2, 2)) for g in evens}
        pq = linear_part_reference(p * q, pt)
        pv, qv = p.evaluate(pt).constant(), q.evaluate(pt).constant()
        lp, lq = linear_part_reference(p, pt), linear_part_reference(q, pt)
        want = {}
        for g in set(lp) | set(lq):
            c = pv * lq.get(g, Fraction(0)) + qv * lp.get(g, Fraction(0))
            if c:
                want[g] = c
        assert pq == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(GENS), st.integers(0, 2)), max_size=4),
       st.lists(st.tuples(st.sampled_from(GENS), st.integers(0, 2)), max_size=4))
def test_monomial_product_sign_consistency(ma, mb):
    a, b = GradedPoly.monomial(ma), GradedPoly.monomial(mb)
    ab, ba = a * b, b * a
    # products agree up to the Koszul sign, and squares of odd parts vanish
    assert ab == ba or ab == -ba


def mono_mul_reference(a, b):
    """mono_mul with a suffix-parity list built on every call."""
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
        ka, kb = tuple_key(ga), tuple_key(gb)
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


# plain and de Rham generators of every degree: both parities at each degree
MIXED_GENS = GENS + [GenSym(g.name, g.degree, g.kind, dform=True) for g in GENS]
SORTED_MONOMIALS = st.dictionaries(st.sampled_from(MIXED_GENS), st.integers(1, 3), max_size=6).map(
    lambda m: tuple(sorted(m.items(), key=lambda ge: tuple_key(ge[0])))
)


DX, DY = (GenSym(g.name, g.degree, g.kind, dform=True) for g in (X, Y))


@settings(max_examples=400, deadline=None)
@given(SORTED_MONOMIALS, SORTED_MONOMIALS)
# dx passes the even dy·v; once dy is consumed, u passes the odd rest v
@example(((DY, 1), (V, 1)), ((DX, 1), (U, 1)))
def test_mono_mul_matches_suffix_parity_reference(a, b):
    assert mono_mul(a, b) == mono_mul_reference(a, b)


def test_poly_sum_matches_naive():
    rng = random.Random(7)
    polys = [random_poly(rng) for _ in range(10)]
    acc = GradedPoly.zero()
    for p in polys:
        acc = acc + p
    assert poly_sum(polys) == acc


def test_string_forms():
    assert str(GradedPoly.zero()) == "0"
    assert str(P(X) ** 2 - P(Y)) == "x^2 - y"
    assert str(P(X).scale(Fraction(2, 3))) == "2/3*x"
    assert str(NCPoly.word([X, Y]) - NCPoly.word([Y, X])) == "x*y - y*x"


def as_fractions(p):
    """p with every coefficient held as a Fraction, as the kernel held them
    before integer coefficients; the dict is handed over as is."""
    return type(p)({k: Fraction(c) for k, c in p.terms.items()}, _raw=True)


def test_int_and_fraction_coefficients_agree():
    """The same operands, once with int coefficients and once with Fraction
    ones, give equal terms and identical printing under every operation."""
    rng = random.Random(23)

    def coeff():
        return rng.randint(-4, 4) if rng.random() < 0.8 else Fraction(rng.randint(-4, 4), 3)

    def graded(gens=GENS):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            pairs = [(rng.choice(gens), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
            terms[make_monomial(pairs)] = coeff()
        return GradedPoly({m: c for m, c in terms.items() if m is not None})

    def free(degree):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            word = [rng.choice([X, Y, Z]) for _ in range(rng.randint(0, 3))]
            if degree:
                word.insert(rng.randint(0, len(word)), rng.choice([U, V]))
            terms[tuple(word)] = coeff()
        return NCPoly(terms)

    def same(a, b):
        assert a.terms == b.terms and str(a) == str(b)

    pt = {X: Fraction(2), Y: Fraction(-1, 2), Z: 3}
    scalars = (3, Fraction(1, 3), Fraction(6, 3), -1)
    for _ in range(60):
        a, b = graded(), graded()
        fa, fb = as_fractions(a), as_fractions(b)
        assert all(type(c) is int for c in a.terms.values() if c.denominator == 1)
        same(a * b, fa * fb)
        same(a + b, fa + fb)
        same(a - b, fa - fb)
        same(poly_sum([a, b, a]), poly_sum([fa, fb, fa]))
        for c in scalars:
            same(a.scale(c), fa.scale(c))
        e = graded([X, Y, Z])
        same(e.evaluate(pt), as_fractions(e).evaluate(pt))
        images = {g: graded() for g in GENS}
        fimages = {g: as_fractions(p) for g, p in images.items()}
        for shift in (0, 1):
            same(extend_derivation(images, a, shift), extend_derivation(fimages, fa, shift))

        p, q = free(rng.randint(0, 1)), free(rng.randint(0, 1))
        fp, fq = as_fractions(p), as_fractions(q)
        same(p * q, fp * fq)
        same(p + q, fp + fq)
        same(graded_commutator(p, q), graded_commutator(fp, fq))
        same(p.scale(Fraction(1, 3)), fp.scale(Fraction(1, 3)))
        nc_images = {g: free(g.degree < 0) for g in (X, Y, Z, U, V)}
        nc_fimages = {g: as_fractions(p) for g, p in nc_images.items()}
        same(extend_derivation(nc_images, p, 1), extend_derivation(nc_fimages, fp, 1))


def test_integral_fraction_results_compare_as_integers():
    assert GradedPoly.const(Fraction(1, 3)).scale(3).constant() == 1
    assert GradedPoly.const(Fraction(4, 2)).terms == {(): 2}
    assert type(GradedPoly.const(Fraction(4, 2)).constant()) is int
    assert type(NCPoly.word([X], Fraction(-3, 1)).terms[(X,)]) is int


def test_graded_term_texts_match_the_generic_route():
    """GradedPoly.term_texts prints each distinct (generator, exponent) pair
    once; the generic _TermMap route, which prints each occurrence, is the
    reference, in order and text, with and without a limit."""
    rng = random.Random(35)
    gens = GENS + [DU]
    for _ in range(300):
        p = random_poly(rng, gens, max_terms=8, max_factors=4, max_exp=3)
        if rng.random() < 0.5:
            p = p.scale(rng.choice((-1, 2, Fraction(-5, 3))))
        for limit in (None, 0, 1, 3, 100):
            assert p.term_texts(limit) == algebra._TermMap.term_texts(p, limit)
    # equal-grade ties, exponents above 1, a constant term and a Fraction
    p = GradedPoly({((X, 2),): 1, ((X, 1), (Y, 1)): -1, ((Y, 2),): Fraction(1, 2),
                    ((Z, 1), (U, 1)): -3, (): Fraction(-7, 4)})
    assert p.term_texts() == algebra._TermMap.term_texts(p) == [
        "x^2", "-x*y", "1/2*y^2", "-3*z*u", "-7/4",
    ]
    assert p.term_texts(2) == ["x^2", "-x*y"]
    assert GradedPoly.zero().term_texts() == [] and GradedPoly.const(-1).term_texts() == ["-1"]
