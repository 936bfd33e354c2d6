import random
import re

import pytest

from qalt.laurent import (
    HalfLaurent,
    SupportNotOnLattice,
    ZeroPolynomial,
    analyze,
    monomial_quotient,
    parse,
)

from oracles import Overlap, abs_at_primitive_eighth_root, gap_between


def hl(*pairs):
    return HalfLaurent(dict(pairs))


HOPF_JONES = hl((-5, -1), (-1, -1))  # -t^(-5/2) - t^(-1/2)


def test_zero_is_canonical():
    assert HalfLaurent({0: 0, 4: 0}).is_zero()
    assert HalfLaurent.zero() == HalfLaurent()
    assert not HalfLaurent.zero()


def test_add_identity_and_cancellation():
    f = hl((2, 1), (4, 1))
    assert HalfLaurent.zero() + f == f
    assert f + hl((4, -1)) == hl((2, 1))
    assert (f - f).is_zero()


def test_add_builds_hopf_jones():
    assert hl((-5, -1)) + hl((-1, -1)) == HOPF_JONES


def test_mul_identity_and_monomials():
    f = hl((-3, 2), (0, 5))
    assert HalfLaurent.one() * f == f
    assert hl((4, 1)) * hl((6, 1)) == hl((10, 1))
    assert 3 * f == hl((-3, 6), (0, 15))


def test_hopf_jones_square():
    sq = HOPF_JONES * HOPF_JONES
    assert sq == hl((-10, 1), (-6, 2), (-2, 1))
    assert sq == HOPF_JONES ** 2
    assert sq.support2() == (-10, -6, -2)


def test_pow_squares_no_further_than_the_exponent(monkeypatch):
    calls = []
    mul = HalfLaurent.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(HalfLaurent, "__mul__", counting)
    # 4 = 0b100: two squarings, then one product into the result
    assert HOPF_JONES ** 4 == mul(mul(HOPF_JONES, HOPF_JONES),
                                  mul(HOPF_JONES, HOPF_JONES))
    assert len(calls) == 3


def test_pow_zero_and_one():
    assert HOPF_JONES ** 0 == HalfLaurent.one()
    assert HOPF_JONES ** 1 == HOPF_JONES


def test_shift2():
    assert HOPF_JONES.shift2(4) == hl((-1, -1), (3, -1))


def test_immutability_and_hash():
    f = hl((2, 1))
    with pytest.raises(AttributeError):
        f._terms = {}
    assert hash(hl((2, 1), (4, 2))) == hash(hl((4, 2), (2, 1)))
    assert len({hl((2, 1)), hl((2, 1)), hl((4, 1))}) == 2


def test_evaluate_trivial_points():
    # the value at t = 1 is the coefficient sum; at t = -1 it is exact
    assert HalfLaurent.one().eval_at_minus_one() == (1, 0)
    f = hl((0, 3), (2, -1), (4, 5))
    assert sum(c for _, c in f.items2()) == 7
    assert f.eval_at_minus_one() == (3 + 1 + 5, 0)


def test_evaluate_hopf_at_minus_one():
    # i^(-5) = -i and i^(-1) = -i, so the value is 2i
    assert HOPF_JONES.eval_at_minus_one() == (0, 2)
    assert HOPF_JONES.abs_at_minus_one() == 2


def test_abs_at_minus_one_is_the_exact_root_of_a2_plus_b2():
    # 3 + 4i: one exact square root, whichever parts are zero
    assert HalfLaurent({0: 3, 1: 4}).abs_at_minus_one() == 5
    assert hl((0, -3)).abs_at_minus_one() == 3
    assert hl((1, -3)).abs_at_minus_one() == 3
    assert HalfLaurent.zero().abs_at_minus_one() == 0
    with pytest.raises(ValueError, match=r"^\|f\(-1\)\| is not an integer$"):
        HalfLaurent({0: 1, 1: 1}).abs_at_minus_one()


def test_evaluate_matches_exact_gaussian():
    rng = random.Random(7)
    for _ in range(40):
        f = HalfLaurent(
            {rng.randrange(-9, 9): rng.randrange(-5, 6) for _ in range(5)})
        a, b = f.eval_at_minus_one()
        approx = sum(
            c * (1j) ** e2 for e2, c in f.items2())
        assert abs(complex(a, b) - approx) < 1e-9


def test_eighth_root_hopf_gamma():
    # spanning-tree polynomial of the Hopf Tait graph
    gamma = hl((-8, -1), (8, -1))  # -A^(-4) - A^4
    # A^4 = -1 at A = zeta_8, so the value is -(-1) - (-1) = 2
    assert abs_at_primitive_eighth_root(gamma) == 2
    # a unit factor A^k leaves the absolute value alone
    assert abs_at_primitive_eighth_root(hl((8, 1))) == 1
    assert abs_at_primitive_eighth_root(gamma * hl((2, 1))) == 2


def test_eighth_root_requires_integer_exponents():
    with pytest.raises(SupportNotOnLattice):
        abs_at_primitive_eighth_root(hl((1, 1)))


def test_analyze_monomial():
    rep = analyze(HalfLaurent.one(), 2)
    assert rep.breadth2 == 0
    assert rep.gaps == ()
    assert rep.alternating


def test_analyze_hopf_square_two_gaps():
    rep = analyze(HOPF_JONES ** 2, 2)
    assert rep.breadth2 == 8
    assert rep.gaps == ((-8, 1), (-4, 1))
    assert rep.gap_count() == 2
    # +, +, + at even lattice distance: same residue class, still alternating
    assert rep.alternating


def test_analyze_wide_support_walks_the_terms_only():
    # breadth 10^9 in two terms: a walk over the lattice positions would
    # look up each of them
    class NoLookup(dict):
        def _lookup(self, e2, *default):
            raise AssertionError("coefficient of %r looked up" % (e2,))

        get = __getitem__ = __contains__ = _lookup

    f = parse("1 + t^1000000000")
    object.__setattr__(f, "_terms", NoLookup(f._terms))
    rep = analyze(f, 2)
    assert rep.gaps == ((2, 999999999),)
    assert rep.breadth2 == 2000000000 and rep.alternating


def test_analyze_alternating_flag():
    assert analyze(hl((0, 1), (2, -2), (4, 3)), 2).alternating
    assert not analyze(hl((0, 1), (2, 2)), 2).alternating
    # gap of odd length forces same sign across it
    assert analyze(hl((0, 1), (4, 1)), 2).alternating
    assert not analyze(hl((0, 1), (4, -1)), 2).alternating
    # mixed-sign two-cycle spanning-tree polynomial: -A^2 - A^(-2),
    # consecutive classes mod 8 with equal signs
    assert not analyze(hl((-4, -1), (4, -1)), 8).alternating


def test_analyze_lattice_validation():
    with pytest.raises(SupportNotOnLattice):
        analyze(hl((0, 1), (3, 1)), 2)
    with pytest.raises(ZeroPolynomial):
        analyze(HalfLaurent.zero(), 2)
    rep = analyze(hl((0, 1), (8, 1)), 8)
    assert rep.gaps == ()
    # a float step would report float gap starts, and True would be
    # read as the step 1
    for step2 in (2.0, True, False, 0, -2):
        with pytest.raises(ValueError,
                           match="step2 must be a positive integer"):
            analyze(hl((-5, -1), (-1, -1)), step2)


@pytest.mark.parametrize("terms", [
    ((-3, 1), (0, 1), (2, -1), (4, 1)),   # the first term is off
    ((0, 1), (2, -1), (3, 1), (4, 1)),    # an inner one
    ((0, 1), (2, -1), (4, 1), (7, 1)),    # the last one
], ids=["first", "inner", "last"])
def test_analyze_names_the_whole_support_wherever_it_leaves_the_lattice(
        terms):
    f = hl(*terms)
    support = tuple(e2 for e2, _ in terms)
    message = "support %r does not lie on a step-1 lattice" % (support,)
    with pytest.raises(SupportNotOnLattice) as info:
        analyze(f, 2)
    assert str(info.value) == message


def test_analyze_gap_interiority_and_budget():
    rng = random.Random(21)
    for _ in range(60):
        step2 = rng.choice([2, 4, 8])
        base = rng.randrange(-10, 10)
        terms = {base + step2 * k: rng.randrange(-4, 5)
                 for k in range(rng.randrange(1, 9))}
        f = HalfLaurent(terms)
        if f.is_zero():
            continue
        rep = analyze(f, step2)
        for start2, length in rep.gaps:
            assert f.min2() < start2
            assert start2 + (length - 1) * step2 < f.max2()
            for j in range(length):
                assert dict(f.items2()).get(start2 + j * step2, 0) == 0
        missing = sum(length for _, length in rep.gaps)
        assert missing < rep.breadth2 // step2 or rep.breadth2 == 0


def test_analyze_monomial_shift_invariance():
    rng = random.Random(5)
    for _ in range(40):
        f = HalfLaurent(
            {2 * rng.randrange(-8, 8): rng.randrange(-5, 6) for _ in range(4)})
        if f.is_zero():
            continue
        shift = 2 * rng.randrange(-6, 7)
        sign = rng.choice([1, -1])
        g = sign * f.shift2(shift)
        ra, rb = analyze(f, 2), analyze(g, 2)
        assert ra.breadth2 == rb.breadth2
        assert rb.gaps == tuple((s + shift, n) for s, n in ra.gaps)
        assert ra.alternating == rb.alternating


def test_breadth_multiplicative():
    rng = random.Random(11)
    for _ in range(60):
        f = HalfLaurent(
            {rng.randrange(-8, 8): rng.randrange(-5, 6) for _ in range(4)})
        g = HalfLaurent(
            {rng.randrange(-8, 8): rng.randrange(-5, 6) for _ in range(4)})
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).breadth2() == f.breadth2() + g.breadth2()


def test_gap_between_basic():
    one = HalfLaurent.one()
    assert gap_between(one, hl((2, 1)), 2) is None
    assert gap_between(one, hl((6, 1)), 2) == 2
    with pytest.raises(Overlap):
        gap_between(hl((2, 1)), hl((2, 1)), 2)
    with pytest.raises(Overlap):
        gap_between(hl((4, 1)), hl((0, 1)), 2)
    with pytest.raises(SupportNotOnLattice):
        gap_between(one, hl((3, 1)), 2)
    with pytest.raises(ZeroPolynomial):
        gap_between(one, HalfLaurent.zero(), 2)


def test_gap_between_a_lattice():
    # one bracket term at A^(-4), the other at A^4: distance 8 on the
    # integer A-lattice leaves 7 missing positions
    assert gap_between(hl((-8, -1)), hl((8, -1)), 2) == 7
    # same pair measured with step 4 in A: gap of length 1
    assert gap_between(hl((-8, -1)), hl((8, -1)), 8) == 1


def test_render_forms():
    assert HalfLaurent.zero().render() == "0"
    assert HalfLaurent.one().render() == "1"
    assert hl((0, -3)).render() == "-3"
    assert hl((2, 1)).render() == "t"
    assert hl((4, -2)).render() == "-2t^2"
    assert HOPF_JONES.render() == "-t^(-5/2) - t^(-1/2)"
    assert (HOPF_JONES ** 2).render() == "t^(-5) + 2t^(-3) + t^(-1)"
    assert hl((-8, -1), (8, -1)).render("A") == "-A^(-4) - A^4"
    assert hl((5, 1), (6, 4)).render() == "t^(5/2) + 4t^3"


def test_parse_round_trip():
    rng = random.Random(3)
    for _ in range(80):
        f = HalfLaurent(
            {rng.randrange(-9, 9): rng.randrange(-6, 7) for _ in range(5)})
        assert parse(f.render()) == f
        assert parse(f.render("A"), "A") == f


def test_parse_tolerant_forms():
    assert parse("2*t^3 - t") == hl((6, 2), (2, -1))
    assert parse("t^-2 + 1") == hl((-4, 1), (0, 1))
    assert parse(" -t^(-5/2)-t^(-1/2) ") == HOPF_JONES
    assert parse("t^(3/2)") == hl((3, 1))
    assert parse("0") == HalfLaurent.zero()
    assert parse("5") == hl((0, 5))
    with pytest.raises(ValueError):
        parse("t^(1/3)")
    with pytest.raises(ValueError):
        parse("q^2")
    # an exponent has both parentheses or neither
    assert parse("t^1/2") == hl((1, 1))
    for text in ("2t^(1/2", "t^1/2)"):
        with pytest.raises(ValueError, match="cannot parse exponent"):
            parse(text)
    # a variable starts with a letter, so a stray number is a bad term
    with pytest.raises(ValueError, match="cannot parse term '3 4'"):
        parse("3 4")


@pytest.mark.parametrize("text, message", [
    ("\u0663t^\u0662 - t", "cannot parse term '\u0663t^\u0662'"),
    ("\uff13t - t", "cannot parse term '\uff13t'"),
    ("t^\u0662", "cannot parse exponent '\u0662'"),
    ("t^(\u0661/2)", "cannot parse exponent '(\u0661/2)'"),
], ids=["arabic-indic", "fullwidth", "exponent", "half-exponent"])
def test_parse_takes_ascii_digits_only(text, message):
    # int() reads any decimal digit; the patterns admit only 0-9
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        parse(text)


def test_monomial_quotient():
    f = hl((0, 1), (4, -2))
    assert monomial_quotient(f.shift2(6), f) == (1, 6)
    assert monomial_quotient(-1 * f.shift2(-2), f) == (-1, -2)
    assert monomial_quotient(f, hl((0, 1))) is None
    assert monomial_quotient(f, hl((0, 1), (4, 2))) is None
    assert monomial_quotient(f, 2 * f) is None
