"""Exact Laurent polynomials on the half-integer lattice.

Exponents are stored doubled (the monomial t^(k/2) is keyed by the integer
k), so half-integer powers of t and integer powers of A live in one exact
integer representation with no floating point. Coefficients are arbitrary
precision integers.

The same class carries Jones polynomials in t^(1/2), Kauffman brackets
and Kauffman's subset expansion Gamma in A; only rendering cares which
letter is in play.
"""

from __future__ import annotations

import re
from math import isqrt

from ._util import _Record


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial got the zero one."""


class SupportNotOnLattice(ValueError):
    """The support does not fit a single arithmetic progression of the step."""


class HalfLaurent(_Record):
    """Immutable Laurent polynomial with doubled-integer exponents."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        # terms: mapping doubled exponent -> coefficient; zeros dropped here
        clean = {}
        if terms:
            for e2, c in dict(terms).items():
                if type(e2) is not int or type(c) is not int:
                    raise TypeError("doubled exponents and coefficients must be int")
                if c != 0:
                    clean[e2] = c
        object.__setattr__(self, "_terms", clean)

    # construction helpers

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    # inspection

    def items2(self) -> tuple:
        """Sorted (doubled exponent, coefficient) pairs."""
        return tuple(sorted(self._terms.items()))

    def support2(self) -> tuple:
        return tuple(sorted(self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    def min2(self) -> int:
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return min(self._terms)

    def max2(self) -> int:
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(self._terms)

    def breadth2(self) -> int:
        """max degree minus min degree, in doubled units; 0 for monomials."""
        return self.max2() - self.min2()

    # arithmetic

    def __add__(self, other):
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        out = dict(self._terms)
        for e2, c in other._terms.items():
            out[e2] = out.get(e2, 0) + c
        return HalfLaurent(out)

    def __neg__(self):
        return HalfLaurent({e2: -c for e2, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        out = dict(self._terms)
        for e2, c in other._terms.items():
            out[e2] = out.get(e2, 0) - c
        return HalfLaurent(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfLaurent({e2: c * other for e2, c in self._terms.items()})
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        out = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return HalfLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if type(n) is not int or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = HalfLaurent.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift2(self, k2: int) -> "HalfLaurent":
        """Multiply by x^(k2/2)."""
        return HalfLaurent({e2 + k2: c for e2, c in self._terms.items()})

    def __hash__(self):
        return hash(self.items2())

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return "HalfLaurent(%r)" % self.render()

    # evaluation

    def eval_at_minus_one(self) -> tuple:
        """Exact Gaussian integer (a, b) = a + b*i at x = -1, x^(1/2) = i."""
        re_ = im = 0
        for e2, c in self._terms.items():
            m = e2 % 4
            if m == 0:
                re_ += c
            elif m == 1:
                im += c
            elif m == 2:
                re_ -= c
            else:
                im -= c
        return re_, im

    def abs_at_minus_one(self) -> int:
        """|f(-1)| as an exact nonnegative integer."""
        a, b = self.eval_at_minus_one()
        n = a * a + b * b
        r = isqrt(n)
        if r * r != n:
            raise ValueError("|f(-1)| is not an integer")
        return r

    # rendering

    def render(self, var: str = "t") -> str:
        """Terms in increasing exponent order, "t^(-5/2)" style exponents."""
        if not self._terms:
            return "0"
        parts = []
        for e2, c in self.items2():
            mag = abs(c)
            if e2 == 0:
                body = str(mag)
            else:
                power = var if e2 == 2 else var + "^" + _exp_str(e2)
                body = power if mag == 1 else str(mag) + power
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)


def _half(e2: int) -> str:
    """e2 / 2 as str(Fraction(e2, 2)) writes it: "3", "-2", "5/2"."""
    return "%d/2" % e2 if e2 % 2 else str(e2 // 2)


def _exp_str(e2: int) -> str:
    return _half(e2) if e2 > 0 and e2 % 2 == 0 else "(%s)" % _half(e2)


_CHUNK = re.compile(
    r"^(?:([0-9]+)\s*\*?\s*)?"       # optional coefficient
    r"(?:(?P<var>[A-Za-z_]\w*)"      # optional variable
    r"(?:\^(?P<exp>.+))?)?$"         # optional exponent
)
# an exponent has both parentheses or neither
_EXP = re.compile(r"^(\()?\s*(-?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?(?(1)\))$")


def parse(text: str, var: str = "t") -> HalfLaurent:
    """Inverse of render; also tolerates '*' and unparenthesized exponents."""
    s = text.strip()
    if s in ("", "0"):
        return HalfLaurent.zero()
    chunks = []
    depth = 0
    start = 0
    prev = ""
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start and prev not in "^+-*(":
            chunks.append(s[start:i])
            start = i
        if not ch.isspace():
            prev = ch
    chunks.append(s[start:])
    terms = {}
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        m = _CHUNK.match(chunk)
        if not m or (m.group(1) is None and m.group("var") is None):
            raise ValueError("cannot parse term %r" % chunk)
        coeff = int(m.group(1)) if m.group(1) else 1
        if m.group("var") is None:
            e2 = 0
        else:
            if m.group("var") != var:
                raise ValueError(
                    "unexpected variable %r (wanted %r)" % (m.group("var"), var))
            exp_text = m.group("exp")
            if exp_text is None:
                e2 = 2
            else:
                em = _EXP.match(exp_text.strip())
                if not em:
                    raise ValueError("cannot parse exponent %r" % exp_text)
                num = int(em.group(2))
                den = int(em.group(3)) if em.group(3) else 1
                if den == 1:
                    e2 = 2 * num
                elif den == 2:
                    e2 = num
                else:
                    raise ValueError("only halves are supported: %r" % exp_text)
        terms[e2] = terms.get(e2, 0) + sign * coeff
    return HalfLaurent(terms)


class GapReport(_Record):
    """Support structure of a polynomial on an arithmetic lattice.

    breadth2/step2 are in doubled-exponent units; gaps is a tuple of
    (start2, length) where start2 is the doubled exponent of the first
    missing lattice position and length counts consecutive missing
    positions (in step units). alternating is true when some global sign
    makes every present coefficient's sign agree with the parity of its
    lattice index, so coefficients in the same residue class mod 2*step
    share a sign and adjacent classes oppose.
    """

    __slots__ = ("breadth2", "step2", "gaps", "alternating")

    def gap_count(self) -> int:
        return len(self.gaps)


def analyze(f: HalfLaurent, step2: int) -> GapReport:
    """Breadth, interior gaps, and sign alternation of f on the given lattice.

    step2 is the lattice step in doubled units (2 for integer steps in t,
    8 for the usual step of 4 on the A-exponent lattice).
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot analyze the zero polynomial")
    if type(step2) is not int or step2 <= 0:
        raise ValueError("step2 must be a positive integer")
    # one pass over the terms: each lies a whole number of steps past
    # its neighbour, a gap is a run of missing positions between
    # neighbours, and the signs alternate when every term gives one
    # answer to "positive exactly on an even lattice index?"
    items = f.items2()
    lo = items[0][0]
    gaps = []
    answers = set()
    prev = lo - step2
    for e2, c in items:
        steps, off = divmod(e2 - prev, step2)
        if off:
            raise SupportNotOnLattice(
                "support %r does not lie on a step-%s lattice"
                % (f.support2(), _half(step2)))
        if steps > 1:
            gaps.append((prev + step2, steps - 1))
        answers.add((c > 0) == ((e2 - lo) // step2 % 2 == 0))
        prev = e2
    return GapReport(
        breadth2=prev - lo,
        step2=step2,
        gaps=tuple(gaps),
        alternating=len(answers) == 1,
    )


def monomial_quotient(f: HalfLaurent, g: HalfLaurent):
    """(sign, shift2) with f = sign * x^(shift2/2) * g, or None."""
    fi = f.items2()
    gi = g.items2()
    if not fi or not gi or len(fi) != len(gi):
        return None
    shift2 = fi[0][0] - gi[0][0]
    c0f, c0g = fi[0][1], gi[0][1]
    if c0f == c0g:
        sign = 1
    elif c0f == -c0g:
        sign = -1
    else:
        return None
    for (ef, cf), (eg, cg) in zip(fi, gi):
        if ef - eg != shift2 or cf != sign * cg:
            return None
    return sign, shift2
