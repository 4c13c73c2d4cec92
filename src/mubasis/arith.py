"""Sparse multivariate polynomial and polynomial-matrix arithmetic over Q.

A polynomial is stored as integer numerators over one denominator: ``num``
maps packed monomial keys (``Packing``: one int per monomial, compared in
grevlex order, and a monomial product is a sum of keys) to nonzero ints,
and ``den`` is a positive int coprime to the content of ``num`` (1 for the
zero polynomial), so every value has exactly one form.  ``terms`` is a
read-only {exponent tuple: Fraction} view for printing and for callers that
want rationals.  The two working rings are Q[s,t] and Q[s,t,u]; a ring is
identified by its tuple of variable names.  All operations are pure and all
values are immutable after construction.  A total degree past
MAX_PACKED_DEGREE (32767) raises ResourceLimitError.

Data is validated at the boundary and trusted inside: ``Poly(vars, terms)``
checks every term and packs it once, and arithmetic builds its results with
``Poly._new`` (already canonical) or ``Poly._reduced`` (one gcd pass, which
stops as soon as the gcd reaches 1).  Sums, products, exact quotients and
matrix products are integer dict loops on the keys as stored; exponent
tuples appear only in the constructor, ``terms``, ``str`` and
``homogenize``.  Matrix products bring each row and column to one
denominator, accumulate over Z and reduce once per output entry.
``PolyMatrix.det`` stays a memoized cofactor expansion, measured faster
than fraction-free Bareiss elimination at the pipeline's sizes; on integer
entries it never leaves Z.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .errors import InternalError, ResourceLimitError

VARS_ST = ("s", "t")
VARS_STU = ("s", "t", "u")

#: Degree of the zero polynomial.  Excluded from every max-degree computation.
NEG_INF = float("-inf")

Monomial = tuple  # exponent tuple, one entry per ring variable

MAX_PACKED_DEGREE = (1 << 15) - 1  # largest total degree of a packed monomial


class Packing:
    """Terms (position, monomial) over n variables packed into one int each
    (Monagan and Pearce, J. Symbolic Comput. 46, 2011).  From the high bits
    down, 16-bit fields with a zero top (guard) bit hold the degree S_n, the
    partial sums S_(n-1), ..., S_1 (S_k = e_1 + ... + e_k), P - pos (P =
    2^15 - 1; 0 in a monomial key, the keys of ``Poly.num``) and e_n, ...,
    e_1.  So comparing keys is grevlex (s > t > u), ties broken by position
    (e_1 > e_2 > ...), and a product is a sum of keys; weights[i] is the key
    of the i-th variable.  A lead l divides a term t of its position when
    (t + guard) - l keeps every guard bit and has a zero position field, and
    t - l is then the quotient.  Keys are exact up to MAX_PACKED_DEGREE and
    an overflow carries into the degree, so ``check`` (key < limit) guards
    every packed result."""

    def __init__(self, n: int):
        self.weights = [(1 << 16 * i) + sum(1 << 16 * f for f in range(n + i + 1, 2 * n + 1))
                        for i in range(n)]  # e_(i+1) in field i and in S_(i+1), ..., S_n
        self.pos_shift, self.top = 16 * n, 32 * n
        self.guard, self.pos_mask = sum(1 << 16 * i + 15 for i in range(n)), 0xFFFF << 16 * n
        self.div_mask = self.guard | self.pos_mask
        self.limit = (MAX_PACKED_DEGREE + 1) << self.top
        self._size, self._words = 4 * n + 2, struct.Struct(f"<{n}H").unpack_from

    def check(self, key: int) -> int:
        if key >= self.limit:
            raise ResourceLimitError(f"a monomial degree exceeds {MAX_PACKED_DEGREE}")
        return key

    def shift(self, pos: int) -> int:
        """What turns a monomial key into the key of its term at position pos."""
        if not 0 <= pos < 0x8000:
            raise ResourceLimitError(f"module position {pos} exceeds {0x7FFF}")
        return 0x7FFF - pos << self.pos_shift

    def pack_terms(self, num: Mapping, pos: int | None = None) -> dict:
        """{key: c} of {exponent tuple: c}: monomials, or terms at position pos."""
        shift, weights = 0 if pos is None else self.shift(pos), self.weights
        out = {sum(map(mul, m, weights)) + shift: c for m, c in num.items()}
        self.check(max(out, default=0))
        return out

    def pack(self, mono: Monomial, pos: int | None = None) -> int:
        return next(iter(self.pack_terms({mono: 1}, pos)))

    def unpack(self, key: int) -> Monomial:
        return self._words(key.to_bytes(self._size, "little"))

    def unpack_terms(self, terms: Mapping) -> dict:
        """{exponent tuple: c} of the nonzero terms of {key: c}."""
        self.check(max(terms, default=0))
        words, size = self._words, self._size
        return {words(k.to_bytes(size, "little")): c for k, c in terms.items() if c}

    def position(self, key: int) -> int:
        return 0x7FFF - (key >> self.pos_shift & 0x7FFF)

    def degree(self, key: int) -> int:
        return key >> self.top

    def exponent(self, key: int, i: int) -> int:  # of the i-th variable
        return key >> 16 * i & 0x7FFF

    def divides(self, lead: int, key: int) -> bool:
        return (key + self.guard - lead) & self.div_mask == self.guard

    def lcm(self, a: int, b: int) -> int:
        """Key of the lcm of the terms a and b, at the position of a."""
        words, size = self._words, self._size
        mono = map(max, words(a.to_bytes(size, "little")), words(b.to_bytes(size, "little")))
        return self.check(sum(map(mul, mono, self.weights)) + (a & self.pos_mask))


packing = cache(Packing)  # packing(n): the one Packing of n variables, built on first use


def _content(num: Mapping, g: int = 0) -> int:
    """gcd of g and every value of num, stopping as soon as it is 1."""
    for c in num.values():
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational scalar."""
    x = x if isinstance(x, (int, Fraction)) else Fraction(x)
    return x.numerator, x.denominator


def decimal_str(x) -> str:
    """str(x) of an int or Fraction of any length: past the interpreter's
    digit limit (4300 by default) str refuses, so it is written by halves."""
    try:
        return str(x)
    except ValueError:
        num, den = _ratio(x)
        if den != 1:
            return f"{decimal_str(num)}/{decimal_str(den)}"
        k = num.bit_length() * 3 // 20  # about half the digits
        high, low = divmod(abs(num), 10 ** k)
        return "-" * (num < 0) + decimal_str(high) + decimal_str(low).zfill(k)


def decimal_int(digits: str) -> int:
    """int(digits) of a string of ASCII digits of any length (decimal_str)."""
    try:
        return int(digits)
    except ValueError:
        if not (digits.isascii() and digits.isdigit()):
            raise
        k = len(digits) // 2
        return decimal_int(digits[:k]) * 10 ** (len(digits) - k) + decimal_int(digits[k:])


def _common_denominator(terms: Mapping) -> tuple[dict, int]:
    """(num, den) of nonzero Fraction terms: den the lcm of their
    denominators and num the integer terms of den * terms, a canonical pair."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


@cache
def monomials_of_degree(nvars: int, k: int) -> tuple[Monomial, ...]:
    """All exponent tuples in nvars variables of total degree exactly k, by
    increasing first exponent; memoized, so the result is an immutable tuple."""
    if nvars == 1:
        return ((k,),)
    return tuple((e,) + rest for e in range(k + 1)
                 for rest in monomials_of_degree(nvars - 1, k - e))


@cache
def monomial_keys(nvars: int, k: int) -> tuple[int, ...]:
    """The packed keys of monomials_of_degree(nvars, k), in its order."""
    return tuple(packing(nvars).pack_terms(dict.fromkeys(monomials_of_degree(nvars, k), 1)))


class Poly:
    """A polynomial over Q, num / den: num maps packed monomial keys of
    packing(len(vars)) to nonzero ints, den > 0 is coprime to the content of
    num, and zero has den 1.  Total degrees are at most MAX_PACKED_DEGREE."""

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: tuple[str, ...], terms: Mapping[Monomial, Fraction]):
        self.vars = tuple(vars)
        clean = {}
        n = len(self.vars)
        for mono, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = tuple(int(e) for e in mono)
            if len(mono) != n or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent tuple {mono} for ring {self.vars}")
            clean[mono] = clean.get(mono, 0) + c
        num, self.den = _common_denominator({m: c for m, c in clean.items() if c})
        self.num = packing(n).pack_terms(num)

    # -- constructors -------------------------------------------------

    @classmethod
    def _new(cls, vars: tuple[str, ...], num: dict, den: int = 1) -> "Poly":
        """Trusted constructor of a canonical pair: vars is a tuple, num maps
        monomial keys of packing(len(vars)) to nonzero ints, and den > 0 is
        coprime to their content.  The dict is taken over, not copied."""
        p = object.__new__(cls)
        p.vars = vars
        p.num = num
        p.den = den
        return p

    @classmethod
    def _reduced(cls, vars: tuple[str, ...], num: dict, den: int, g: int | None = None) -> "Poly":
        """Trusted constructor of num / den (nonzero int terms, den > 0),
        divided by gcd(content(num), den).  g, when given, is a divisor of den
        that the gcd divides; g = 1 skips the pass."""
        if num and g != 1:
            g = _content(num, den if g is None else g)
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        return cls._new(vars, num, den if num else 1)

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "Poly":
        return cls._new(tuple(vars), {})

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "Poly":
        n, d = _ratio(value)
        return cls._new(tuple(vars), {0: n} if n else {}, d)

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "Poly":
        if name not in vars:
            raise ValueError(f"variable {name!r} not in ring {vars}")
        return cls._new(tuple(vars), {packing(len(vars)).weights[vars.index(name)]: 1})

    # -- predicates and views -----------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: Fraction}, built afresh on every access."""
        den, unpack = self.den, packing(len(self.vars)).unpack
        return {unpack(m): Fraction(c, den) for m, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return self.num.keys() <= {0}

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 for the zero polynomial)."""
        return Fraction(self.num.get(0, 0), self.den)

    @property
    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.num:
            return NEG_INF
        return packing(len(self.vars)).degree(max(self.num))

    def is_homogeneous(self) -> bool:
        top = packing(len(self.vars)).top
        return len({m >> top for m in self.num}) <= 1

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(f"mixed rings: {self.vars} vs {other.vars}")
            return other
        return Poly.const(self.vars, other)

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign * other, over lcm(den, other.den).  Only a common
        factor g of the two denominators can divide the sum's content and
        its denominator, so the gcd pass runs against g."""
        other = self._coerce(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        fa, fb = db // g, sign * (da // g)
        num = dict(self.num) if fa == 1 else {m: c * fa for m, c in self.num.items()}
        get = num.get
        for m, c in other.num.items():
            c = get(m, 0) + c * fb
            if c:
                num[m] = c
            else:
                del num[m]
        return Poly._reduced(self.vars, num, da * fa, g)

    def __add__(self, other) -> "Poly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._new(self.vars, {m: -c for m, c in self.num.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        """Product on keys; the leading key, checked, is the sum of the operands'."""
        if not isinstance(other, Poly):
            return self._times(*_ratio(other))
        a, b = self.num, self._coerce(other).num
        packing(len(self.vars)).check(max(a, default=0) + max(b, default=0))
        out: dict[int, int] = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return Poly._reduced(self.vars, {m: c for m, c in out.items() if c},
                             self.den * other.den)

    __rmul__ = __mul__

    def _times(self, n: int, d: int = 1, shift: int = 0) -> "Poly":
        """self * (n/d) * x^shift for coprime n, d with d > 0, shift a monomial
        key.  The new denominator's common factors with the content are those
        of d with the content and of n with den: one gcd each."""
        if not n or not self.num:
            return Poly.zero(self.vars)
        g1 = _content(self.num, d) if d != 1 else 1
        g2 = gcd(n, self.den)
        n //= g2
        den = self.den // g2 * (d // g1)
        if shift:
            packing(len(self.vars)).check(max(self.num) + shift)
        return Poly._new(self.vars, {m + shift: c // g1 * n for m, c in self.num.items()}, den)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = Poly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def monic(self) -> "Poly":
        """Scale so the grevlex leading coefficient is 1."""
        if self.is_zero():
            return self
        lc = self.num[max(self.num)]
        sign = 1 if lc > 0 else -1
        return Poly._reduced(self.vars, {m: sign * c for m, c in self.num.items()}, sign * lc)

    # -- comparison / hashing / printing -------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.num.items())))

    def __str__(self) -> str:
        """Canonical form: grevlex-descending terms, lowest-term coefficients."""
        if not self.num:
            return "0"
        unpack = packing(len(self.vars)).unpack
        parts = []
        for key in sorted(self.num, reverse=True):
            c = Fraction(self.num[key], self.den)
            factors = []
            for v, e in zip(self.vars, unpack(key)):
                if e == 1:
                    factors.append(v)
                elif e >= 2:
                    factors.append(f"{v}^{e}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([decimal_str(mag)] + factors)
            else:
                body = decimal_str(mag)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


def exact_div(f: Poly, g: Poly) -> Poly | None:
    """Return f/g when g divides f exactly, else None.

    Divides num(f) by the primitive part G of num(g) on ints and keys, in
    one loop over a working dict.  When G divides num(f) over Q the
    quotient has integer coefficients (Gauss's lemma), so every step divides
    exactly by lc(G), and a step that does not proves g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return Poly.zero(f.vars)
    if f.vars != g.vars:
        raise ValueError("mixed rings")
    cg = _content(g.num)
    gnum = g.num if cg == 1 else {m: c // cg for m, c in g.num.items()}
    g_lm = max(gnum)
    g_lc = gnum[g_lm]
    divides = packing(len(f.vars)).divides
    work = dict(f.num)
    q: dict[int, int] = {}
    while work:
        lm = max(work)
        if not divides(g_lm, lm):
            return None
        c, r = divmod(work[lm], g_lc)
        if r:
            return None
        mono = lm - g_lm
        q[mono] = c
        for m, b in gnum.items():
            m += mono
            val = work.get(m, 0) - b * c
            if val:
                work[m] = val
            else:
                del work[m]
    # f / g = (q * G / den f) / (cg * G / den g)
    return Poly._new(f.vars, q, f.den)._times(g.den, cg)


# ---------------------------------------------------------------------------
# Gcd: a primitive pseudo-remainder sequence over Z for univariate operands;
# otherwise content/primitive-part recursion over a main variable with a
# subresultant pseudo-remainder sequence over the other variables.
# ---------------------------------------------------------------------------


def _as_univar(p: Poly, i: int) -> dict[int, Poly]:
    """View p as a polynomial in vars[i] with coefficients in the other vars."""
    pk = packing(len(p.vars))
    parts: dict[int, dict] = {}
    for key, c in p.num.items():
        e = pk.exponent(key, i)
        parts.setdefault(e, {})[key - e * pk.weights[i]] = c
    return {e: Poly._reduced(p.vars, num, p.den) for e, num in parts.items()}


def _from_univar(coeffs: dict[int, Poly], i: int, vars: tuple[str, ...]) -> Poly:
    """Inverse of _as_univar: coefficients free of vars[i], over one
    denominator (their lcm, which keeps the pair canonical)."""
    den, nums = _integer_scaled(list(coeffs.values()))
    w = packing(len(vars)).weights[i]
    terms: dict[int, int] = {}
    for e, num in zip(coeffs, nums):
        for key, c in num.items():
            terms[key + e * w] = c
    return Poly._new(vars, terms, den)


def _prem(f: dict[int, Poly], g: dict[int, Poly], vars) -> dict[int, Poly]:
    """Pseudo-remainder of f by g in the main variable: lc(g)^(d+1) f mod g."""
    df, dg = max(f), max(g)
    lcg = g[dg]
    r = dict(f)
    steps = df - dg + 1
    while r and max(r) >= dg:
        dr = max(r)
        lcr = r[dr]
        r = {e: c * lcg for e, c in r.items()}
        for e, c in g.items():
            shift = e + dr - dg
            val = r.get(shift, Poly.zero(vars)) - c * lcr
            if val.is_zero():
                r.pop(shift, None)
            else:
                r[shift] = val
        steps -= 1
    scale = lcg ** steps if steps > 0 else None
    if scale is not None:
        r = {e: c * scale for e, c in r.items()}
    return r


_GCD_PRIMES = (2147483647, 2147483629, 2147483587)  # for _coprime_image, in order


def _coprime_image(a: list[int], b: list[int]) -> bool:
    """True when the images of the primitive dense polynomials a, b modulo
    the first p of _GCD_PRIMES not dividing both leading coefficients have a
    constant gcd (Euclid over F_p).  That proves gcd(a, b) = 1: p does not
    divide lc(gcd), so the gcd's image keeps its degree and divides both."""
    p = next((p for p in _GCD_PRIMES if a[-1] % p or b[-1] % p), None)
    if p is None:
        return False
    u, v = ([c % p for c in w] for w in (a, b))
    while any(v):
        while not v[-1]:
            v.pop()
        inv = pow(v[-1], -1, p)
        while len(u) >= len(v):  # u mod v, top term first
            x, k = u.pop() * inv % p, len(u) + 1 - len(v)
            for j in range(len(v) - 1):
                u[k + j] = (u[k + j] - x * v[j]) % p
        u, v = v, u
    return len(u) == 1


def _uni_gcd(f: Poly, g: Poly, i: int) -> Poly:
    """gcd of f, g univariate in variable i, as a primitive polynomial over
    Z, by the primitive pseudo-remainder sequence on dense coefficient lists
    (constant term first).  Each step pseudo-divides by the primitive
    divisor b, scaling by lc(b)/gcd(lc(b), top) so the top term cancels, and
    makes the remainder primitive; the last nonzero remainder is the gcd.
    Coprime operands are settled first by _coprime_image."""
    pk = packing(len(f.vars))
    seqs = []
    for p in (f, g):
        dense = [0] * (pk.degree(max(p.num)) + 1)
        for m, c in p.num.items():
            dense[pk.exponent(m, i)] = c
        content = gcd(*dense)
        seqs.append([c // content for c in dense])
    a, b = sorted(seqs, key=len, reverse=True)
    if _coprime_image(a, b):
        return Poly.const(f.vars, 1)
    while len(b) > 1:
        lc, n = b[-1], len(b) - 1
        r = a
        while len(r) > n:
            h = gcd(lc, r[-1])
            x, y, k = lc // h, r[-1] // h, len(r) - 1 - n
            r = r[:-1] if x == 1 else [c * x for c in r[:-1]]
            for j in range(n):
                r[k + j] -= y * b[j]
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        content = gcd(*r)
        a, b = b, [c // content for c in r]
    else:
        return Poly.const(f.vars, 1)
    return Poly._new(f.vars, {e * pk.weights[i]: c for e, c in enumerate(b) if c})


def _poly_gcd(f: Poly, g: Poly) -> Poly:
    """gcd up to a constant; result not normalized."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.is_constant() or g.is_constant():
        return Poly.const(f.vars, 1)
    # main variable: last variable occurring in either operand
    exponent = packing(len(f.vars)).exponent
    occupied = [i for i in range(len(f.vars))
                if any(exponent(m, i) for m in f.num) or any(exponent(m, i) for m in g.num)]
    if len(occupied) == 1:
        return _uni_gcd(f, g, occupied[0])
    i = occupied[-1]
    fu, gu = _as_univar(f, i), _as_univar(g, i)
    cont_f = _gcd_many_raw(list(fu.values()))
    cont_g = _gcd_many_raw(list(gu.values()))
    cont = _poly_gcd(cont_f, cont_g)
    pf = {e: _exact(c, cont_f) for e, c in fu.items()}
    pg = {e: _exact(c, cont_g) for e, c in gu.items()}
    if max(pf) < max(pg):
        pf, pg = pg, pf
    # subresultant PRS
    one = Poly.const(f.vars, 1)
    gg, hh = one, one
    a, b = pf, pg
    while True:
        delta = max(a) - max(b)
        r = _prem(a, b, f.vars)
        if not r:
            break
        if max(r) == 0:
            b = {0: one}
            break
        divisor = gg * hh**delta
        a, b = b, {e: _exact(c, divisor) for e, c in r.items()}
        gg = a[max(a)]
        hh = _exact(gg**delta, hh ** (delta - 1)) if delta >= 1 else hh
    if max(b) == 0:
        prim = one
    else:
        cont_b = _gcd_many_raw(list(b.values()))
        prim = _from_univar({e: _exact(c, cont_b) for e, c in b.items()}, i, f.vars)
    return cont * prim


def _exact(f: Poly, g: Poly) -> Poly:
    q = exact_div(f, g)
    if q is None:
        raise InternalError("inexact division inside gcd computation")
    return q


def _gcd_many_raw(ps: Sequence[Poly]) -> Poly:
    g = ps[0]
    for p in ps[1:]:
        if g.is_constant() and not g.is_zero():
            break
        g = _poly_gcd(g, p)
    return g


def gcd_many(ps: Iterable[Poly]) -> Poly:
    """gcd of a family, normalized so the grevlex leading coefficient is 1.

    Raises ValueError when every input is zero.
    """
    ps = list(ps)
    if not ps:
        raise ValueError("undefined gcd of zero family")
    vars = ps[0].vars
    nonzero = [p for p in ps if not p.is_zero()]
    if not nonzero:
        raise ValueError("undefined gcd of zero family")
    for p in nonzero:
        if p.vars != vars:
            raise ValueError("mixed rings")
    return _gcd_many_raw(nonzero).monic()


# ---------------------------------------------------------------------------
# Homogenization between Q[s,t] and Q[s,t,u]
# ---------------------------------------------------------------------------


def homogenize(p: Poly, d: int) -> Poly:
    """Pass from p(s,t) to the degree-d homogeneous u^d p(s/u, t/u)."""
    if p.vars != VARS_ST:
        raise ValueError("homogenize expects a polynomial in (s, t)")
    if not p.is_zero() and p.degree > d:
        raise ValueError(f"degree {p.degree} exceeds target degree {d}")
    terms = {(a, b, d - a - b): c for (a, b), c in packing(2).unpack_terms(p.num).items()}
    return Poly._new(VARS_STU, packing(3).pack_terms(terms), p.den)


def dehomogenize(p: Poly) -> Poly:
    """Specialize u := 1, landing back in Q[s,t]."""
    if p.vars != VARS_STU:
        raise ValueError("dehomogenize expects a polynomial in (s, t, u)")
    pk, (ws, wt) = packing(3), packing(2).weights
    out: dict[int, int] = {}
    for key, c in p.num.items():
        m = pk.exponent(key, 0) * ws + pk.exponent(key, 1) * wt
        out[m] = out.get(m, 0) + c
    return Poly._reduced(VARS_ST, {m: c for m, c in out.items() if c}, p.den)


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


def _integer_scaled(polys: Sequence[Poly]) -> tuple[int, list[dict]]:
    """(den, nums): den the lcm of the denominators of polys, and nums[k]
    the integer terms of den * polys[k]."""
    den = lcm(*(p.den for p in polys))
    return den, [p.num if p.den == den else {m: c * (den // p.den) for m, c in p.num.items()}
                 for p in polys]


def _scaled_dot(row, col, vars, pk: Packing) -> Poly:
    """sum_k row[k] * col[k] for a _integer_scaled row and a column given as
    (den, the (k, terms) of its nonzero entries), in the ring of pk: one
    integer accumulation over the pairs with both entries nonzero, where a
    monomial product is a sum of keys, then one gcd pass."""
    (den_r, a), (den_c, b) = row, col
    out: dict[int, int] = {}
    get = out.get
    for k, y in b:
        for m1, c1 in a[k].items():
            for m2, c2 in y.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    pk.check(max(out, default=0))
    return Poly._reduced(vars, {m: c for m, c in out.items() if c}, den_r * den_c)


def primitive_scale(polys: Iterable[Poly]) -> Fraction:
    """Constant c > 0 making c times the given polynomials coprime integer
    polynomials (1 when every one is zero)."""
    polys = [p for p in polys if p.num]
    den = lcm(*(p.den for p in polys))
    g = 0
    for p in polys:
        g = gcd(g, _content(p.num) * (den // p.den))
        if g == 1:
            break
    return Fraction(den, g or 1)


class PolyMatrix:
    """Rectangular matrix of Poly entries sharing one ring."""

    __slots__ = ("vars", "rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        self.rows = len(rows)
        self.cols = len(rows[0])
        if any(len(r) != self.cols for r in rows):
            raise ValueError("ragged matrix")
        self.vars = rows[0][0].vars
        for r in rows:
            for p in r:
                if p.vars != self.vars:
                    raise ValueError("mixed rings in matrix")
        self.entries = rows

    @classmethod
    def identity(cls, n: int, vars: tuple[str, ...]) -> "PolyMatrix":
        one, zero = Poly.const(vars, 1), Poly.zero(vars)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        cols = [list(c) for c in columns]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> list[Poly]:
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self) -> list[list[Poly]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix([[fn(p) for p in row] for row in self.entries])

    @property
    def degree(self):
        """Max entry degree; NEG_INF when every entry is zero."""
        degs = [p.degree for row in self.entries for p in row if not p.is_zero()]
        return max(degs) if degs else NEG_INF

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        if other.vars != self.vars:
            raise ValueError("mixed rings in matrix product")
        pk = packing(len(self.vars))
        rows = list(map(_integer_scaled, self.entries))
        cols = [(den, [(k, y) for k, y in enumerate(nums) if y])
                for den, nums in map(_integer_scaled, other.columns())]
        return PolyMatrix([[_scaled_dot(row, col, self.vars, pk) for col in cols]
                           for row in rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows) for j in range(self.cols))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"

    def maximal_minors(self):
        """Yield (rows, minor) for every maximal minor of an m x n matrix,
        m >= n, row subsets in lexicographic order, each computed when asked.
        All minors share one memoized expansion, so a smaller minor on the
        trailing columns is computed once however many minors contain it."""
        if self.rows < self.cols:
            raise ValueError("expected at least as many rows as columns")
        minor = self._minor_expansion()
        for rows in combinations(range(self.rows), self.cols):
            yield rows, minor(rows)

    def det(self) -> Poly:
        """Determinant by the memoized minor expansion."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return self._minor_expansion()(tuple(range(self.rows)))

    def _minor_expansion(self):
        """minor(rows): the minor on the ascending row subset rows and the
        last len(rows) columns, expanded along its first column and memoized
        on row subsets."""
        n = self.cols
        zero = Poly.zero(self.vars)
        memo: dict[tuple[int, ...], Poly] = {(): Poly.const(self.vars, 1)}

        def minor(rows: tuple[int, ...]) -> Poly:
            cached = memo.get(rows)
            if cached is not None:
                return cached
            col = n - len(rows)
            acc = zero
            for pos, i in enumerate(rows):
                a = self.entries[i][col]
                if a.is_zero():
                    continue
                term = a * minor(rows[:pos] + rows[pos + 1:])
                acc = acc + term if pos % 2 == 0 else acc - term
            memo[rows] = acc
            return acc

        return minor


def mat_inverse(m: PolyMatrix) -> tuple[PolyMatrix, Fraction]:
    """Invert a square matrix whose determinant is a nonzero constant.

    Faddeev-LeVerrier on A = m: with M_1 = I, c_(n-k) = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_(n-k) I, Cayley-Hamilton gives A M_n = -c_0 I, so
    A^-1 = -M_n / c_0 and det A = (-1)^n c_0.  Only n products and divisions
    by integers are needed, no cofactors.  Returns (A^-1, det A).  The
    product A A^-1 = I is checked exactly, which over a commutative ring
    gives A^-1 A = I too; a mismatch indicates a bug and raises
    InternalError.
    """
    if m.rows != m.cols:
        raise ValueError("cannot invert a non-square matrix")
    n = m.rows
    mk = PolyMatrix.identity(n, m.vars)
    for k in range(1, n + 1):
        amk = m * mk
        c = sum((amk[i, i] for i in range(n)), Poly.zero(m.vars)) * Fraction(-1, k)
        if k < n:
            for i in range(n):
                amk.entries[i][i] = amk.entries[i][i] + c
            mk = amk
    if c.is_zero() or not c.is_constant():
        raise ValueError("not invertible over the polynomial ring")
    c0 = c.constant_value()
    inv = mk.map_entries(lambda p: p * (-1 / c0))
    if m * inv != PolyMatrix.identity(n, m.vars):
        raise InternalError("matrix inverse verification failed")
    return inv, c0 if n % 2 == 0 else -c0
