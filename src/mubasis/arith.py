"""Sparse multivariate polynomial and polynomial-matrix arithmetic over Q.

Polynomials are dictionaries mapping exponent tuples to nonzero Fraction
coefficients.  The two working rings are Q[s,t] and Q[s,t,u]; a ring is
identified by its tuple of variable names.  All operations are pure and all
values are immutable after construction.

Data is validated at the boundary and trusted inside: ``Poly(vars, terms)``
checks every term, and arithmetic builds its results with ``Poly._new``.
Matrix products scale each row and column to integer coefficients,
accumulate over Z and divide once per output term.  ``PolyMatrix.det``
stays a memoized cofactor expansion, measured faster than fraction-free
Bareiss elimination at the pipeline's sizes (at most 6x6, low degree).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, le, sub
from typing import Iterable, Mapping, Sequence

from .errors import InternalError

VARS_ST = ("s", "t")
VARS_STU = ("s", "t", "u")

#: Degree of the zero polynomial.  Excluded from every max-degree computation.
NEG_INF = float("-inf")

Monomial = tuple  # exponent tuple, one entry per ring variable


def grevlex_key(mono: Monomial):
    """Sort key realizing graded reverse lexicographic order (s > t > u)."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a divides b."""
    return all(map(le, a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    """Exponent vector of a/b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _accumulate(out: dict, t1: Mapping, t2: Mapping) -> None:
    """Add the product of term dicts t1, t2 into out, zeros left to drop."""
    get = out.get
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = tuple(map(add, m1, m2))
            out[m] = get(m, 0) + c1 * c2


def monomials_of_degree(nvars: int, k: int) -> list[Monomial]:
    """All exponent tuples in nvars variables of total degree exactly k."""
    if nvars == 1:
        return [(k,)]
    out = []
    for e in range(k + 1):
        out.extend((e,) + rest for rest in monomials_of_degree(nvars - 1, k - e))
    return out


class Poly:
    """A polynomial over Q, stored as {exponent tuple: nonzero Fraction}."""

    __slots__ = ("vars", "terms")

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
            clean[mono] = clean.get(mono, Fraction(0)) + c
        self.terms = {m: c for m, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def _new(cls, vars: tuple[str, ...], terms: dict) -> "Poly":
        """Trusted constructor: vars is a tuple and terms already maps int
        exponent tuples of ring length to nonzero Fractions.  The dict is
        taken over, not copied or checked."""
        p = object.__new__(cls)
        p.vars = vars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, vars: tuple[str, ...]) -> "Poly":
        return cls._new(tuple(vars), {})

    @classmethod
    def const(cls, vars: tuple[str, ...], value) -> "Poly":
        return cls(vars, {(0,) * len(vars): Fraction(value)})

    @classmethod
    def variable(cls, vars: tuple[str, ...], name: str) -> "Poly":
        if name not in vars:
            raise ValueError(f"variable {name!r} not in ring {vars}")
        mono = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {mono: Fraction(1)})

    # -- predicates and views -----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term (0 for the zero polynomial)."""
        return self.terms.get((0,) * len(self.vars), Fraction(0))

    @property
    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grevlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.vars != self.vars:
                raise ValueError(f"mixed rings: {self.vars} vs {other.vars}")
            return other
        return Poly.const(self.vars, other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            c += terms.get(m, 0)
            if c:
                terms[m] = c
            else:
                del terms[m]
        return Poly._new(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._new(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = Fraction(other)
            if not c:
                return Poly.zero(self.vars)
            return Poly._new(self.vars, {m: v * c for m, v in self.terms.items()})
        out: dict[Monomial, Fraction] = {}
        _accumulate(out, self.terms, self._coerce(other).terms)
        return Poly._new(self.vars, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

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

    def term_mul(self, mono: Monomial, coeff: Fraction) -> "Poly":
        """Multiply by a single term coeff * x^mono."""
        coeff = Fraction(coeff)
        if not coeff:
            return Poly.zero(self.vars)
        return Poly._new(self.vars, {mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def monic(self) -> "Poly":
        """Scale so the grevlex leading coefficient is 1."""
        if self.is_zero():
            return self
        lc = self.leading_coefficient()
        return self * (Fraction(1) / lc)

    def substitute(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Substitute polynomials (of the same ring) for variables.

        Each power of a substituted value is computed once per call."""
        values = []
        for v in self.vars:
            img = mapping.get(v)
            values.append(self._coerce(img) if img is not None else Poly.variable(self.vars, v))
        powers: dict = {}  # (variable index, exponent) -> value**exponent
        out = Poly.zero(self.vars)
        for mono, c in self.terms.items():
            term = Poly.const(self.vars, c)
            for i, e in enumerate(mono):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = values[i]**e
                    term = term * powers[i, e]
            out = out + term
        return out

    def set_var(self, name: str, value) -> "Poly":
        """Specialize one variable to a rational constant (same ring)."""
        i = self.vars.index(name)
        value = Fraction(value)
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            e = mono[i]
            scaled = c * value**e
            if scaled == 0:
                continue
            m = mono[:i] + (0,) + mono[i + 1:]
            out[m] = out.get(m, Fraction(0)) + scaled
        return Poly(self.vars, out)

    # -- comparison / hashing / printing -------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.vars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        """Canonical form: grevlex-descending terms, lowest-term coefficients."""
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[mono]
            factors = []
            for v, e in zip(self.vars, mono):
                if e == 1:
                    factors.append(v)
                elif e >= 2:
                    factors.append(f"{v}^{e}")
            mag = abs(c)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


def exact_div(f: Poly, g: Poly) -> Poly | None:
    """Return f/g when g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return Poly.zero(f.vars)
    if f.vars != g.vars:
        raise ValueError("mixed rings")
    q: dict[Monomial, Fraction] = {}
    rem = f
    g_lm = g.leading_monomial()
    g_lc = g.leading_coefficient()
    while not rem.is_zero():
        lm = rem.leading_monomial()
        if not mono_divides(g_lm, lm):
            return None
        mono = mono_div(lm, g_lm)
        coeff = rem.terms[lm] / g_lc
        q[mono] = coeff
        rem = rem - g.term_mul(mono, coeff)
    return Poly(f.vars, q)


def divides(g: Poly, f: Poly) -> bool:
    return exact_div(f, g) is not None


# ---------------------------------------------------------------------------
# Multivariate gcd: content/primitive-part recursion over a main variable,
# subresultant pseudo-remainder sequence for the univariate step.
# ---------------------------------------------------------------------------


def _as_univar(p: Poly, i: int) -> dict[int, Poly]:
    """View p as a polynomial in vars[i] with coefficients in the other vars."""
    out: dict[int, Poly] = {}
    for mono, c in p.terms.items():
        e = mono[i]
        m = mono[:i] + (0,) + mono[i + 1:]
        coeff = out.get(e)
        add = Poly(p.vars, {m: c})
        out[e] = add if coeff is None else coeff + add
    return {e: c for e, c in out.items() if not c.is_zero()}


def _from_univar(coeffs: dict[int, Poly], i: int, vars: tuple[str, ...]) -> Poly:
    terms: dict[Monomial, Fraction] = {}
    for e, cp in coeffs.items():
        for mono, c in cp.terms.items():
            m = mono[:i] + (mono[i] + e,) + mono[i + 1:]
            terms[m] = terms.get(m, Fraction(0)) + c
    return Poly(vars, terms)


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


def _uni_coeffs(p: Poly, vi: int) -> list[Fraction]:
    """Dense coefficient list, constant term first, of p univariate in x_vi."""
    if p.is_zero():
        return []
    out = [Fraction(0)] * (max(m[vi] for m in p.terms) + 1)
    for m, c in p.terms.items():
        if sum(m) != m[vi]:
            raise ValueError("polynomial is not univariate in the requested variable")
        out[m[vi]] += c
    return out


def _uni_from_coeffs(cs, vi: int, vars) -> Poly:
    terms = {}
    for k, c in enumerate(cs):
        if c:
            mono = [0] * len(vars)
            mono[vi] = k
            terms[tuple(mono)] = c
    return Poly(vars, terms)


def _uni_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of coefficient lists; b has a nonzero top."""
    a = list(a)
    if not b:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        if a[-1] == 0:
            a.pop()
            continue
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, bc in enumerate(b):
            a[i + k] -= f * bc
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _euclid_univar(f: Poly, g: Poly, i: int) -> Poly:
    """Monic Euclidean gcd for polynomials univariate in variable i."""
    a, b = _uni_coeffs(f, i), _uni_coeffs(g, i)
    while b:
        a, b = b, _uni_divmod(a, b)[1]
    return _uni_from_coeffs([c / a[-1] for c in a], i, f.vars)


def _uni_xgcd(a: Poly, b: Poly, vi: int):
    """(g, u, v) with u a + v b = g, g monic (or constant 1), over Q[x_vi]."""
    r0, r1 = _uni_coeffs(a, vi), _uni_coeffs(b, vi)
    s0, s1 = Poly.const(a.vars, 1), Poly.zero(a.vars)
    t0, t1 = s1, s0
    while r1:
        q, r = _uni_divmod(r0, r1)
        q = _uni_from_coeffs(q, vi, a.vars)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        raise ValueError("xgcd of zero polynomials")
    inv = 1 / r0[-1]
    return _uni_from_coeffs([c * inv for c in r0], vi, a.vars), s0 * inv, t0 * inv


def _poly_gcd(f: Poly, g: Poly) -> Poly:
    """gcd up to a constant; result not normalized."""
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.is_constant() or g.is_constant():
        return Poly.const(f.vars, 1)
    # main variable: last variable occurring in either operand
    occupied = [i for i in range(len(f.vars))
                if any(m[i] for m in f.terms) or any(m[i] for m in g.terms)]
    if len(occupied) == 1:
        return _euclid_univar(f, g, occupied[0])
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
    terms = {}
    for (a, b), c in p.terms.items():
        terms[(a, b, d - a - b)] = c
    return Poly(VARS_STU, terms)


def dehomogenize(p: Poly) -> Poly:
    """Specialize u := 1, landing back in Q[s,t]."""
    if p.vars != VARS_STU:
        raise ValueError("dehomogenize expects a polynomial in (s, t, u)")
    terms: dict[Monomial, Fraction] = {}
    for (a, b, _), c in p.terms.items():
        terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    return Poly(VARS_ST, terms)


# ---------------------------------------------------------------------------
# Polynomial matrices
# ---------------------------------------------------------------------------


def _integer_scaled(polys: Sequence[Poly]) -> tuple[int, list[dict]]:
    """(den, terms): den is the lcm of every coefficient denominator of the
    polys, and terms[k] holds the integer coefficients of den * polys[k]."""
    den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    return den, [{m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
                 for p in polys]


def _scaled_dot(row, col, vars) -> Poly:
    """sum_k row[k] * col[k] for two _integer_scaled sequences: one integer
    accumulation, then one exact division per output term."""
    (den_r, a), (den_c, b) = row, col
    out: dict[Monomial, int] = {}
    for x, y in zip(a, b):
        if x and y:
            _accumulate(out, x, y)
    den = den_r * den_c
    return Poly._new(vars, {m: Fraction(c, den) for m, c in out.items() if c})


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
    def zero(cls, rows: int, cols: int, vars: tuple[str, ...]) -> "PolyMatrix":
        z = Poly.zero(vars)
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Poly]]) -> "PolyMatrix":
        cols = [list(c) for c in columns]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def column(self, j: int) -> list[Poly]:
        return [self.entries[i][j] for i in range(self.rows)]

    def row(self, i: int) -> list[Poly]:
        return list(self.entries[i])

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
        cols = [_integer_scaled(other.column(j)) for j in range(other.cols)]
        return PolyMatrix([[_scaled_dot(row, col, self.vars) for col in cols]
                           for row in map(_integer_scaled, self.entries)])

    def mul_vector(self, vec: Sequence[Poly]) -> list[Poly]:
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        if any(p.vars != self.vars for p in vec):
            raise ValueError("mixed rings in matrix product")
        col = _integer_scaled(vec)
        return [_scaled_dot(_integer_scaled(row), col, self.vars) for row in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(self.entries[i][j] == other.entries[i][j]
                for i in range(self.rows) for j in range(self.cols))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(p) for p in row) for row in self.entries)
        return f"PolyMatrix[{body}]"

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def det(self) -> Poly:
        """Determinant by minor expansion with memoization on row subsets."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        zero = Poly.zero(self.vars)
        memo: dict[tuple[int, ...], Poly] = {}

        def rec(rows: tuple[int, ...]) -> Poly:
            col = n - len(rows)
            if not rows:
                return Poly.const(self.vars, 1)
            cached = memo.get(rows)
            if cached is not None:
                return cached
            acc = zero
            for pos, i in enumerate(rows):
                a = self.entries[i][col]
                if a.is_zero():
                    continue
                sub = rec(rows[:pos] + rows[pos + 1:])
                term = a * sub
                acc = acc + term if pos % 2 == 0 else acc - term
            memo[rows] = acc
            return acc

        return rec(tuple(range(n)))

    def adjugate(self) -> "PolyMatrix":
        if self.rows != self.cols:
            raise ValueError("adjugate of a non-square matrix")
        n = self.rows
        if n == 1:
            return PolyMatrix([[Poly.const(self.vars, 1)]])
        idx = list(range(n))
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = self.submatrix([r for r in idx if r != j],
                                       [c for c in idx if c != i])
                cof = minor.det()
                out[i][j] = cof if (i + j) % 2 == 0 else -cof
        return PolyMatrix(out)


def mat_inverse(m: PolyMatrix) -> tuple[PolyMatrix, Fraction]:
    """Invert a square matrix whose determinant is a nonzero constant.

    Returns (inverse, det).  The product with the input is re-checked
    exactly; a mismatch indicates a bug and raises InternalError.
    """
    if m.rows != m.cols:
        raise ValueError("cannot invert a non-square matrix")
    det = m.det()
    if det.is_zero() or not det.is_constant():
        raise ValueError("not invertible over the polynomial ring")
    d = det.constant_value()
    inv = m.adjugate().map_entries(lambda p: p * (Fraction(1) / d))
    ident = PolyMatrix.identity(m.rows, m.vars)
    if inv * m != ident or m * inv != ident:
        raise InternalError("matrix inverse verification failed")
    return inv, d
