"""Expression grammar for polynomials in s and t, tuples, and bases.

Grammar (whitespace insignificant):

    tuple  := "(" expr "," expr "," expr "," expr ")"
    expr   := [sign] term { sign term }
    term   := factor { ["*"] factor }        (implicit multiplication: "2s")
    factor := rational | variable ["^" natural]
    rational := natural ["/" natural]

Only the variables s and t are admitted; a natural is a run of ASCII
digits 0-9 of any length; exponents must be non-negative integers; "**" is
rejected.  str(Poly) produces the canonical form (terms in
grevlex-descending order, coefficients in lowest terms, explicit signs) and
parsing it back returns the same polynomial.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import MAX_PACKED_DEGREE, VARS_ST, Poly, decimal_int
from .errors import ParseError, ResourceLimitError


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            self.error("unexpected end of input")
        self.pos += 1
        return ch

    def expect(self, ch: str):
        got = self.peek()
        if got != ch:
            self.error(f"expected {ch!r}" + (f", found {got!r}" if got else ""))
        self.pos += 1

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        return decimal_int(self.text[start:self.pos])


def _parse_factor(tk: _Tokenizer):
    """Returns ('coeff', Fraction) or ('var', name, exponent)."""
    ch = tk.peek()
    if ch is None:
        tk.error("unexpected end of input")
    if ch in _DIGITS:
        num = tk.natural()
        if tk.peek() == "/":
            tk.take()
            nxt = tk.peek()
            if nxt is None or nxt not in _DIGITS:
                tk.error("expected an integer denominator")
            den = tk.natural()
            if den == 0:
                tk.error("zero denominator")
            return ("coeff", Fraction(num, den))
        return ("coeff", Fraction(num))
    if ch.isalpha():
        tk.take()
        if ch not in VARS_ST:
            tk.pos -= 1
            tk.error(f"variable {ch!r} not allowed; expected s or t")
        exp = 1
        if tk.peek() == "^":
            tk.take()
            nxt = tk.peek()
            if nxt is None or nxt not in _DIGITS:
                tk.error("exponent must be a non-negative integer")
            exp = tk.natural()
        return ("var", ch, exp)
    tk.error(f"unexpected character {ch!r}")


_DIGITS = "0123456789"  # ASCII only: str.isdigit also admits '²' and '٣'
_TERM_STARTERS = set(_DIGITS + "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _parse_term(tk: _Tokenizer) -> tuple[tuple[int, int], Fraction]:
    """(exponents of s and t, coefficient) of one term.  A nonzero term of
    total degree past MAX_PACKED_DEGREE stops parsing here, where packing
    it would."""
    coeff = Fraction(1)
    exps = {"s": 0, "t": 0}
    saw_factor = False
    while True:
        ch = tk.peek()
        if ch == "*":
            tk.take()
            if tk.peek() == "*":
                tk.error("'**' is not supported; use '^' for powers")
            if not saw_factor:
                tk.error("unexpected '*'")
        elif not saw_factor or (ch is not None and ch in _TERM_STARTERS):
            pass  # implicit multiplication or first factor
        else:
            break
        fac = _parse_factor(tk)
        saw_factor = True
        if fac[0] == "coeff":
            coeff *= fac[1]
        else:
            _, name, exp = fac
            exps[name] += exp
    if coeff and exps["s"] + exps["t"] > MAX_PACKED_DEGREE:
        raise ResourceLimitError(f"a monomial degree exceeds {MAX_PACKED_DEGREE}")
    return (exps["s"], exps["t"]), coeff


def _parse_expr(tk: _Tokenizer) -> Poly:
    """One expression, its terms summed by monomial into one Poly."""
    terms: dict[tuple[int, int], Fraction] = {}
    sign = 1
    ch = tk.peek()
    if ch in ("+", "-"):
        tk.take()
        sign = -1 if ch == "-" else 1
    while True:
        mono, coeff = _parse_term(tk)
        terms[mono] = terms.get(mono, 0) + sign * coeff
        ch = tk.peek()
        if ch == "+":
            tk.take()
            sign = 1
        elif ch == "-":
            tk.take()
            sign = -1
        else:
            return Poly(VARS_ST, terms)


def parse_polynomial(text: str) -> Poly:
    """Parse one expression; the whole string must be consumed."""
    tk = _Tokenizer(text)
    p = _parse_expr(tk)
    if tk.peek() is not None:
        tk.error(f"unexpected {tk.peek()!r}")
    return p


def _parse_tuple4(tk: _Tokenizer) -> tuple[Poly, Poly, Poly, Poly]:
    tk.expect("(")
    polys = [_parse_expr(tk)]
    for _ in range(3):
        tk.expect(",")
        polys.append(_parse_expr(tk))
    tk.expect(")")
    return tuple(polys)


def parse_tuple(text: str) -> tuple[Poly, Poly, Poly, Poly]:
    """Parse a parenthesized 4-tuple of expressions."""
    tk = _Tokenizer(text)
    out = _parse_tuple4(tk)
    if tk.peek() is not None:
        tk.error(f"unexpected {tk.peek()!r}")
    return out


def parse_basis(text: str):
    """Parse three 4-tuples (optionally separated by ',' or ';')."""
    tk = _Tokenizer(text)
    vectors = []
    for i in range(3):
        vectors.append(_parse_tuple4(tk))
        if i < 2 and tk.peek() in (",", ";"):
            tk.take()
    if tk.peek() is not None:
        tk.error(f"unexpected {tk.peek()!r}")
    return tuple(vectors)
