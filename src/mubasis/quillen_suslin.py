"""Unimodularity testing and certified unimodular completion over Q[s,t].

complete_columns finds, for a unimodular m x n matrix F (m > n), a square
unimodular M with M F = [I_n; 0], and returns it with its exact inverse as a
certificate that is re-verified before being handed out.

There is one route: F^T is completed row by row.  Each row is made
primitive and reduced (Bezout for a last pair) until a constant pivot
appears.  When reduction stalls, one stable-range step finishes the row:
Q[s,t] has stable range at most 3, so constant column operations shorten a
unimodular row of length >= 4 to three entries that are still unimodular,
and one certified Groebner lift of 1 over them puts a 1 into a fourth slot
(see _RowCompleter._stable_range_step).  The route is therefore complete for
m >= n + 3, where every row it completes has length >= 4; the pipeline's F
is (n + 3) x n.  A shorter row that stalls raises CompletionError.  No step
is randomized.

No matrix is inverted.  Every step is an elementary operation with a known
inverse, or the 2 x 2 Bezout step with its explicit inverse (SL_2 over
Q[s,t] is not generated by elementary matrices), so M^-1 is built alongside
M: column operations on M are mirrored by the inverse row operations on
M^-1.  One loop over the rows of F^T changes one M and one M^-1 in place
(see _complete_rows), so the only matrix products are the two that check
the certificate: M F = [I_n; 0], once, and M M^-1 = I (see
CompletionCertificate).

Unimodularity of F is decided by the completion itself wherever it
succeeds: a checked certificate proves it, since M F = [I_n; 0] gives F a
left inverse, so a completion that succeeds computes no maximal minor.  Only
when the row route fails does is_unimodular build the maximal minors and
their Groebner basis, to tell a matrix that is not unimodular (ValueError)
from a failed completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import NEG_INF, VARS_ST, Poly, PolyMatrix, primitive_scale
from .errors import CompletionError, InternalError
from .grobner import buchberger, lift_coefficients, reduce_with_certificate

# ---------------------------------------------------------------------------
# Degree bound
# ---------------------------------------------------------------------------


def degree_bound_for_D(D: int) -> int:
    """2D(1+2D)(1+D^4)(1+D)^4 for D >= 1, exactly."""
    D = int(D)
    if D < 1:
        raise ValueError("D must be at least 1")
    return 2 * D * (1 + 2 * D) * (1 + D**4) * (1 + D) ** 4


def qs_degree_bound(n_or_m: int, deg_f: int) -> int:
    """Published degree bound for completing a unimodular matrix over two
    variables, with D = n_or_m * (1 + deg_f)."""
    if n_or_m < 1 or deg_f < 0:
        raise ValueError("need n_or_m >= 1 and deg_f >= 0")
    return degree_bound_for_D(n_or_m * (1 + deg_f))


# ---------------------------------------------------------------------------
# Unimodularity
# ---------------------------------------------------------------------------


def is_unimodular(f: PolyMatrix) -> bool:
    """True when the ideal of maximal minors of f (m x n, m >= n) is (1); a
    constant minor settles this without a Groebner basis."""
    minors = [d for _, d in f.maximal_minors() if not d.is_zero()]
    if any(d.is_constant() for d in minors):
        return True
    return bool(minors) and buchberger(minors).contains_constant()


# ---------------------------------------------------------------------------
# Row completion
# ---------------------------------------------------------------------------


class _RowCompleter:
    """Completes row lo of A = f M to e_lo by column operations on columns
    lo.. of A's rows from lo on and of M, each mirrored as the inverse row
    operation on M^-1.  A, M and M^-1 are lists of rows, changed in place."""

    def __init__(self, a, big, inv, lo):
        self.vars = VARS_ST
        self.work = a[lo]
        self.lo, self.cols = lo, range(lo, len(self.work))
        self.m = len(self.cols)
        self.rows = a[lo:] + big
        self.inv = inv

    def colop(self, i, j, factor: Poly):
        """col_i += factor col_j; row_j -= factor row_i on M^-1."""
        if factor.is_zero():
            return
        for row in self.rows:
            if not row[j].is_zero():
                row[i] = row[i] + factor * row[j]
        self.inv[j] = [x if y.is_zero() else x - factor * y
                       for x, y in zip(self.inv[j], self.inv[i])]

    def colscale(self, i, c: Fraction):
        for row in self.rows:
            row[i] = row[i] * c
        cinv = Fraction(1) / c
        self.inv[i] = [x * cinv for x in self.inv[i]]

    def colswap(self, i, j):
        if i == j:
            return
        for row in self.rows:
            row[i], row[j] = row[j], row[i]
        self.inv[i], self.inv[j] = self.inv[j], self.inv[i]

    def colpair(self, a, b, u, v, wa, wb):
        """(col_a, col_b) <- (col_a, col_b) [[u, -wb], [v, wa]], whose
        determinant u wa + v wb is 1; (row_a; row_b) <- [[wa, wb], [-v, u]]
        (row_a; row_b) on M^-1."""
        for row in self.rows:
            row[a], row[b] = row[a] * u + row[b] * v, row[b] * wa - row[a] * wb
        ra, rb = self.inv[a], self.inv[b]
        self.inv[a] = [x * wa + y * wb for x, y in zip(ra, rb)]
        self.inv[b] = [y * u - x * v for x, y in zip(ra, rb)]

    def constant_index(self):
        for j in self.cols:
            p = self.work[j]
            if not p.is_zero() and p.is_constant():
                return j
        return None

    def finish_with_pivot(self, j):
        c = self.work[j].constant_value()
        for i in self.cols:
            if i != j and not self.work[i].is_zero():
                self.colop(i, j, self.work[i] * (Fraction(-1) / c))
        self.colscale(j, Fraction(1) / c)
        self.colswap(self.lo, j)

    def run(self):
        lo = self.lo
        if self.m == 1:
            p = self.work[lo]
            if p.is_zero() or not p.is_constant():
                raise CompletionError("completion failed (length-one row is not a unit)")
            self.colscale(lo, Fraction(1) / p.constant_value())
            return
        self._normalize_columns()
        self._reduction_rounds()
        j = self.constant_index()
        if j is None:
            j = self._stable_range_step()
        self.finish_with_pivot(j)
        if self.work[lo:] != [Poly.const(self.vars, 1)] + [Poly.zero(self.vars)] * (self.m - 1):
            raise InternalError("row completion did not reach a unit vector")

    # heuristic layer ---------------------------------------------------

    def _normalize_columns(self):
        for j in self.cols:
            p = self.work[j]
            if p.is_zero():
                continue
            scale = primitive_scale([p])
            if scale != 1:
                self.colscale(j, scale)

    def _reduction_rounds(self):
        for _ in range(40):
            if self.constant_index() is not None:
                return
            nz = [i for i in self.cols if not self.work[i].is_zero()]
            if len(nz) <= 1:
                return  # single non-constant entry cannot be unimodular
            if len(nz) == 2:
                if self._bezout_pair(*nz):
                    continue
                return
            if not self._mutual_reduction_pass(nz):
                return

    def _bezout_pair(self, a, b) -> bool:
        one = Poly.const(self.vars, 1)
        wa, wb = self.work[a], self.work[b]
        coeffs = lift_coefficients(one, [wa, wb])
        if coeffs is None:
            return False
        self.colpair(a, b, *coeffs, wa, wb)
        return True

    def _mutual_reduction_pass(self, nz) -> bool:
        changed = False
        for i in nz:
            others = [j for j in nz if j != i and not self.work[j].is_zero()]
            if not others or self.work[i].is_zero():
                continue
            rem, coeffs = reduce_with_certificate(self.work[i],
                                                  [self.work[j] for j in others])
            if rem == self.work[i]:
                continue
            for j, c in zip(others, coeffs):
                if not c.is_zero():
                    self.colop(i, j, -c)
            if self.work[i] != rem:
                raise InternalError("mutual reduction bookkeeping drifted")
            changed = True
        return changed

    # stable-range layer ------------------------------------------------

    def _stable_range_step(self) -> int:
        """Put a 1 into a row on which reduction stalled; returns its slot.

        Q[s,t] has stable range at most 3 (H. Bass, Publ. IHES 22, 1964;
        L. N. Vaserstein, Funct. Anal. Appl. 5, 1971): a unimodular row v of
        length m >= 4 has three slots A = (a0, a1, a2) and constants c with
        w_i = v_i + sum_j c_ij v_j, j over the r = m - 3 other slots B, still
        unimodular.  One certified lift sum u_i w_i = 1 then makes a fourth
        slot k equal to v_k + (1 - v_k) sum u_i w_i = 1.  Every step is a
        column operation.

        a0, a1, a2 are the first nonzero slots and k the slot of B of least
        degree.  c_a0 = 0, and c_a1 and c_a2 run through the points
        (x, x^2, ..., x^r), x in 0..r d for a1 and in 0..r d^2 for a2, d the
        largest degree in v, by increasing sum of the two x from c = 0.  This
        finite list holds a good c for every unimodular v; over the algebraic
        closure:
        - w_a1 vanishes on a component G of the curve v_a0 = 0 (at most d of
          them) only for c_a1 on an affine hyperplane a + b.c = 0 with b != 0,
          or for every c_a1 when v_a1 and v_B vanish on G; then v_a2 has no
          zero on G, since v has none.  Such a hyperplane holds at most r of
          the points, so some x of the r d + 1 leaves in the zeros of
          (w_a0, w_a1) only components of the second kind and at most d^2
          isolated points (Bezout);
        - at each of those points, w_a2 = 0 is again a hyperplane in c_a2, or
          v_B vanishes there and w_a2 = v_a2 does not, so some x of the
          r d^2 + 1 misses them all.
        When every point fails, v is not unimodular, and the step raises
        CompletionError, as it does for a row shorter than 4.
        """
        if self.m < 4:
            raise CompletionError("completion failed (stalled row shorter than 4)")
        v, zero, one = list(self.work), Poly.zero(self.vars), Poly.const(self.vars, 1)
        slots = sorted(self.cols, key=lambda i: v[i].is_zero())
        a, rest = slots[:3], slots[3:]
        k = min(rest, key=lambda j: v[j].degree)
        r = len(rest)
        d = max((int(p.degree) for p in v[self.lo:] if not p.is_zero()), default=0)
        grid = sorted(((x, y) for x in range(r * d + 1) for y in range(r * d * d + 1)), key=sum)
        for point in grid:
            weights = {i: [x**e for e in range(1, r + 1)] for i, x in zip(a[1:], point)}
            w = [v[a[0]]] + [v[i] + sum((v[j] * c for j, c in zip(rest, weights[i]) if c), zero)
                             for i in a[1:]]
            u = lift_coefficients(one, w)
            if u is not None:
                break
        else:
            raise CompletionError("completion failed (no weights give a unimodular triple)")
        for i in a[1:]:
            for j, c in zip(rest, weights[i]):
                if c:
                    self.colop(i, j, Poly.const(self.vars, c))
        factor = one - v[k]
        for i, ui in zip(a, u):
            self.colop(k, i, factor * ui)
        if self.work[k] != one:
            raise InternalError("stable-range lift failed verification")
        return k


def _complete_rows(f: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """(M, M^-1) with M (cols x cols, unimodular) and f M = [I_n, 0] for
    row-unimodular f.

    One loop over the rows keeps A = f M, M and M^-1, starting from f, I and
    I.  Row lo of A is completed to e_lo by column operations on columns
    lo.. (E_lo), and columns lo+1.. are rescaled to primitive integer
    content over the rows below (S_lo).  Y_lo, the clearing of column lo
    below row lo by col_lo -= A[i, lo] col_i, is recorded and applied only
    after every row is done, last row first: col_i must already hold what
    the rows below i and their clears made of it.  So
    M = E_0 S_0 diag(1, E_1 S_1 diag(1, ...) Y_1) Y_0, each factor applied
    as column operations on M and the inverse row operations on M^-1.
    f M = [I_n, 0] is then checked once, as complete_columns' check of M F.
    Nothing here decides unimodularity: a row that is not unimodular ends
    in CompletionError, and complete_columns tells the two causes apart."""
    n, m = f.rows, f.cols
    if n > m:
        raise ValueError("expected at least as many columns as rows")
    a = [list(row) for row in f.entries]
    big = PolyMatrix.identity(m, f.vars).entries
    inv = PolyMatrix.identity(m, f.vars).entries
    clears = []
    for lo in range(n):
        completer = _RowCompleter(a, big, inv, lo)
        completer.run()
        below = a[lo + 1:]
        if not below:
            break
        # the scales are units, so M stays unimodular
        for j in range(lo + 1, m):
            scale = primitive_scale(row[j] for row in below)
            if scale != 1:
                completer.colscale(j, scale)
        clears.append((completer, [(i, a[i][lo]) for i in range(lo + 1, n)]))
    for completer, clear in reversed(clears):
        for i, c in clear:
            completer.colop(completer.lo, i, -c)
    total = PolyMatrix(big)
    if f * total != _target_block(m, n, f.vars):
        raise InternalError("row completion product check failed")
    return total, PolyMatrix(inv)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


@dataclass
class CompletionCertificate:
    """Verified completion data: M unimodular, M * f = [I_n; 0].

    M * f = [I_n; 0] is checked exactly once, as f^T M^T = (M f)^T at the
    end of the row route.  M_inv is built alongside M, step by step,
    and M M_inv = I is checked exactly.  That alone proves M_inv M = I: over
    a commutative ring it gives det M det M_inv = 1, so M is invertible and
    M_inv is its inverse.  It also makes det M a nonzero constant, so det is
    read off the constant-term matrix M(0, 0).
    """

    M: PolyMatrix
    M_inv: PolyMatrix
    det: Fraction
    deg_M: int
    bound: int
    within_bound: bool


def _target_block(n: int, m: int, vars) -> PolyMatrix:
    one, zero = Poly.const(vars, 1), Poly.zero(vars)
    return PolyMatrix([[one if i == j else zero for j in range(n)] for i in range(m)])


def complete_columns(f: PolyMatrix) -> CompletionCertificate:
    """Complete a unimodular m x n matrix (m > n) to M with M f = [I_n; 0].

    Each row of f^T is reduced to a constant pivot, or finished by the
    stable-range step when reduction stalls.  That step needs a row of
    length >= 4, so the route is complete for m >= n + 3, where row k of f^T
    is completed over m - k >= 4 columns; a shorter row that stalls raises
    CompletionError.  M and M^-1 are built in place, and the two products
    that check them, M f = [I_n; 0] (as its transpose) and M M^-1 = I, are
    the only matrix products; failure raises rather than ever producing an
    unverified answer.

    Unimodularity is decided only when it is needed.  A completed row route
    proves it, since its checked f^T M^T = [I_n, 0] gives f a left inverse,
    so a completion that succeeds computes no maximal minor.  Only when the
    row route fails does is_unimodular decide: f that is not unimodular
    raises ValueError, and any other failure is raised as it came.
    """
    m, n = f.rows, f.cols
    if m <= n:
        raise ValueError("expected strictly more rows than columns")
    try:
        mt, mt_inv = _complete_rows(f.transpose())
    except (CompletionError, InternalError):
        if not is_unimodular(f):
            raise ValueError("matrix is not unimodular") from None
        raise
    big, inv = mt.transpose(), mt_inv.transpose()
    ident = PolyMatrix.identity(m, f.vars)
    if big * inv != ident:
        raise InternalError("completion inverse verification failed")
    # M M^-1 = I makes det M a nonzero constant, so det M = det M(0, 0)
    det = big.map_entries(lambda p: Poly.const(f.vars, p.constant_value())).det()
    deg_f = 0 if f.degree == NEG_INF else int(f.degree)
    bound = qs_degree_bound(n, deg_f)
    deg_m = 0 if big.degree == NEG_INF else int(big.degree)
    return CompletionCertificate(M=big, M_inv=inv, det=det.constant_value(), deg_M=deg_m,
                                 bound=bound, within_bound=deg_m <= bound)
