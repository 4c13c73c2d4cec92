import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mubasis import arith, cli, quillen_suslin
from mubasis.arith import VARS_ST, Poly, PolyMatrix, gcd_many, mat_inverse
from mubasis.errors import CompletionError, InternalError
from mubasis.quillen_suslin import (
    _eliminate_t_monic,
    complete_columns,
    is_unimodular,
    left_inverse,
    qs_degree_bound,
    variable_elimination_step,
)
from helpers import random_unimodular_column, random_unimodular_matrix

S = Poly.variable(VARS_ST, "s")
T = Poly.variable(VARS_ST, "t")
ONE = Poly.const(VARS_ST, 1)
ZERO = Poly.zero(VARS_ST)


def reference_column():
    """The unimodular column completed in the worked surface example."""
    return PolyMatrix([[ZERO], [S**2], [-ONE], [-(T**2)]])


def target_block(n, m):
    return PolyMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(m)])


class TestDegreeBound:
    def test_hand_values(self):
        assert qs_degree_bound(1, 0) == 192       # D = 1
        assert qs_degree_bound(1, 1) == 27540     # D = 2
        assert qs_degree_bound(3, 0) == 881664    # D = 3
        assert qs_degree_bound(1, 2) == 881664

    def test_monotone(self):
        vals = [qs_degree_bound(n, d) for n in range(1, 5) for d in range(0, 5)]
        for n in range(1, 4):
            for d in range(0, 4):
                assert qs_degree_bound(n, d) <= qs_degree_bound(n + 1, d)
                assert qs_degree_bound(n, d) <= qs_degree_bound(n, d + 1)
        assert all(v > 0 for v in vals)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            qs_degree_bound(0, 1)


class TestIsUnimodular:
    def test_reference_column(self):
        assert is_unimodular(reference_column())

    def test_proper_ideal_column(self):
        assert not is_unimodular(PolyMatrix([[S], [T]]))

    def test_identity_block(self):
        assert is_unimodular(target_block(2, 4))

    def test_square_invertible(self):
        assert is_unimodular(PolyMatrix([[ONE, S], [ZERO, ONE]]))

    def test_zero_matrix(self):
        assert not is_unimodular(PolyMatrix([[ZERO], [ZERO]]))


class TestLeftInverse:
    def test_reference_column(self):
        f = reference_column()
        h = left_inverse(f)
        assert h * f == PolyMatrix.identity(1, VARS_ST)
        # the unit entry -1 makes the lift trivial
        assert h.row(0) == [ZERO, ZERO, -ONE, ZERO]

    def test_unit_vector(self):
        f = PolyMatrix([[ONE], [ZERO], [ZERO]])
        h = left_inverse(f)
        assert h * f == PolyMatrix.identity(1, VARS_ST)

    def test_partition_of_unity(self):
        f = PolyMatrix([[S], [ONE - S]])
        h = left_inverse(f)
        assert h * f == PolyMatrix.identity(1, VARS_ST)

    def test_not_unimodular(self):
        with pytest.raises(ValueError, match="not unimodular"):
            left_inverse(PolyMatrix([[S], [T]]))

    def test_randomized(self):
        rng = random.Random(17)
        for _ in range(30):
            m = rng.randint(2, 4)
            f = random_unimodular_column(rng, m)
            h = left_inverse(f)
            assert h * f == PolyMatrix.identity(1, VARS_ST)


class TestCompleteColumns:
    def test_reference_column(self):
        f = reference_column()
        cert = complete_columns(f)
        assert cert.M * f == target_block(1, 4)
        assert cert.M * cert.M_inv == PolyMatrix.identity(4, VARS_ST)
        assert cert.det != 0

    def test_identity_block_completes_to_identity(self):
        f = target_block(2, 4)
        cert = complete_columns(f)
        assert cert.M == PolyMatrix.identity(4, VARS_ST)

    def test_last_unit_gives_swap(self):
        m = 4
        f = PolyMatrix([[ZERO], [ZERO], [ZERO], [ONE]])
        cert = complete_columns(f)
        swap = PolyMatrix.identity(m, VARS_ST)
        swap.entries[0][0] = ZERO
        swap.entries[3][3] = ZERO
        swap.entries[0][3] = ONE
        swap.entries[3][0] = ONE
        assert cert.M == swap

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError, match="not unimodular"):
            complete_columns(PolyMatrix([[S], [T]]))

    def test_rejects_square(self):
        with pytest.raises(ValueError):
            complete_columns(PolyMatrix([[ONE, ZERO], [ZERO, ONE]]))

    def test_randomized_columns(self):
        rng = random.Random(19)
        for _ in range(20):
            m = rng.randint(2, 5)
            f = random_unimodular_column(rng, m)
            cert = complete_columns(f)
            assert cert.M * f == target_block(1, m)
            assert cert.M * cert.M_inv == PolyMatrix.identity(m, VARS_ST)

    def test_randomized_matrices(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(1, 2)
            m = n + rng.randint(1, 2)
            f = random_unimodular_matrix(rng, m, n)
            cert = complete_columns(f)
            assert cert.M * f == target_block(n, m)
            assert cert.det != 0

    def test_repeated_calls_agree(self):
        rng = random.Random(43)
        f = random_unimodular_column(rng, 4)
        a = complete_columns(f)
        b = complete_columns(f)
        assert a.M == b.M and a.M_inv == b.M_inv


# rows completed without heuristics; they reach the resultant-chart route
GENERAL_ROUTE_ROWS = [
    [T**2 - S, S * T + S**2, S + 1],
    [T**2, T + 1, S],
    [T**2 + S, S * T + 1, S**2],
]


def _force_general_route(monkeypatch):
    """Turn off the heuristic layer of _RowCompleter, so a row without a
    constant entry goes to the general route."""
    monkeypatch.setattr(quillen_suslin._RowCompleter, "_normalize_columns",
                        lambda self: None)
    monkeypatch.setattr(quillen_suslin._RowCompleter, "_reduction_rounds",
                        lambda self: None)


def _complete(f, general, monkeypatch):
    """complete_columns(f), forced onto the general route when ``general``."""
    with monkeypatch.context() as patched:
        if general:
            _force_general_route(patched)
        return complete_columns(f)


class TestGeneralRoute:
    """Exercise the resultant charts and their patching directly."""

    def test_monic_elimination_simple(self):
        row = [T**2, T + 1, S]
        assert is_unimodular(PolyMatrix([[p] for p in row]))
        m, m_inv = _eliminate_t_monic(row)
        got = [sum((row[i] * m[i, j] for i in range(3)), ZERO) for j in range(3)]
        assert got == [p.set_var("t", 0) for p in row]
        assert mat_inverse(m)[0] == m_inv  # must be unimodular

    def test_monic_elimination_with_charts(self):
        # no resultant of t^2 - s against the other entries is a constant:
        # the charts are a = s^3 - s^2 and a = s + 1, so the elimination
        # patches two of them
        row = [T**2 - S, S * T + S**2, S + 1]
        assert is_unimodular(PolyMatrix([[p] for p in row]))
        m, m_inv = _eliminate_t_monic(row)
        got = [sum((row[i] * m[i, j] for i in range(3)), ZERO) for j in range(3)]
        assert got == [p.set_var("t", 0) for p in row]
        assert mat_inverse(m)[0] == m_inv

    def test_complete_columns_without_heuristics(self, monkeypatch):
        _force_general_route(monkeypatch)
        for row in GENERAL_ROUTE_ROWS:
            f = PolyMatrix([[p] for p in row])
            if not is_unimodular(f):
                continue
            cert = complete_columns(f)
            assert cert.M * f == target_block(1, len(row))

    def test_univariate_row(self, monkeypatch):
        _force_general_route(monkeypatch)
        f = PolyMatrix([[S**2], [S + 1], [ZERO]])
        cert = complete_columns(f)
        assert cert.M * f == target_block(1, 3)

    def test_gcd_calls_on_the_general_route(self, monkeypatch):
        # one gcd per fraction, not one per coefficient of every operation
        _force_general_route(monkeypatch)
        calls = []
        gcd_many = quillen_suslin.gcd_many
        monkeypatch.setattr(quillen_suslin, "gcd_many",
                            lambda ps: calls.append(1) or gcd_many(ps))
        for row in GENERAL_ROUTE_ROWS:
            f = PolyMatrix([[p] for p in row])
            assert complete_columns(f).M * f == target_block(1, len(row))
        assert len(calls) < 50

    def test_chart_identities(self):
        for row in GENERAL_ROUTE_ROWS + PINNED_GENERAL_ROWS:
            m = len(row)
            charts = quillen_suslin._resultant_charts(row)
            assert gcd_many([a for a, _, _ in charts]) == ONE
            for a, n, n_inv in charts:
                assert [sum((row[i] * n[i, j] for i in range(m)), ZERO)
                        for j in range(m)] == [a] + [ZERO] * (m - 1)
                assert n * n_inv == PolyMatrix.identity(m, VARS_ST).map_entries(
                    lambda p: p * a * a)

    def test_non_unimodular_row_uses_up_the_finite_list(self, monkeypatch):
        # t divides every entry: all resultants vanish, after the 2 single
        # entries and the b^(m-2) = 3 Kronecker points
        calls = []
        bezout = quillen_suslin._resultant_bezout
        monkeypatch.setattr(quillen_suslin, "_resultant_bezout",
                            lambda v1, w: calls.append(w) or bezout(v1, w))
        with pytest.raises(CompletionError):
            _eliminate_t_monic([T**2, S * T, T])
        assert len(calls) == 5

    def test_length_four_row_with_a_zero_entry(self, monkeypatch):
        # the shape of the row that full-degree d = 3 inputs send here
        _force_general_route(monkeypatch)
        calls = []
        eliminate = quillen_suslin._eliminate_t_monic
        monkeypatch.setattr(quillen_suslin, "_eliminate_t_monic",
                            lambda row: calls.append(len(row)) or eliminate(row))
        f = PolyMatrix([[T**2 + S], [S * T + 1], [ZERO], [S**2]])
        assert is_unimodular(f)
        cert = complete_columns(f)
        assert calls == [4]
        assert cert.M * f == target_block(1, 4)
        assert cert.M * cert.M_inv == PolyMatrix.identity(4, VARS_ST)

    def test_monicize_needs_degree_plus_one_values(self):
        # every top form is s^3 - s t^2 = s (s - t)(s + t), which vanishes at
        # (lam, 1) for lam = 0, 1, -1: the fourth value, 2, is the first to work
        row = [S**3 - S * T**2 + ONE, S**3 - S * T**2 + T, 2 * (S**3 - S * T**2) + S]
        completer = quillen_suslin._RowCompleter(row)
        assert completer._monicize() == 2
        lead = arith._as_univar(completer.work[0], 1)[3]
        assert lead.is_constant() and not lead.is_zero()


class TestVariableElimination:
    def test_independent_of_var(self):
        f = PolyMatrix([[S, ONE]])
        assert variable_elimination_step(f, "t") == PolyMatrix.identity(2, VARS_ST)

    def test_unit_second_entry(self):
        f = PolyMatrix([[T, ONE]])
        m = variable_elimination_step(f, "t")
        assert m == PolyMatrix([[ONE, ZERO], [-T, ONE]])
        assert f * m == PolyMatrix([[ZERO, ONE]])

    def test_unit_first_entry(self):
        f = PolyMatrix([[ONE, T]])
        m = variable_elimination_step(f, "t")
        assert m == PolyMatrix([[ONE, -T], [ZERO, ONE]])
        assert f * m == PolyMatrix([[ONE, ZERO]])

    def test_general_matrix(self):
        for f in _elimination_inputs():
            out = variable_elimination_step(f, "t")
            assert f * out == f.map_entries(lambda p: p.set_var("t", 0))

    def test_precondition(self):
        with pytest.raises(ValueError):
            variable_elimination_step(PolyMatrix([[S, T]]), "t")


def _elimination_inputs():
    """Five row-unimodular matrices for variable_elimination_step."""
    rng = random.Random(47)
    for _ in range(5):
        n = rng.randint(1, 2)
        m = n + rng.randint(1, 2)
        yield random_unimodular_matrix(rng, m, n).transpose()


def _certificate_cases():
    """(f, general) covering every route through completion: the
    acceptance criterion 5 stream, the reference column, a constant minor,
    and, with ``general`` set, the general route without heuristics."""
    rng = random.Random(77)
    for k in range(30):
        if k % 3 == 2:
            n = rng.randint(1, 2)
            f = random_unimodular_matrix(rng, n + rng.randint(1, 2), n)
        else:
            f = random_unimodular_column(rng, rng.randint(2, 5))
        yield f, False
    yield reference_column(), False
    yield PolyMatrix([[S, T], [ONE, S], [T, ONE + S * T]]), False
    for row in GENERAL_ROUTE_ROWS:
        f = PolyMatrix([[p] for p in row])
        if is_unimodular(f):
            yield f, True


class TestCarriedInverse:
    """The inverse and determinant built alongside M match the adjugate
    route, which stays the reference implementation."""

    def test_matches_mat_inverse(self, monkeypatch):
        for f, general in _certificate_cases():
            cert = _complete(f, general, monkeypatch)
            assert (cert.M_inv, cert.det) == mat_inverse(cert.M)
            # the constant-minor path inverts its block this way; M is larger
            assert quillen_suslin._leverrier_inverse(cert.M) == cert.M_inv

    def test_constant_minor_needs_no_groebner_basis(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("slow path used")

        monkeypatch.setattr(quillen_suslin, "buchberger", boom)
        monkeypatch.setattr(quillen_suslin, "_complete_rows", boom)
        f = PolyMatrix([[S, T], [ONE, S], [T, ONE + S * T]])
        cert = complete_columns(f)
        assert cert.M * f == target_block(2, 3)
        assert cert.M_inv.column(0) == f.column(0)

    def test_no_adjugate_on_the_completion_path(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("adjugate route used")

        monkeypatch.setattr(PolyMatrix, "adjugate", boom)
        monkeypatch.setattr(arith, "mat_inverse", boom)
        monkeypatch.setattr(quillen_suslin, "mat_inverse", boom, raising=False)
        for f, general in _certificate_cases():
            cert = _complete(f, general, monkeypatch)
            assert cert.M * cert.M_inv == PolyMatrix.identity(f.rows, VARS_ST)
        for f in _elimination_inputs():
            out = variable_elimination_step(f, "t")
            assert f * out == f.map_entries(lambda p: p.set_var("t", 0))
        assert variable_elimination_step(PolyMatrix([[T, ONE]]), "t") == \
            PolyMatrix([[ONE, ZERO], [-T, ONE]])


nonzero_small_polys = st.dictionaries(
    st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    st.integers(-3, 3).filter(bool), min_size=1, max_size=4).map(lambda t: Poly(VARS_ST, t))
# zero one time in five, else a nonzero entry of degree <= 2
small_polys = st.one_of(st.just(ZERO), *[nonzero_small_polys] * 4)


@st.composite
def non_unimodular_cases(draw):
    """(f, general): f is m x n with small entries, and then either one
    column is multiplied by a nonconstant factor, which then divides every
    maximal minor, or every entry is shifted to vanish at one integer
    point."""
    n = draw(st.integers(1, 2))
    m = n + draw(st.integers(1, 2))
    rows = [[draw(small_polys) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        factor = draw(st.sampled_from([S, T, S + 1, T - 2, S + T, S * T + 1, S**2 + T]))
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = row[j] * factor
    else:
        point = {"s": draw(st.integers(-2, 2)), "t": draw(st.integers(-2, 2))}
        rows = [[p - p.set_var("s", point["s"]).set_var("t", point["t"]) for p in row]
                for row in rows]
    # a zero column fails at once; keep to matrices the routes have to work on
    assume(all(any(not row[j].is_zero() for row in rows) for j in range(n)))
    return PolyMatrix(rows), draw(st.booleans())


class TestUnimodularityOnFailure:
    """complete_columns builds the Groebner basis of the minors only when the
    row route fails, and still rejects every F that is not unimodular."""

    @settings(max_examples=200, deadline=None)
    @given(non_unimodular_cases())
    def test_non_unimodular_matrices_raise_value_error(self, case):
        f, general = case
        with pytest.MonkeyPatch.context() as patched:
            if general:
                _force_general_route(patched)
            with pytest.raises(ValueError, match="not unimodular"):
                complete_columns(f)

    def test_row_route_never_builds_the_unimodularity_basis(self, monkeypatch):
        cases = [(f, general) for f, general in _certificate_cases()
                 if not any(d.is_constant() for _, d in quillen_suslin._nonzero_minors(f))]
        # the 5 row-route cases of the stream and the 3 general-route rows
        assert [general for _, general in cases].count(False) == 5
        assert [general for _, general in cases].count(True) == 3

        def boom(*args, **kwargs):
            raise AssertionError("unimodularity basis built after a completion")

        monkeypatch.setattr(quillen_suslin, "_minors_generate_unit_ideal", boom)
        for f, general in cases:
            cert = _complete(f, general, monkeypatch)
            assert cert.M * f == target_block(f.cols, f.rows)

    @pytest.mark.parametrize("error", [CompletionError, InternalError])
    def test_failures_on_unimodular_matrices_are_raised_as_they_came(self, error, monkeypatch):
        def fail(self):
            raise error("row completion stub")

        monkeypatch.setattr(quillen_suslin._RowCompleter, "run", fail)
        with pytest.raises(error, match="stub"):
            complete_columns(PolyMatrix([[S], [ONE - S], [T]]))


class TestRowLevelProducts:
    def test_one_level_uses_block_products(self, monkeypatch):
        # a 2 x 5 row-route matrix (no constant minor) whose two rows each
        # reach a constant by column operations alone, so every product is
        # one of _complete_rows: f e1 for row 1, e1[:, 1:] mp, the product
        # check, and mp^-1 e1^-1[1:, :].  None is a 5 x 5 by 5 x 5 product:
        # diag(1, mp) and Y enter only as blocks and column or row operations
        f = PolyMatrix([[T, ONE + S * T, S, ZERO, ZERO], [ZERO, ZERO, S, ZERO, ONE + S * T]])
        assert is_unimodular(f.transpose())
        assert not any(d.is_constant() for _, d in quillen_suslin._nonzero_minors(f.transpose()))
        shapes = []
        mul = PolyMatrix.__mul__

        def counted(a, b):
            shapes.append(((a.rows, a.cols), (b.rows, b.cols)))
            return mul(a, b)

        monkeypatch.setattr(PolyMatrix, "__mul__", counted)
        m, m_inv = quillen_suslin._complete_rows(f)
        monkeypatch.setattr(PolyMatrix, "__mul__", mul)
        assert shapes == [((1, 5), (5, 5)), ((5, 4), (4, 4)), ((2, 5), (5, 5)),
                          ((4, 4), (4, 5))]
        assert f * m == target_block(2, 5).transpose()
        assert m * m_inv == PolyMatrix.identity(5, VARS_ST)


class TestStalledReduction:
    """A row on which mutual reduction makes no progress goes straight to the
    general route, with no Groebner lift tried first."""

    def test_goes_straight_to_the_general_route(self, monkeypatch):
        monkeypatch.setattr(quillen_suslin._RowCompleter, "_mutual_reduction_pass",
                            lambda self, nz: False)
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # the Bezout steps after the elimination lift legitimately; only the
        # pair lift that reduction would try first is counted
        monkeypatch.setattr(quillen_suslin._RowCompleter, "_bezout_pair",
                            counted("lift", quillen_suslin._RowCompleter._bezout_pair))
        monkeypatch.setattr(quillen_suslin, "_eliminate_t_monic",
                            counted("eliminate", quillen_suslin._eliminate_t_monic))
        for row in GENERAL_ROUTE_ROWS:
            calls.update(lift=0, eliminate=0)
            f = PolyMatrix([[p] for p in row])
            cert = complete_columns(f)
            assert calls == {"lift": 0, "eliminate": 1}, row
            assert cert.M * f == target_block(1, len(row))
            assert cert.M * cert.M_inv == PolyMatrix.identity(len(row), VARS_ST)


class TestNoRandomness:
    def test_completion_and_compute_draw_no_random_numbers(self, monkeypatch):
        cases = list(_certificate_cases())
        eliminations = list(_elimination_inputs())

        def boom(*args, **kwargs):
            raise AssertionError("random number drawn")

        for name in ("Random", "random", "choice", "sample"):
            monkeypatch.setattr(random, name, boom)
        for f, general in cases:
            _complete(f, general, monkeypatch)
        for f in eliminations:
            variable_elimination_step(f, "t")
        docs = []
        for seed in (0, 7):
            doc, code, _ = cli.run("compute", cli.parse_parametrization(
                "(s^2, t^2, s^2-1, s^2+1)", seed=seed))
            assert code == 0
            assert doc.pop("seed") == seed
            docs.append(doc)
        assert docs[0] == docs[1]


def _digest(*parts) -> str:
    return hashlib.sha256("|".join(map(str, parts)).encode()).hexdigest()


# sha256 of "repr(M)|repr(M_inv)|det|deg_M" for each _certificate_cases() case,
# and of repr(M) for each _elimination_inputs() matrix, pinned while the
# completion heuristics still included a left-inverse update and random
# shears: the routes that remain build exactly the same matrices.  The last
# three, the GENERAL_ROUTE_ROWS on the general route, were re-pinned when
# resultant charts replaced the Horrocks loop of _eliminate_t_monic
CERTIFICATE_DIGESTS = [
    "02a83e4b0002d0dfdea14ec76be42da594364ba964bc594ed39eab4919da1b9c",
    "0bb1a2f7d81b6d340bad8d6780a8759575ed2f1ea6ce6caa298fb00f088480fd",
    "636c8c95e9218ee95e2b6a9480d591f7d9d4abf8d367585fe6dd73627ee44fb0",
    "bc69ac851509721958b4ebbacf23ef76b0388191ffd576f9dc8acdfc7b222917",
    "90bbfb7b364016e36f80240860fb7d69e059f758f74f4870e6bedf422b64aee7",
    "44e7b8dc34331bbab7b7b155d78211cdabb3272e84262f4bbeee9ddd512971d9",
    "f100ff85a4f285d31ad0d70e1061ec540f36357a8b548bf5f1f1a360c02bdd54",
    "51c5ffe30495ee1fc914df2b62defc5afdbed035548c0efd13bd27e6e098a3e9",
    "5226d1e9b5e98d2f58ccfea1ce58d166b91332e89abda8efd4acdf4eba36190d",
    "267bdb8d6ec46600c8aed3bd1c805fb0240c6cf867fb5852d5331ee38d67b49b",
    "f100ff85a4f285d31ad0d70e1061ec540f36357a8b548bf5f1f1a360c02bdd54",
    "0ac8dc62c89f37cb445ca86de2bd735b3e529fd4b0905ee98df80e94f095ac36",
    "0371d1f549a8fcb0c80162f5e1f392d207a6e29dfdbbe7b89b2e03fb9f1ab66e",
    "31f205026bee4ec7dbe3dea6253160a18eefd1762220c2012e45aadbb8c9475f",
    "2dce6c2b985550c3192ea3e411ae31ae283f2c8273b2032f4a6d901f2921b660",
    "791382f13c5d0fc9687b1ebb318d0f5026b3c6e8c317ed3049fc60890e7e88b5",
    "949d09e7a413d934c0e17b808ea7cfb9f988a673cbc566447499bba1b6825059",
    "af7b725fbc08bc6f505d845631d4994712cb68fd46bc7f0c86bc405d9eed1847",
    "bea36f2ef8862fd7a13cc7635ced5de88eb3919b56bf3b149cf3b812d19a973e",
    "791382f13c5d0fc9687b1ebb318d0f5026b3c6e8c317ed3049fc60890e7e88b5",
    "34bb2087793c6fc99709e4262e60caaa1c9015964b4721ed2c1d53edc407cb6f",
    "4974f4bcbbb5007cbb5a4613c697e9939990698d23773d80407ab10d15483004",
    "f100ff85a4f285d31ad0d70e1061ec540f36357a8b548bf5f1f1a360c02bdd54",
    "62b04d1c822a3072d33720dcfbf15dde70c224803201ae23b4eb3f7058c3e348",
    "c5db24d74b3d2ee74655a0393fa2f74f287e41912460b910d9b24cd66dfcb463",
    "791382f13c5d0fc9687b1ebb318d0f5026b3c6e8c317ed3049fc60890e7e88b5",
    "bff80b79d19b55e064133ced1c17617e324080c5afe058047eae684222c7b784",
    "22f568563676e84148141a8d36ddd7c01b57c394057eaa5bd06fcedab8788cf1",
    "0ac8dc62c89f37cb445ca86de2bd735b3e529fd4b0905ee98df80e94f095ac36",
    "347240a5e40c2995cd95d28f2b03f4172e6a6fb8faa2f492d4db22f8bf177e1b",
    "b7f823ff14fb0149004c42e7e6f08fe4e483e1c589930888039c9c55c968e48d",
    "879b8aee137381ac87a1f3bbd1b0eea97d1ad1e2e5077a6af0e984ba72c86087",
    "c8f19cc713414e7264d0accd23aa6cb9dc27934ac7767d73c092e79847132e0e",
    "cb9b4d4ee9a37ad956f4b320aeacd0bb60e71b8e06205fba7af98334957b2f6e",
    "ad9a38559280e3342b5c7936b47366ba73fd8625cb36326ca00a79d3a34dd70d",
]

ELIMINATION_DIGESTS = [
    "b2fb487edcc8bcd5b8ed44825d489b9d39f7a43e4433945cf2ef0473a337b202",
    "85bbcfbb5938d53314d216ee576d04262d83c9ce4e345f747e4488b83a266e35",
    "376b81b1597406472fd8365ca702d4371404f3acc32cfb075f2ba3bca1f16643",
    "1134dc073298c7de3c2360761c65d67a5a9c68f0cb5936e0b475f023edc2f331",
    "85bbcfbb5938d53314d216ee576d04262d83c9ce4e345f747e4488b83a266e35",
]


class TestPinnedOutputs:
    def test_completion_certificates(self, monkeypatch):
        got = [_digest(repr(c.M), repr(c.M_inv), c.det, c.deg_M)
               for c in (_complete(f, general, monkeypatch)
                         for f, general in _certificate_cases())]
        assert got == CERTIFICATE_DIGESTS

    def test_variable_elimination(self):
        got = [_digest(repr(variable_elimination_step(f, "t")))
               for f in _elimination_inputs()]
        assert got == ELIMINATION_DIGESTS

    def test_general_route_eliminations(self):
        got = [_digest(*map(repr, _eliminate_t_monic(row))) for row in PINNED_GENERAL_ROWS]
        assert got == GENERAL_ROUTE_DIGESTS


# rows with integer coefficients; each needs two resultant charts, with
# a = 9s^4 + 5s^3 + 2s^2 + 5s + 3 and s^2 - 3s + 1 for the first and
# a = (s + 1)^2 and s^2 for the second.  The digests of "repr(M)|repr(M_inv)"
# from _eliminate_t_monic were pinned when resultant charts replaced the
# Horrocks loop.
PINNED_GENERAL_ROWS = [
    [T**2 - S + 3, -3 * S**2 - S * T - S - T, S**2 - 3 * S + 1],
    [T**2, S * T + S + 1, S**2],
]

GENERAL_ROUTE_DIGESTS = [
    "228aa7d5f3bb695c0bc2c51f8d367ce13d1b0199595dd94a1dcf6996d65d391e",
    "edbcb883fa050913a63426a2b02959ecb176a4d600b7fbd66435c5607cac085b",
]


# ---------------------------------------------------------------------------
# The resultant Bezout identity against sympy
# ---------------------------------------------------------------------------

small = st.integers(-4, 4)


def s_polys(max_deg):
    return st.lists(small, min_size=1, max_size=max_deg + 1).map(
        lambda cs: Poly(VARS_ST, {(k, 0): c for k, c in enumerate(cs)}))


def t_polys(max_t_deg, lead=None):
    """sum c_k(s) t^k for k <= max_t_deg; with ``lead``, that constant is the
    coefficient of t^max_t_deg."""
    coeffs = st.lists(s_polys(2), min_size=max_t_deg + 1, max_size=max_t_deg + 1)

    def build(cs):
        if lead is not None:
            cs[-1] = Poly.const(VARS_ST, lead)
        return sum((c * T**k for k, c in enumerate(cs)), ZERO)

    return coeffs.map(build)


@st.composite
def resultant_cases(draw):
    """(v1, w): v1 of t-degree 1..3 with a constant t-lead coefficient, and
    w of t-degree 0..3; with a planted root t = r(s), both vanish there."""
    d = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([1, 1, 2, -3]))
    if draw(st.booleans()):
        root = T - draw(s_polys(1))
        return root * draw(t_polys(d - 1, lead)), root * draw(t_polys(draw(st.integers(0, 2))))
    return draw(t_polys(d, lead)), draw(t_polys(draw(st.integers(0, 3))))


def to_sympy(sp, p):
    return sp.sympify(str(p).replace("^", "**"))


class TestResultantAgainstSympy:
    @settings(max_examples=60, deadline=10000)
    @given(resultant_cases())
    def test_bezout_identity_and_resultant(self, case):
        sp = pytest.importorskip("sympy")
        v1, w = case
        a, p, q = quillen_suslin._resultant_bezout(v1, w)
        assert p * v1 + q * w == a
        assert not quillen_suslin._uses_var(a, 1)
        s_, t_ = sp.symbols("s t")
        res = sp.resultant(to_sympy(sp, v1), to_sympy(sp, w), t_)
        assert a.is_zero() == (sp.expand(res) == 0)
        if not a.is_zero():
            assert sp.rem(sp.expand(res), to_sympy(sp, a), s_, domain=sp.QQ) == 0
