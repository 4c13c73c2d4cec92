import random

import pytest

from mubasis import arith, quillen_suslin
from mubasis.arith import VARS_ST, Poly, PolyMatrix, mat_inverse
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
            cert = complete_columns(f, seed=1)
            assert cert.M * f == target_block(1, m)
            assert cert.M * cert.M_inv == PolyMatrix.identity(m, VARS_ST)

    def test_randomized_matrices(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(1, 2)
            m = n + rng.randint(1, 2)
            f = random_unimodular_matrix(rng, m, n)
            cert = complete_columns(f, seed=2)
            assert cert.M * f == target_block(n, m)
            assert cert.det != 0

    def test_seed_reproducibility(self):
        rng = random.Random(43)
        f = random_unimodular_column(rng, 4)
        a = complete_columns(f, seed=5)
        b = complete_columns(f, seed=5)
        assert a.M == b.M and a.M_inv == b.M_inv


# rows completed without heuristics; they reach the Horrocks/patching path
GENERAL_ROUTE_ROWS = [
    [T**2 - S, S * T + S**2, S + 1],
    [T**2, T + 1, S],
    [T**2 + S, S * T + 1, S**2],
]


class TestGeneralRoute:
    """Exercise the Horrocks/patching machinery directly."""

    def test_monic_elimination_simple(self):
        row = [T**2, T + 1, S]
        assert is_unimodular(PolyMatrix([[p] for p in row]))
        m, m_inv = _eliminate_t_monic(row)
        got = [sum((row[i] * m[i, j] for i in range(3)), ZERO) for j in range(3)]
        assert got == [p.set_var("t", 0) for p in row]
        assert mat_inverse(m)[0] == m_inv  # must be unimodular

    def test_monic_elimination_with_charts(self):
        # the dense chart must invert the nonconstant coefficient s, forcing
        # a second chart along s = 0 and a genuine patch
        row = [T**2 - S, S * T + S**2, S + 1]
        assert is_unimodular(PolyMatrix([[p] for p in row]))
        m, m_inv = _eliminate_t_monic(row)
        got = [sum((row[i] * m[i, j] for i in range(3)), ZERO) for j in range(3)]
        assert got == [p.set_var("t", 0) for p in row]
        assert mat_inverse(m)[0] == m_inv

    def test_complete_columns_without_heuristics(self):
        for row in GENERAL_ROUTE_ROWS:
            f = PolyMatrix([[p] for p in row])
            if not is_unimodular(f):
                continue
            cert = complete_columns(f, use_heuristics=False)
            assert cert.M * f == target_block(1, len(row))

    def test_univariate_row(self):
        f = PolyMatrix([[S**2], [S + 1], [ZERO]])
        cert = complete_columns(f, use_heuristics=False)
        assert cert.M * f == target_block(1, 3)


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
        rng = random.Random(47)
        for _ in range(5):
            n = rng.randint(1, 2)
            m = n + rng.randint(1, 2)
            f = random_unimodular_matrix(rng, m, n).transpose()
            out = variable_elimination_step(f, "t", seed=3)
            assert f * out == f.map_entries(lambda p: p.set_var("t", 0))

    def test_precondition(self):
        with pytest.raises(ValueError):
            variable_elimination_step(PolyMatrix([[S, T]]), "t")


def _certificate_cases():
    """(f, seed, use_heuristics) covering every route through completion:
    the acceptance criterion 5 stream, the reference column, a constant
    minor, and the general route without heuristics."""
    rng = random.Random(77)
    for k in range(30):
        if k % 3 == 2:
            n = rng.randint(1, 2)
            f = random_unimodular_matrix(rng, n + rng.randint(1, 2), n)
        else:
            f = random_unimodular_column(rng, rng.randint(2, 5))
        yield f, k, True
    yield reference_column(), 0, True
    yield PolyMatrix([[S, T], [ONE, S], [T, ONE + S * T]]), 0, True
    for row in GENERAL_ROUTE_ROWS:
        f = PolyMatrix([[p] for p in row])
        if is_unimodular(f):
            yield f, 0, False


class TestCarriedInverse:
    """The inverse and determinant built alongside M match the adjugate
    route, which stays the reference implementation."""

    def test_matches_mat_inverse(self):
        for f, seed, heur in _certificate_cases():
            cert = complete_columns(f, seed=seed, use_heuristics=heur)
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
        for f, seed, heur in _certificate_cases():
            cert = complete_columns(f, seed=seed, use_heuristics=heur)
            assert cert.M * cert.M_inv == PolyMatrix.identity(f.rows, VARS_ST)
        rng = random.Random(47)
        for _ in range(5):
            n = rng.randint(1, 2)
            f = random_unimodular_matrix(rng, n + rng.randint(1, 2), n).transpose()
            out = variable_elimination_step(f, "t", seed=3)
            assert f * out == f.map_entries(lambda p: p.set_var("t", 0))
        assert variable_elimination_step(PolyMatrix([[T, ONE]]), "t") == \
            PolyMatrix([[ONE, ZERO], [-T, ONE]])
