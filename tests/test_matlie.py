"""Lie algebra engine: constructors, brackets, ideals, Killing form,
commutant, simplicity ladder."""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idealkit.catalog import (
    algebra_to_json,
    diagonal_algebra,
    direct_sum,
    make_algebra,
    shift_truncation,
    sl,
    sp_skew_variant,
    sp_standard,
    strictly_upper,
    upper_triangular_sl,
)
from idealkit import matlie
from idealkit.matlie import (
    LieAlgebraPresentation,
    NotClosedError,
    adjoint_commutant,
    algebra_from_json,
    closure_check,
    derived_algebra,
    is_lie_ideal,
    is_simple,
    killing_form,
    lie_ideal_generated,
    random_ideal_search,
    span_reduce,
    subspace_from_coords,
    subspace_from_matrices,
)
from idealkit.ratlinalg import RationalMatrix, bracket
from idealkit.matlie import (
    _ads_mod_p,
    _commutant,
    _commutant_exact,
    _min_poly,
    _rational_roots,
    _structure,
)
from idealkit.ratlinalg import MODP_PRIMES, SparseEchelon, rank
from idealkit.seqspace import Pow, PowLog

small_fraction = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def rational_matrix(n):
    return st.lists(
        st.lists(small_fraction, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix)


def E(n, i, j):
    return RationalMatrix.unit(n, i, j)


def dense_constants(algebra):
    """Dense view of the sparse table: [i][j][k] is coordinate k of [b_i, b_j]."""
    d = algebra.dim
    return [[[col.get(k, F(0)) for k in range(d)] for col in ad] for ad in _structure(algebra).ads]


def dense_ads(algebra):
    """ad(b_i) as dense rows: row k, column j holds coordinate k of [b_i, b_j]."""
    return [[list(row) for row in zip(*cols)] for cols in dense_constants(algebra)]


def from_entries(n, *mats):
    """Matrices of size n from dicts {(row, column): value}."""
    return tuple(RationalMatrix.from_nonzeros(n, n, m) for m in mats)


def sl2_over_field(s, name):
    """sl(2, K) over Q by restriction of scalars, for K = Q(a) given by the
    n x n matrix s of multiplication by a on the basis 1, a, ..., a^(n-1):
    e, f, h tensored with 1, s, ..., s^(n-1)."""
    n = len(s)
    powers = [RationalMatrix.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ RationalMatrix(s))
    sl2 = ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])
    return LieAlgebraPresentation(2 * n, tuple(
        RationalMatrix([[a[r // n][c // n] * b.entries[r % n][c % n] for c in range(2 * n)]
                        for r in range(2 * n)])
        for a in sl2 for b in powers), name)


def sl2_over_sqrt(D):
    """sl(2, Q(√D)) over Q: e, f, h tensored with 1 and with s = [[0, D], [1, 0]],
    whose square is D."""
    return sl2_over_field([[0, D], [1, 0]], f"sl2_Q(sqrt {D})")


def sl2_over_cbrt2():
    """sl(2, Q(∛2)) over Q: s multiplies 1, a, a² by a, with a³ = 2."""
    return sl2_over_field([[0, 0, 2], [1, 0, 0], [0, 1, 0]], "sl2_Q(cbrt 2)")


def sl2_over_fourth_root2():
    """sl(2, Q(2^(1/4))) over Q: a centroid of degree 4."""
    return sl2_over_field([[0, 0, 0, 2], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
                          "sl2_Q(2^(1/4))")


def jacobi_algebra():
    """The Jacobi algebra sl(2) ⋉ h_3: rows [0, wᵀJ, z], [0, A, w], [0, 0, 0]
    with J = [[0, 1], [-1, 0]]; its center is the z line."""
    return LieAlgebraPresentation(4, from_entries(
        4,
        {(1, 2): 1}, {(2, 1): 1}, {(1, 1): 1, (2, 2): -1},
        {(0, 2): 1, (1, 3): 1}, {(0, 1): -1, (2, 3): 1}, {(0, 3): 1},
    ), "jacobi")


def affine_sl2():
    """Affine sl(2) as [[A, w], [0, 0]]: centerless and perfect, and the
    translations w are its Killing radical."""
    return LieAlgebraPresentation(3, from_entries(
        3, {(0, 1): 1}, {(1, 0): 1}, {(0, 0): 1, (1, 1): -1}, {(0, 2): 1}, {(1, 2): 1},
    ), "affine_sl2")


@pytest.fixture
def center_runs(monkeypatch):
    """The name of the algebra of each ``_center_coords`` call."""
    runs = []
    real = matlie._center_coords

    def spy(L):
        runs.append(L.name)
        return real(L)

    monkeypatch.setattr(matlie, "_center_coords", spy)
    return runs


@pytest.fixture
def exact_runs(monkeypatch):
    """The number of starting positions of each ``_commutant_exact`` call."""
    runs = []
    real = matlie._commutant_exact

    def spy(ads, d, positions):
        runs.append(len(positions))
        return real(ads, d, positions)

    monkeypatch.setattr(matlie, "_commutant_exact", spy)
    return runs


def reference_commutant(algebra):
    """Full elimination: every constraint row of X -> X·ad - ad·X, over all
    d² unknowns of X, in one Fraction echelon, and its kernel."""
    d = algebra.dim
    ech = SparseEchelon(d * d)
    for ad in dense_ads(algebra):
        cols = [[(k, ad[k][j]) for k in range(d) if ad[k][j]] for j in range(d)]
        rows = [[(k, v) for k, v in enumerate(ad[i]) if v] for i in range(d)]
        for i in range(d):
            for j in range(d):
                # entry (i, j) of X·ad - ad·X
                row = {i * d + k: v for k, v in cols[j]}
                for k, v in rows[i]:
                    row[k * d + j] = row.get(k * d + j, 0) - v
                ech.insert(row)
    return [RationalMatrix([vec[r * d:(r + 1) * d] for r in range(d)]) for vec in ech.kernel()]


class TestConstructors:
    @pytest.mark.parametrize("n,dim", [(1, 3), (2, 10), (3, 21)])
    def test_sp_standard_dims(self, n, dim):
        algebra = sp_standard(n)
        assert algebra.dim == dim == n * (2 * n + 1)
        # independence oracle: the vectorized basis has full rank
        assert len(span_reduce(list(algebra.basis))) == dim

    def test_sp_skew_variant_dim(self):
        assert sp_skew_variant(2).dim == 8

    @pytest.mark.parametrize(
        "ctor,n,dim",
        [
            (upper_triangular_sl, 3, 5),
            (upper_triangular_sl, 4, 9),
            (strictly_upper, 3, 3),
            (strictly_upper, 4, 6),
            (sl, 2, 3),
            (sl, 3, 8),
        ],
    )
    def test_other_dims(self, ctor, n, dim):
        assert ctor(n).dim == dim

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError):
            sp_standard(0)
        with pytest.raises(ValueError):
            make_algebra("sl", 0)

    def test_make_algebra_dispatch(self):
        assert make_algebra("sp", 2) == sp_standard(2)
        with pytest.raises(ValueError):
            make_algebra("nonsense", 2)

    def test_shift_truncation(self):
        algebra = shift_truncation(Pow(1), 4)
        m = algebra.basis[0]
        assert m.entries[0][1] == 1
        assert m.entries[1][2] == F(1, 2)
        assert m.entries[2][3] == F(1, 3)
        assert algebra.dim == 1

    def test_shift_truncation_needs_exact_weights(self):
        with pytest.raises(ValueError):
            shift_truncation(PowLog(1, 1), 4)


class TestBracket:
    def test_alternating(self):
        x = E(2, 0, 1)
        assert bracket(x, x).is_zero()

    def test_sl2_relation(self):
        h = bracket(E(2, 0, 1), E(2, 1, 0))
        assert h == RationalMatrix([[1, 0], [0, -1]])

    @given(x=rational_matrix(3), y=rational_matrix(3))
    @settings(max_examples=100)
    def test_trace_zero(self, x, y):
        assert bracket(x, y).trace() == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bracket(E(2, 0, 1), E(3, 0, 1))


class TestSpanReduce:
    def test_scalar_multiple(self):
        x = E(2, 0, 1)
        assert len(span_reduce([x, x.scaled(2)])) == 1

    def test_empty(self):
        assert span_reduce([]) == []

    def test_sp2_basis_independent(self):
        assert len(span_reduce(list(sp_standard(2).basis))) == 10

    def test_unequal_shapes_refused(self):
        # read through its flat index, E(3, 0, 1) would pass for E(2, 0, 1)
        with pytest.raises(ValueError, match="matrices of equal shape"):
            span_reduce([E(2, 0, 1), E(3, 0, 1)])


class TestClosure:
    def test_sp_standard_closed(self):
        assert closure_check(sp_standard(2)).closed

    def test_skew_variant_fails_for_n_at_least_two(self):
        report = closure_check(sp_skew_variant(2))
        assert not report.closed
        assert report.residual is not None and not report.residual.is_zero()
        # independent recheck: the residual is outside the span of the basis
        algebra = sp_skew_variant(2)
        i, j = report.pair
        br = bracket(algebra.basis[i], algebra.basis[j])
        with pytest.raises(ValueError):
            subspace_from_matrices(sp_standard(2), [br])  # wrong parent on purpose
        reduced = span_reduce(list(algebra.basis) + [br])
        assert len(reduced) == algebra.dim + 1

    def test_skew_variant_n1_closed(self):
        assert closure_check(sp_skew_variant(1)).closed

    def test_strictly_upper_closed(self):
        assert closure_check(strictly_upper(3)).closed

    def test_structure_raises_when_not_closed(self):
        with pytest.raises(NotClosedError):
            derived_algebra(sp_skew_variant(2))


class TestStructureTable:
    def test_sparse_table_invariants_sp3(self):
        algebra = sp_standard(3)
        ads = _structure(algebra).ads
        d = algebra.dim
        assert len(ads) == d and all(len(ad) == d for ad in ads)
        for i in range(d):
            assert ads[i][i] == {}
            for j in range(d):
                assert ads[j][i] == {k: -c for k, c in ads[i][j].items()}
                assert all(c != 0 for c in ads[i][j].values())
                rebuilt = RationalMatrix.zeros(algebra.ambient)
                for k, c in ads[i][j].items():
                    rebuilt = rebuilt + algebra.basis[k].scaled(c)
                assert rebuilt == bracket(algebra.basis[i], algebra.basis[j])


class TestDerived:
    def test_triangular_derived_is_strictly_upper(self):
        ut3 = upper_triangular_sl(3)
        derived = derived_algebra(ut3)
        assert derived.dim == 3
        expected = subspace_from_matrices(ut3, list(strictly_upper(3).basis))
        assert derived.ambient_rref() == expected.ambient_rref()

    def test_sl2_is_perfect(self):
        assert derived_algebra(sl(2)).dim == 3

    def test_abelian_derived_is_zero(self):
        assert derived_algebra(diagonal_algebra(3)).dim == 0

    @pytest.mark.parametrize("algebra", [sl(2), sp_standard(2), upper_triangular_sl(3)])
    def test_derived_is_trace_zero_ideal(self, algebra):
        derived = derived_algebra(algebra)
        assert is_lie_ideal(algebra, derived).is_ideal
        for m in derived.matrices():
            assert m.trace() == 0


class TestLieIdealGenerated:
    def test_zero_seed(self):
        algebra = sl(2)
        sub = lie_ideal_generated(algebra, [RationalMatrix.zeros(2)])
        assert sub.dim == 0

    def test_sl2_single_root_generates_all(self):
        algebra = sl(2)
        sub = lie_ideal_generated(algebra, [E(2, 0, 1)])
        assert sub.dim == 3

    def test_central_nilpotent_seed_stays_small(self):
        ut3 = upper_triangular_sl(3)
        sub = lie_ideal_generated(ut3, [E(3, 0, 2)])
        assert sub.dim == 1
        assert is_lie_ideal(ut3, sub).is_ideal
        inside = subspace_from_matrices(ut3, list(strictly_upper(3).basis))
        for vec in sub.vectors:
            assert inside.contains_coords(vec)

    def test_seed_outside_span_rejected(self):
        with pytest.raises(ValueError):
            lie_ideal_generated(strictly_upper(3), [E(3, 1, 0)])

    def test_monotone_and_idempotent(self):
        algebra = upper_triangular_sl(4)
        small = lie_ideal_generated(algebra, [E(4, 0, 3)])
        large = lie_ideal_generated(algebra, [E(4, 0, 3), E(4, 0, 1)])
        for vec in small.vectors:
            assert subspace_from_coords(algebra, large.vectors).contains_coords(vec)
        again = lie_ideal_generated(algebra, small.matrices())
        assert again.vectors == small.vectors


class TestIsLieIdeal:
    def test_whole_algebra(self):
        algebra = sl(2)
        whole = subspace_from_matrices(algebra, list(algebra.basis))
        assert is_lie_ideal(algebra, whole).is_ideal

    def test_strictly_upper_in_triangular(self):
        ut4 = upper_triangular_sl(4)
        sub = subspace_from_matrices(ut4, list(strictly_upper(4).basis))
        assert is_lie_ideal(ut4, sub).is_ideal

    def test_root_space_is_not_an_ideal(self):
        algebra = sl(2)
        sub = subspace_from_matrices(algebra, [E(2, 0, 1)])
        chk = is_lie_ideal(algebra, sub)
        assert not chk.is_ideal
        # basis (E01, E10, H): ad(E01) kills E01, [E10, E01] = -H is the first miss
        assert chk.violation == (1, 0)

    def test_subspace_of_another_presentation_refused(self):
        J = subspace_from_matrices(sl(2), [E(2, 0, 1)])
        with pytest.raises(ValueError, match="does not live in the given presentation"):
            is_lie_ideal(upper_triangular_sl(2), J)

    def test_zero_witness_refused(self):
        # the zero subspace is a Lie ideal, but not a proper nonzero one
        with pytest.raises(RuntimeError, match="trivial dimension"):
            matlie._checked_witness(sl(2), subspace_from_coords(sl(2), []))

    def test_contains_coords_refuses_a_vector_of_the_wrong_length(self):
        # sl(2) has dim 3; a short vector is not a zero-padded one
        J = subspace_from_coords(sl(2), [[1, 0, 0]])
        assert J.contains_coords([F(2), F(0), F(0)])
        assert not J.contains_coords([F(0), F(1), F(0)])
        for vec in ([F(1)], [F(1), F(0), F(0), F(0)]):
            with pytest.raises(ValueError, match="expected 3 coordinates"):
                J.contains_coords(vec)

    @pytest.mark.parametrize("matrix,shape", [
        (RationalMatrix.unit(3, 0, 1), "3 x 3"),
        (RationalMatrix.from_nonzeros(1, 4, {(0, 1): 1}), "1 x 4"),
        (RationalMatrix.unit(3, 2, 2), "3 x 3"),
    ])
    def test_matrix_of_another_shape_is_refused(self, matrix, shape):
        # read through its flat index, the first two would pass for sl(2)'s E01
        from idealkit.base import InputError

        algebra = sl(2)
        seeds = [algebra.basis[0], matrix]
        for call in (lie_ideal_generated, subspace_from_matrices):
            with pytest.raises(InputError, match=f"matrix 1 is {shape}, not 2 x 2"):
                call(algebra, seeds)


class TestKilling:
    def test_sl2_rank(self):
        rep = killing_form(sl(2))
        assert rep.rank == 3

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_sl_trace_form_oracle(self, n):
        # classical: the adjoint trace form of sl(n) is 2n times the matrix
        # trace form; recomputed here entirely from structure constants
        algebra = sl(n)
        rep = killing_form(algebra)
        for i, x in enumerate(algebra.basis):
            for j, y in enumerate(algebra.basis):
                assert rep.matrix.entries[i][j] == 2 * n * (x @ y).trace()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sp_trace_form_oracle(self, n):
        algebra = sp_standard(n)
        rep = killing_form(algebra)
        factor = 2 * n + 2
        for i, x in enumerate(algebra.basis):
            for j, y in enumerate(algebra.basis):
                assert rep.matrix.entries[i][j] == factor * (x @ y).trace()
        assert rep.rank == algebra.dim

    def test_nilpotent_killing_vanishes(self):
        rep = killing_form(strictly_upper(3))
        assert rep.rank == 0
        assert rep.matrix.is_zero()

    def test_abelian_killing_vanishes(self):
        assert killing_form(diagonal_algebra(2)).matrix.is_zero()

    @pytest.mark.parametrize("algebra", [sl(2), sp_standard(2), upper_triangular_sl(3)])
    def test_invariance_on_basis_triples(self, algebra):
        rep = killing_form(algebra)
        constants = dense_constants(algebra)
        d = algebra.dim
        k = rep.matrix.entries

        def K(u, v):
            return sum(
                (uc * vc * k[a][b] for a, uc in enumerate(u) if uc for b, vc in enumerate(v) if vc),
                F(0),
            )

        basis_coords = [[F(1) if i == j else F(0) for j in range(d)] for i in range(d)]
        for x in range(d):
            for y in range(d):
                for z in range(d):
                    lhs = K(constants[x][y], basis_coords[z])
                    rhs = K(basis_coords[y], constants[x][z])
                    assert lhs + rhs == 0


class TestCommutant:
    def test_simple_algebra_scalars_only(self, exact_runs):
        for algebra in (sl(2), sl(3)):
            assert adjoint_commutant(algebra) == (RationalMatrix.identity(algebra.dim),)
        assert exact_runs == []

    @pytest.mark.parametrize(
        "left,right,support",
        [(sl(2), sl(2), 6), (sp_standard(3), sp_standard(2), 31)],
        ids=["sl2+sl2", "sp3+sp2"],
    )
    def test_two_summands(self, left, right, support, exact_runs):
        algebra = direct_sum(left, right)
        com = adjoint_commutant(algebra)
        assert len(com) == 2
        # one exact run, from the support of the modular basis only
        assert exact_runs == [support]
        # each basis element genuinely commutes with every adjoint map
        ads = [RationalMatrix(ad) for ad in dense_ads(algebra)]
        for C in com:
            for adm in ads:
                assert ((C @ adm) - (adm @ C)).is_zero()

    def test_one_dimensional_abelian(self, exact_runs):
        # the one unit matrix is already the identity
        assert adjoint_commutant(diagonal_algebra(1)) == (RationalMatrix.identity(1),)
        assert exact_runs == []

    def test_modular_and_exact_paths_agree(self):
        for algebra in (sl(2), sp_standard(1), sp_standard(2)):
            d = algebra.dim
            exact = _commutant_exact(_structure(algebra).ads, d, range(d * d))
            assert list(adjoint_commutant(algebra)) == exact == [RationalMatrix.identity(d)]

    def test_modular_certificate_for_sp4(self, exact_runs):
        assert adjoint_commutant(sp_standard(4)) == (RationalMatrix.identity(36),)
        assert exact_runs == []

    def test_vanishing_denominator_moves_to_next_prime(self, exact_runs):
        # basis (p*h, e, f): [e, f] = h = (1/p) * (p*h), a denominator p
        p = MODP_PRIMES[0]
        h = E(2, 0, 0) - E(2, 1, 1)
        algebra = LieAlgebraPresentation(2, (h.scaled(p), E(2, 0, 1), E(2, 1, 0)), "sl_2_scaled")
        assert any(v.denominator == p for ad in dense_ads(algebra) for r in ad for v in r)
        rep = is_simple(algebra)
        assert rep.verdict == "Simple" and rep.commutant_dim == 1
        assert exact_runs == []

    def test_no_prime_left_runs_the_exact_commutant(self, exact_runs):
        # a denominator divisible by every prime of MODP_PRIMES: no modular
        # image exists, so the commutant is eliminated exactly over all 9
        # positions of the 3 x 3 unknown
        p = math.prod(MODP_PRIMES)
        h = E(2, 0, 0) - E(2, 1, 1)
        algebra = LieAlgebraPresentation(2, (h.scaled(p), E(2, 0, 1), E(2, 1, 0)), "sl_2_scaled")
        assert matlie._ads_mod_p(matlie._structure(algebra).ads) == (None, None)
        rep = is_simple(algebra)
        assert rep.verdict == "Simple" and rep.commutant_dim == 1
        assert exact_runs == [9]

    def test_abelian_commutant_is_full_endomorphism_space(self):
        assert len(adjoint_commutant(diagonal_algebra(2))) == 4

    @pytest.mark.parametrize(
        "algebra,witness_dim",
        [
            (direct_sum(sl(2), sl(2)), 3),
            (direct_sum(sp_standard(3), sp_standard(2)), 10),
            (direct_sum(direct_sum(sl(2), sl(2)), sl(2)), 6),
            (direct_sum(sl(2), sl(3)), 8),
        ],
        ids=["sl2+sl2", "sp3+sp2", "sl2+sl2+sl2", "sl2+sl3"],
    )
    def test_centroid_minimal_polynomials_square_free(self, algebra, witness_dim):
        # witness extraction reads eigenvalues off the minimal polynomial
        # without a square-free pass: the commutant of a semisimple algebra
        # is its centroid, a product of number fields
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for C in adjoint_commutant(algebra):
            f = sympy.Poly(list(reversed(_min_poly(C))), x, domain="QQ")
            assert sympy.gcd(f, f.diff(x)).degree() == 0
        rep = is_simple(algebra)
        assert rep.verdict == "NotSimple" and rep.witness.dim == witness_dim


class TestCommutantReference:
    """The restriction loop against full elimination, basis for basis."""

    @staticmethod
    def check(algebra):
        d = algebra.dim
        every = range(d * d)
        ads = _structure(algebra).ads
        expected = reference_commutant(algebra)
        assert _commutant_exact(ads, d, every) == expected
        p, mods = _ads_mod_p(ads)
        assert len(_commutant(mods, d, every, p)) == len(expected)
        assert list(adjoint_commutant(algebra)) == expected

    @pytest.mark.parametrize(
        "algebra",
        [
            direct_sum(sl(2), sl(2)),
            direct_sum(sp_standard(3), sp_standard(2)),
            direct_sum(sl(2), sl(3)),
            sl2_over_sqrt(-1),
            diagonal_algebra(2),
            # every ad of these constrains the commutant, so dropping one shows
            strictly_upper(3),
            upper_triangular_sl(3),
        ],
        ids=["sl2+sl2", "sp3+sp2", "sl2+sl3", "sl2(Q(i))", "diagonal2", "su3", "ut-sl3"],
    )
    def test_matches_full_elimination(self, algebra):
        self.check(algebra)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(-1, 1), min_size=36, max_size=36))
    def test_rational_structure_constants(self, entries):
        # an invertible integer change of basis of sl(2)+sl(2) makes the
        # structure constants rational
        change = [entries[6 * r:6 * r + 6] for r in range(6)]
        assume(rank([[F(v) for v in row] for row in change]) == 6)
        base = direct_sum(sl(2), sl(2)).basis
        basis = tuple(
            sum((b.scaled(c) for c, b in zip(row, base)), RationalMatrix.zeros(4)) for row in change
        )
        self.check(LieAlgebraPresentation(4, basis, "sl2+sl2_rebased"))

    def test_unlucky_prime_reruns_on_every_position(self, exact_runs):
        # mod p the generator s of Q(√p) squares to zero: the centroid keeps
        # its dimension, but its maps lose their entries p, so the modular
        # support misses positions of the rational commutant
        algebra = sl2_over_sqrt(MODP_PRIMES[0])
        assert list(adjoint_commutant(algebra)) == reference_commutant(algebra)
        assert exact_runs == [9, 36]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30).filter(bool))
    @example(MODP_PRIMES[0])
    @example(10 ** 200 + 1)
    def test_quadratic_centroid_plus_sl2(self, D):
        self.check(direct_sum(sl2_over_sqrt(D), sl(2)))


class TestMinPoly:
    def test_projection_polynomial(self):
        c = RationalMatrix([[1, 0], [0, 0]])
        assert _min_poly(c) == [F(0), F(-1), F(1)]  # x^2 - x

    def test_rational_roots(self):
        # (x - 1/2)(x + 3) = x^2 + 5/2 x - 3/2
        roots = _rational_roots([F(-3, 2), F(5, 2), F(1)])
        assert roots == [F(-3), F(1, 2)]

    @settings(max_examples=60, deadline=None)
    @given(
        linear=st.lists(st.builds(F, st.integers(-10 ** 15, 10 ** 15), st.integers(1, 10 ** 8)),
                        max_size=4),
        nonlinear=st.lists(st.lists(st.integers(-30, 30), min_size=2, max_size=3)
                           .map(lambda low: low + [1]), max_size=2),
        with_zero=st.booleans(),
    )
    @example(linear=[F(10 ** 15, 10 ** 8 - 1)], nonlinear=[[-2, 0, 1]], with_zero=True)
    def test_rational_roots_match_sympy(self, linear, nonlinear, with_zero):
        # products of linear factors x - u/v and quadratic or cubic ones,
        # against the degree-one factors sympy finds
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        factors = [x - sympy.Rational(u.numerator, u.denominator) for u in linear + [F(0)] * with_zero]
        factors += [sum(c * x ** i for i, c in enumerate(low)) for low in nonlinear]
        f = sympy.Poly(sympy.prod(factors) if factors else x - 1, x, domain="QQ")
        assume(sympy.gcd(f, f.diff(x)).degree() == 0)
        f = f.monic()
        expected = sorted(
            -F(int(c.p), int(c.q))
            for c in (g.TC() / g.LC() for g, _ in f.factor_list()[1] if g.degree() == 1)
        )
        coeffs = [F(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        assert _rational_roots(coeffs) == expected

    @pytest.mark.parametrize("poly", [
        [F(-2), F(5), F(-4), F(1)],  # (x - 1)²(x - 2)
        [F(0), F(0), F(1), F(1)],  # x²(x + 1)
        [F(1, 4), F(1), F(1)],  # (x + 1/2)²
    ], ids=["(x-1)^2(x-2)", "x^2(x+1)", "(x+1/2)^2"])
    def test_repeated_root_is_a_bug(self, poly):
        with pytest.raises(RuntimeError, match="square-free"):
            _rational_roots(poly)


class TestSimplicity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symplectic_simple(self, n):
        rep = is_simple(sp_standard(n))
        assert rep.verdict == "Simple"
        assert rep.commutant_dim == 1

    def test_triangular_not_simple_with_nilpotent_witness(self):
        ut4 = upper_triangular_sl(4)
        rep = is_simple(ut4)
        assert rep.verdict == "NotSimple"
        assert rep.witness.dim == 6
        expected = subspace_from_matrices(ut4, list(strictly_upper(4).basis))
        assert rep.witness.ambient_rref() == expected.ambient_rref()
        assert is_lie_ideal(ut4, rep.witness).is_ideal

    @pytest.mark.parametrize("n", [2, 3])
    def test_sl_simple(self, n):
        assert is_simple(sl(n)).verdict == "Simple"

    def test_direct_sum_splits(self):
        ds = direct_sum(sl(2), sl(2))
        rep = is_simple(ds)
        assert rep.verdict == "NotSimple"
        assert rep.commutant_dim == 2
        assert rep.witness is not None and 0 < rep.witness.dim < 6
        assert is_lie_ideal(ds, rep.witness).is_ideal
        summands = [
            subspace_from_matrices(ds, [ds.basis[i] for i in idx]).ambient_rref()
            for idx in ([0, 1, 2], [3, 4, 5])
        ]
        assert rep.witness.ambient_rref() in summands

    def test_center_rung(self, center_runs):
        algebra = jacobi_algebra()
        assert closure_check(algebra).closed
        rep = is_simple(algebra)
        assert (rep.verdict, rep.detail) == ("NotSimple", "center is a proper nonzero Lie ideal")
        assert rep.witness.vectors == ((0, 0, 0, 0, 0, 1),)
        assert center_runs == ["jacobi"]

    def test_killing_radical_rung(self, center_runs):
        algebra = affine_sl2()
        assert closure_check(algebra).closed
        rep = is_simple(algebra)
        assert (rep.verdict, rep.detail) == ("NotSimple", "Killing radical is a proper nonzero Lie ideal")
        assert rep.witness.vectors == ((0, 0, 0, 1, 0), (0, 0, 0, 0, 1))
        assert center_runs == ["affine_sl2"]

    @pytest.mark.parametrize(
        "algebra",
        [sl(3), sp_standard(2), direct_sum(sp_standard(3), sp_standard(2)), upper_triangular_sl(4)],
        ids=["sl3", "sp2", "sp3+sp2", "ut-sl4"],
    )
    def test_no_center_rung_without_a_degenerate_killing_form(self, algebra, center_runs):
        is_simple(algebra)
        assert center_runs == []

    def test_commutant_eigenspace_failing_the_ideal_check_is_a_bug(self, monkeypatch):
        monkeypatch.setattr(matlie, "is_lie_ideal", lambda L, J: matlie.IdealCheck(False, (0, 0)))
        with pytest.raises(RuntimeError, match="not a Lie ideal"):
            is_simple(direct_sum(sp_standard(3), sp_standard(2)))

    def test_abelian_verdict(self):
        rep = is_simple(diagonal_algebra(2))
        assert rep.verdict == "Abelian"
        assert rep.witness is not None and rep.witness.dim == 1
        assert is_simple(shift_truncation(Pow(1), 4)).verdict == "Abelian"

    def test_non_closed_rejected(self):
        with pytest.raises(NotClosedError):
            is_simple(sp_skew_variant(2))

    def test_simple_over_a_quadratic_centroid(self):
        algebra = sl2_over_sqrt(-1)
        assert closure_check(algebra).closed
        assert killing_form(algebra).rank == 6
        rep = is_simple(algebra)
        assert (rep.verdict, rep.witness, rep.commutant_dim, rep.flags) == ("Simple", None, 2, ())
        assert rep.detail == "Killing form nondegenerate and the centroid is a field of degree 2"

    @pytest.mark.parametrize("algebra,k", [(sl2_over_sqrt(2), 2), (sl2_over_cbrt2(), 3)],
                             ids=["sl2(Q(sqrt2))", "sl2(Q(cbrt2))"])
    def test_simple_over_a_centroid_of_degree_at_most_three(self, algebra, k):
        assert killing_form(algebra).rank == algebra.dim == 3 * k
        rep = is_simple(algebra)
        assert (rep.verdict, rep.witness, rep.commutant_dim, rep.flags) == ("Simple", None, k, ())
        assert rep.detail == f"Killing form nondegenerate and the centroid is a field of degree {k}"

    @pytest.mark.parametrize("algebra,k", [
        (direct_sum(sl(2), sl2_over_sqrt(-1)), 3),
        (direct_sum(sp_standard(3), sp_standard(2)), 2),
    ], ids=["sl2+sl2(Q(i))", "sp3+sp2"])
    def test_split_centroid_gives_a_checked_witness(self, algebra, k):
        rep = is_simple(algebra)
        assert (rep.verdict, rep.commutant_dim, rep.flags) == ("NotSimple", k, ())
        assert matlie._checked_witness(algebra, rep.witness) is rep.witness

    def test_centroid_of_degree_four_keeps_the_flag(self):
        rep = is_simple(sl2_over_fourth_root2())
        assert (rep.verdict, rep.witness, rep.commutant_dim) == ("NotSimple", None, 4)
        assert rep.flags == ("witness extraction incomplete",)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-10 ** 30, 10 ** 30).filter(bool))
    @example(10 ** 12 + 39)
    @example((10 ** 6 + 3) * (10 ** 6 + 33))
    @example(10 ** 200 + 1)
    @example(1)
    @example((10 ** 15 + 37) ** 2)
    def test_quadratic_centroid_decided_for_any_coefficient(self, D):
        # the root search of the centroid element s, with s² = D, never stalls
        algebra = sl2_over_sqrt(D)
        rep = is_simple(algebra)
        if D > 0 and math.isqrt(D) ** 2 == D:
            assert (rep.verdict, rep.commutant_dim, rep.flags) == ("NotSimple", 2, ())
            assert matlie._checked_witness(algebra, rep.witness) is rep.witness
        else:
            assert (rep.verdict, rep.witness, rep.commutant_dim, rep.flags) == ("Simple", None, 2, ())

    def test_centroid_with_a_many_prime_discriminant(self):
        # D = 2·3·5·…·61 has 2^18 divisors; a search through them takes seconds
        start = time.perf_counter()
        rep = is_simple(sl2_over_sqrt(117288381359406970983270))
        assert time.perf_counter() - start < 1.0  # a guard against a divisor search
        assert (rep.verdict, rep.witness, rep.commutant_dim, rep.flags) == ("Simple", None, 2, ())

    @pytest.mark.parametrize("algebra", [sp_standard(1), sp_standard(2), sl(2), sl(3)])
    def test_randomized_soundness_fast_algebras(self, algebra):
        assert is_simple(algebra).verdict == "Simple"
        assert random_ideal_search(algebra, samples=200, seed=7) is None

    def test_randomized_soundness_sp3(self):
        assert random_ideal_search(sp_standard(3), samples=200, seed=7) is None

    @staticmethod
    def _exact_search(algebra, samples, seed, coord_bound=9):
        # the exact Fraction fixpoint for every sample, through the public API
        rng = random.Random(seed)
        d = algebra.dim
        for _ in range(samples):
            coords = [rng.randint(-coord_bound, coord_bound) for _ in range(d)]
            if all(v == 0 for v in coords):
                coords[rng.randrange(d)] = 1
            element = RationalMatrix.zeros(algebra.ambient)
            for c, b in zip(coords, algebra.basis):
                element = element + b.scaled(c)
            J = lie_ideal_generated(algebra, [element])
            if 0 < J.dim < d:
                return J
        return None

    @pytest.mark.parametrize(
        "algebra,samples,coord_bound,seed",
        [
            (sp_standard(3), 12, 9, 0),
            (sp_standard(3), 12, 9, 7),
            (direct_sum(sl(2), sl(2)), 40, 1, 0),
            (direct_sum(sl(2), sl(2)), 40, 1, 7),
            (direct_sum(sp_standard(3), sp_standard(2)), 1, 9, 7),
            # every sample is a basis element, which lies in one summand
            (direct_sum(sp_standard(3), sp_standard(2)), 3, 0, 7),
        ],
        ids=["sp3-0", "sp3-7", "sl2+sl2-0", "sl2+sl2-7", "sp3+sp2", "sp3+sp2-basis"],
    )
    def test_random_search_matches_exact_path(self, algebra, samples, coord_bound, seed):
        expected = self._exact_search(algebra, samples, seed, coord_bound)
        assert random_ideal_search(algebra, samples, seed, coord_bound) == expected

    def test_random_search_finds_ideal_in_reducible_algebra(self):
        found = random_ideal_search(upper_triangular_sl(3), samples=50, seed=3)
        assert found is not None
        assert is_lie_ideal(upper_triangular_sl(3), found).is_ideal


class TestJacobi:
    @pytest.mark.parametrize(
        "algebra",
        [sl(2), sl(3), sp_standard(2), upper_triangular_sl(3), strictly_upper(4)],
    )
    def test_jacobi_on_all_basis_triples(self, algebra):
        basis = algebra.basis
        d = len(basis)
        pairwise = {}
        for i in range(d):
            for j in range(d):
                pairwise[i, j] = bracket(basis[i], basis[j])
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    total = (
                        bracket(basis[i], pairwise[j, k])
                        + bracket(basis[j], pairwise[k, i])
                        + bracket(basis[k], pairwise[i, j])
                    )
                    assert total.is_zero()

    def test_jacobi_sp3_via_adjoint_identity(self):
        # ad[x, y] = ad x ad y - ad y ad x covers every triple at dim 21
        algebra = sp_standard(3)
        constants = dense_constants(algebra)
        ads = [RationalMatrix(ad) for ad in dense_ads(algebra)]
        d = algebra.dim
        for i in range(d):
            for j in range(i + 1, d):
                lhs = RationalMatrix.zeros(d)
                for k, c in enumerate(constants[i][j]):
                    if c:
                        lhs = lhs + ads[k].scaled(c)
                rhs = (ads[i] @ ads[j]) - (ads[j] @ ads[i])
                assert lhs == rhs


class TestAlgebraFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        algebra = LieAlgebraPresentation(
            2,
            (
                RationalMatrix([[F(1, 3), 0], [0, F(-1, 3)]]),
                RationalMatrix([[0, 1], [0, 0]]),
            ),
            "custom",
        )
        payload = algebra_to_json(algebra)
        text = json.dumps(payload, sort_keys=True)
        assert algebra_from_json(json.loads(text)) == algebra
        assert json.dumps(algebra_to_json(algebra_from_json(json.loads(text))), sort_keys=True) == text

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            algebra_from_json({"name": "x", "ambient_dim": 1, "basis": [[0.5]]})
        with pytest.raises(ValueError):
            algebra_from_json({"name": "x", "ambient_dim": 2, "basis": [[1, 0, 0]]})

    def test_rejects_dependent_basis(self):
        with pytest.raises(ValueError):
            algebra_from_json(
                {"name": "x", "ambient_dim": 2, "basis": [[1, 0, 0, 0], [2, 0, 0, 0]]}
            )
