"""Tests for states and the rank-1 linear-algebra toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpp.hilbert import (
    StateVector,
    certain_value,
    context_deviation,
    inner,
    tensor,
)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


def dense_projector(v):
    return np.outer(v.amps, v.amps.conj())


def dense_certain_value(v, s, tol=1e-9):
    """Oracle: the projector |v><v| as a dense matrix, applied to s."""
    image = dense_projector(v) @ s.amps
    if np.linalg.norm(image) < tol:
        return 0
    if np.linalg.norm(image - s.amps) < tol:
        return 1
    return None


def dense_context_deviation(states):
    """Oracle: spectral norm of the summed dense projectors minus I."""
    dim = states[0].dim
    return float(np.linalg.norm(sum(dense_projector(v) for v in states) - np.eye(dim), 2))


def basis(dim):
    return [StateVector(np.eye(dim)[i]) for i in range(dim)]


class TestStateVector:
    def test_accepts_unit_vectors(self):
        s = StateVector([1.0, 0.0])
        assert s.dim == 2
        np.testing.assert_array_equal(s.amps, np.array([1.0, 0.0], dtype=np.complex128))

    def test_rejects_short_vectors(self):
        with pytest.raises(ValueError):
            StateVector([1.0])

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            StateVector([[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector([np.nan, 0.0])
        with pytest.raises(ValueError):
            StateVector([np.inf, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector([1.0, 1.0])

    def test_norm_tolerance_is_configurable(self):
        amps = [1.0 + 5e-7, 0.0]
        with pytest.raises(ValueError):
            StateVector(amps)
        s = StateVector(amps, tol_norm=1e-3)
        assert s.dim == 2

    def test_amps_are_read_only(self):
        s = StateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amps[0] = 0.5

    def test_equality_is_exact(self):
        a = StateVector([1.0, 0.0])
        b = StateVector([1.0, 0.0])
        c = StateVector([0.0, 1.0])
        assert a == b
        assert a != c


class TestProducts:
    def test_tensor_orders_first_factor_slowest(self):
        e0 = StateVector([1.0, 0.0])
        e1 = StateVector([0.0, 1.0])
        t = tensor(e0, e1)
        np.testing.assert_array_equal(t.amps, [0.0, 1.0, 0.0, 0.0])
        t = tensor(e1, e0)
        np.testing.assert_array_equal(t.amps, [0.0, 0.0, 1.0, 0.0])

    def test_inner_conjugates_first_argument(self):
        u = StateVector([1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)])
        v = StateVector([1.0, 0.0])
        assert inner(u, v) == pytest.approx(1.0 / np.sqrt(2.0))
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_state(rng, 4), random_state(rng, 4)
            assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))

    def test_inner_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            inner(StateVector([1.0, 0.0]), StateVector([1.0, 0.0, 0.0]))

    def test_tensor_inner_factorizes(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = random_state(rng, 2), random_state(rng, 3)
            c, d = random_state(rng, 2), random_state(rng, 3)
            lhs = inner(tensor(a, b), tensor(c, d))
            assert lhs == pytest.approx(inner(a, c) * inner(b, d))


class TestCertainValue:
    def test_eigenvalue_one(self):
        u = StateVector([1.0, 0.0])
        assert certain_value(u, u) == 1

    def test_eigenvalue_zero(self):
        u = StateVector([1.0, 0.0])
        v = StateVector([0.0, 1.0])
        assert certain_value(u, v) == 0

    def test_generic_state_undetermined(self):
        u = StateVector([1.0, 0.0])
        w = StateVector([0.6, 0.8])
        assert certain_value(u, w) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            certain_value(StateVector([1.0, 0.0]), StateVector([1.0, 0.0, 0.0]))

    def test_agrees_with_expectation_value(self):
        """A certain value v implies <s|P|s> = v; None implies neither."""
        rng = np.random.default_rng(29)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            u = random_state(rng, dim)
            s = random_state(rng, dim)
            v = certain_value(u, s)
            expect = abs(inner(u, s)) ** 2
            if v is not None:
                assert expect == pytest.approx(float(v), abs=1e-12)
            else:
                assert 1e-12 < expect < 1.0 - 1e-12


class TestResolutions:
    def test_basis_projectors_resolve_identity(self):
        assert context_deviation(basis(4)) < 1e-15

    def test_missing_member_fails(self):
        assert context_deviation(basis(3)[:2]) == pytest.approx(1.0)

    def test_overlapping_members_fail(self):
        """A non-orthogonal context: a third qubit state on top of a basis."""
        u = StateVector([1.0, 0.0])
        w = StateVector([0.6, 0.8])
        v = StateVector([0.0, 1.0])
        assert context_deviation([u, w, v]) == pytest.approx(1.0)
        # a complete but non-orthogonal pair deviates by its overlap
        assert context_deviation([u, w]) == pytest.approx(abs(inner(u, w)))

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            context_deviation([])
        with pytest.raises(ValueError, match="dimension mismatch"):
            context_deviation([StateVector([1.0, 0.0]), StateVector([0.0, 0.0, 1.0])])

    def test_random_orthonormal_bases_resolve(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, _ = np.linalg.qr(m)
            assert context_deviation([StateVector(q[:, i]) for i in range(dim)]) < 1e-9

    def test_exclusivity(self):
        """Pair exclusivity |<a|b>| is the spectral norm of the product PQ."""
        u = StateVector([1.0, 0.0])
        v = StateVector([0.0, 1.0])
        w = StateVector([0.6, 0.8])
        assert abs(inner(u, v)) == 0.0
        pq = dense_projector(u) @ dense_projector(w)
        assert abs(inner(u, w)) == pytest.approx(np.linalg.norm(pq, 2), abs=1e-15)
        assert abs(inner(u, w)) == pytest.approx(0.6)


unit_dims = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDenseOracle:
    """The vector forms against the dense |v><v| matrices they replace."""

    @settings(max_examples=200, deadline=None)
    @given(dim=unit_dims, seed=seeds)
    def test_certain_value_matches_dense_projector(self, dim, seed):
        rng = np.random.default_rng(seed)
        v = random_state(rng, dim)
        generic = random_state(rng, dim)
        # the component of a random state orthogonal to v
        raw = generic.amps - inner(v, generic) * v.amps
        orthogonal = StateVector(raw / np.linalg.norm(raw))
        for s in (generic, orthogonal):
            assert certain_value(v, s) == dense_certain_value(v, s)
        assert certain_value(v, orthogonal) == 0

    @settings(max_examples=200, deadline=None)
    @given(dim=unit_dims, seed=seeds, phi=st.floats(min_value=0.0, max_value=2.0 * np.pi))
    def test_rephased_state_has_value_one(self, dim, seed, phi):
        v = random_state(np.random.default_rng(seed), dim)
        s = StateVector(np.exp(1j * phi) * v.amps)
        assert certain_value(v, s, tol=1e-9) == 1
        assert dense_certain_value(v, s) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        dim=unit_dims,
        seed=seeds,
        extra=st.integers(min_value=-2, max_value=1),
        noise=st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
    )
    def test_context_deviation_matches_dense_sum(self, dim, seed, extra, noise):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(m)
        states = [StateVector(q[:, i]) for i in range(dim)]
        states = states[: max(dim + extra, 1)] + [random_state(rng, dim) for _ in range(extra)]
        states = [
            StateVector(x / np.linalg.norm(x))
            for x in (s.amps + noise * rng.standard_normal(dim) for s in states)
        ]
        dev = context_deviation(states)
        assert dev == pytest.approx(dense_context_deviation(states), abs=1e-12)
        # a small spectral deviation already implies a complete,
        # pairwise exclusive context, so no pairwise check is needed
        if dev < 1.0 / dim:
            assert len(states) == dim
            for i, a in enumerate(states):
                for b in states[i + 1:]:
                    assert abs(inner(a, b)) <= dev + 1e-15
