"""Tests for states and the rank-1 linear-algebra toolkit."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from conftest import dense_deviation_oracle, dense_projector
from hypothesis import given, settings
from hypothesis import strategies as st

from qpp import (
    abl_probability,
    cabello_scenario,
    contradiction_trace,
    forced_values,
    hardy_scenario,
    load,
    maximize_cabello_family,
    maximize_hardy,
    save,
    validate,
)
from qpp.hilbert import (
    RowError,
    StateVector,
    _check_tol,
    certain_values,
    context_deviations,
    inner,
    row_norms,
    unit_states,
)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(v / np.linalg.norm(v))


def dense_certain_value(v, s, tol=1e-9):
    """Oracle: the projector |v><v| as a dense matrix, applied to s."""
    image = dense_projector(v) @ s.amps
    if np.linalg.norm(image) < tol:
        return 0
    if np.linalg.norm(image - s.amps) < tol:
        return 1
    return None


def basis(dim):
    return [StateVector(np.eye(dim)[i]) for i in range(dim)]


def stack(states):
    """One context's member states as the (1, k, dim) stack context_deviations takes."""
    return np.array([[v.amps for v in states]])


class TestStateVector:
    def test_accepts_unit_vectors(self):
        s = StateVector([1.0, 0.0])
        assert s.dim == 2
        np.testing.assert_array_equal(s.amps, np.array([1.0, 0.0], dtype=np.complex128))

    def test_equality_is_exact_and_typed(self):
        s = StateVector([1.0, 0.0])
        assert s == StateVector([1.0, 0.0]) and s != StateVector([0.0, 1.0])
        assert s.__eq__([1.0, 0.0]) is NotImplemented
        assert s != [1.0, 0.0]

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
        (s,) = unit_states(np.array([amps], dtype=np.complex128), 1e-3)
        assert s.dim == 2
        with pytest.raises(TypeError):  # StateVector itself takes no tolerance
            StateVector(amps, 1e-3)

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
        """<a (x) b|c (x) d> = <a|c><b|d> for the np.kron layout the constructions use."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            a, b = random_state(rng, 2), random_state(rng, 3)
            c, d = random_state(rng, 2), random_state(rng, 3)
            lhs = inner(StateVector(np.kron(a.amps, b.amps)), StateVector(np.kron(c.amps, d.amps)))
            assert lhs == pytest.approx(inner(a, c) * inner(b, d))


class TestCertainValue:
    def test_eigenvalue_one(self):
        u = np.array([[1.0, 0.0]], dtype=np.complex128)
        assert certain_values(u, u).tolist() == [[1]]

    def test_eigenvalue_zero(self):
        u = np.array([[1.0, 0.0]], dtype=np.complex128)
        v = np.array([[0.0, 1.0]], dtype=np.complex128)
        assert certain_values(u, v).tolist() == [[0]]

    def test_generic_state_undetermined(self):
        u = np.array([[1.0, 0.0]], dtype=np.complex128)
        w = np.array([[0.6, 0.8]], dtype=np.complex128)
        assert certain_values(u, w).tolist() == [[-1]]

    def test_agrees_with_expectation_value(self):
        """A certain value v implies <s|P|s> = v; -1 implies neither."""
        rng = np.random.default_rng(29)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            u = random_state(rng, dim)
            s = random_state(rng, dim)
            v = int(certain_values(u.amps[None], s.amps[None])[0, 0])
            expect = abs(inner(u, s)) ** 2
            if v >= 0:
                assert expect == pytest.approx(float(v), abs=1e-12)
            else:
                assert 1e-12 < expect < 1.0 - 1e-12


class TestResolutions:
    def test_basis_projectors_resolve_identity(self):
        assert context_deviations(stack(basis(4)))[0] < 1e-15

    def test_missing_member_fails(self):
        assert context_deviations(stack(basis(3)[:2]))[0] == pytest.approx(1.0)

    def test_overlapping_members_fail(self):
        """A non-orthogonal context: a third qubit state on top of a basis."""
        u = StateVector([1.0, 0.0])
        w = StateVector([0.6, 0.8])
        v = StateVector([0.0, 1.0])
        assert context_deviations(stack([u, w, v]))[0] == pytest.approx(1.0)
        # a complete but non-orthogonal pair deviates by its overlap
        assert context_deviations(stack([u, w]))[0] == pytest.approx(abs(inner(u, w)))

    def test_random_orthonormal_bases_resolve(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            dim = int(rng.integers(2, 6))
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, _ = np.linalg.qr(m)
            assert context_deviations(q.T[None])[0] < 1e-9

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
        values = certain_values(v.amps[None], np.array([generic.amps, orthogonal.amps]))[0]
        for value, s in zip(values.tolist(), (generic, orthogonal)):
            assert (None if value < 0 else value) == dense_certain_value(v, s)
        assert values[1] == 0

    @settings(max_examples=200, deadline=None)
    @given(dim=unit_dims, seed=seeds, phi=st.floats(min_value=0.0, max_value=2.0 * np.pi))
    def test_rephased_state_has_value_one(self, dim, seed, phi):
        v = random_state(np.random.default_rng(seed), dim)
        s = StateVector(np.exp(1j * phi) * v.amps)
        assert certain_values(v.amps[None], s.amps[None], tol=1e-9).tolist() == [[1]]
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
        dev = float(context_deviations(stack(states))[0])
        dense, bound = dense_deviation_oracle(stack(states)[0])
        assert abs(dev - dense) <= min(bound, 1e-12)
        # a small spectral deviation already implies a complete,
        # pairwise exclusive context, so no pairwise check is needed
        if dev < 1.0 / dim:
            assert len(states) == dim
            for i, a in enumerate(states):
                for b in states[i + 1:]:
                    assert abs(inner(a, b)) <= dev + 1e-15


# Entries that stress the summation order: exact units and zeros, subnormals,
# and magnitudes near 1e-150 and 1e150 whose squares sit near the float range's ends.
norm_entries = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 5e-324, -2.2250738585072014e-308]),
    st.floats(min_value=-1e-307, max_value=1e-307),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.sampled_from([-150, 150])),
    st.floats(-2.0, 2.0),
)


def unit_states_oracle(block, tol):
    """The first row unit_states must refuse, and its message, found the slow
    way: row by row, finiteness before the norm, and a norm that overflows
    refused at every tolerance.  None when every row passes."""
    for i, row in enumerate(block):
        if not np.isfinite(row).all():
            return i, "amplitudes must be finite"
        with np.errstate(over="ignore"):
            dev = abs(float(np.linalg.norm(row)) - 1.0)
        if not dev <= tol:
            return i, f"norm deviates from 1 by {dev:.3e}, tolerance {tol:.1e}"
    return None


@st.composite
def refusal_blocks(draw):
    """An (n, dim) block of random unit rows, each then kept, rescaled, made
    too large to square (1e200) or given a NaN or +-inf real or imaginary part."""
    dim, n = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(seeds))
    block = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    for i in range(n):
        kind = draw(st.sampled_from(["unit", "scaled", "huge", "nan", "inf", "-inf", "inf+nan"]))
        part = block.real if draw(st.booleans()) else block.imag
        j = draw(st.integers(0, dim - 1))
        if kind == "scaled":
            block[i] *= draw(st.sampled_from([0.0, 0.5, 1 + 1e-13, 1 + 1e-10, 1 + 1e-6, 2.0]))
        elif kind == "huge":
            part[i, j] = 1e200
        elif kind == "inf+nan":
            block[i, j] = complex(np.inf, np.nan)
        elif kind != "unit":
            part[i, j] = float(kind)
    return block


class TestUnitStates:
    @settings(max_examples=300, deadline=None)
    @given(dim=unit_dims, data=st.data())
    def test_row_norms_equal_the_one_row_norm(self, dim, data):
        """Exact equality: the stacked norm is np.linalg.norm row by row, to the bit."""
        n = data.draw(st.integers(1, 6))
        flat = data.draw(st.lists(norm_entries, min_size=2 * dim * n, max_size=2 * dim * n))
        block = np.array(flat).reshape(n, dim, 2).view(np.complex128)[..., 0]
        assert row_norms(block).tolist() == [float(np.linalg.norm(row)) for row in block]

    def test_rows_become_read_only_views(self):
        block = np.eye(3, dtype=np.complex128)
        states = unit_states(block)
        assert [s.amps.tolist() for s in states] == block.tolist()
        assert all(np.shares_memory(s.amps, block) for s in states)
        with pytest.raises(ValueError):
            states[0].amps[0] = 0.5

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "amplitudes must be finite"),
        (np.inf, "amplitudes must be finite"),
        (2.0, "norm deviates from 1 by 1.236e[+]00"),
    ], ids=["nan", "inf", "unnormalized"])
    def test_error_names_the_first_bad_row(self, bad, message):
        block = np.eye(4, dtype=np.complex128)
        block[2, 1] = block[3, 0] = bad
        with pytest.raises(RowError, match=f"^{message}") as info:
            unit_states(block)
        assert info.value.row == 2

    def test_finite_row_with_overflowing_norm(self):
        """Finite entries pass the finite rule; the norm rule then reads inf, silently."""
        block = np.eye(2, dtype=np.complex128)
        block[1, 0] = 1e200
        with pytest.raises(RowError, match="^norm deviates from 1 by inf") as info:
            unit_states(block)
        assert info.value.row == 1

    def test_state_with_overflowing_norm_raises_without_a_warning(self):
        with pytest.raises(ValueError, match="^norm deviates from 1 by inf"):
            StateVector([1e200, 0.0])

    @settings(max_examples=500, deadline=None)
    @given(block=refusal_blocks(), tol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.7, 2.0]))
    def test_refusals_match_the_row_by_row_oracle(self, block, tol):
        """Finiteness is checked only on a row the norm test fails; the
        refused row and message are still the oracle's, and an accepted
        state keeps np.linalg.norm's deviation to the bit."""
        want = unit_states_oracle(block, tol)
        if want is not None:
            with pytest.raises(RowError) as info:
                unit_states(block, tol)
            assert (info.value.row, str(info.value)) == want
            return
        with np.errstate(over="ignore"):
            devs = [abs(float(np.linalg.norm(row)) - 1.0) for row in block]
        assert [state._dev for state in unit_states(block, tol)] == devs

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
    def test_tolerance_outside_the_open_interval_is_refused_first(self, tol):
        """Before any row is read: the dim-1 block and the mismatched
        dimensions would otherwise raise their own errors."""
        message = f"^tol must be positive and finite, got {tol!r}$"
        with pytest.raises(ValueError, match=message):
            unit_states(np.ones((3, 1), dtype=np.complex128), tol)
        with pytest.raises(ValueError, match=message):
            certain_values(np.eye(2, dtype=np.complex128), np.eye(3, dtype=np.complex128), tol)

    def test_dimension_is_named_at_row_zero(self):
        with pytest.raises(RowError, match="^dimension must be at least 2, got 1$") as info:
            unit_states(np.ones((3, 1), dtype=np.complex128))
        assert info.value.row == 0


@st.composite
def off_unit_stacks(draw, max_stacks=9):
    """An (m, k, dim) complex stack, 1 <= m <= max_stacks and 2 <= k <= dim <= 8.

    Each stack is k rows of a random unitary, perturbed by noise of one
    drawn size (0 keeps them orthonormal), and every row is then scaled
    by 1, 1 + 1e-10, 0.5 or 3, so most draws hold rows that are not
    unit-norm.
    """
    dim = draw(unit_dims)
    k = draw(st.integers(2, dim))
    m = draw(st.integers(1, max_stacks))
    rng = np.random.default_rng(draw(seeds))
    raw = rng.standard_normal((m, dim, dim)) + 1j * rng.standard_normal((m, dim, dim))
    block = np.linalg.qr(raw)[0].transpose(0, 2, 1)[:, :k, :]
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
    block = block + noise * (rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape))
    return block * rng.choice([1.0, 1.0 + 1e-10, 0.5, 3.0], size=(m, k, 1))


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLinalgNormBits:
    """The norms hilbert takes without the np.linalg.norm wrapper: row norms
    and residuals are the wrapper's own arithmetic, to the bit (tobytes also
    tells -0.0 from 0.0); context deviations, read from singular values,
    are the dense spectral norm within rounding."""

    @settings(max_examples=300, deadline=None)
    @given(stacks=off_unit_stacks())
    def test_context_deviations_equal_the_spectral_norm(self, stacks):
        """Each stacked entry is its one-context call to the bit, and the
        dense ||sum_i |v_i><v_i| - I||_2 within the oracle's rounding bound."""
        got = context_deviations(stacks)
        for j, stack in enumerate(stacks):
            assert same_bits(context_deviations(stacks[j:j + 1]), got[j:j + 1])
            dense, bound = dense_deviation_oracle(stack)
            assert abs(got[j] - dense) <= bound

    @settings(max_examples=300, deadline=None)
    @given(rows=off_unit_stacks(max_stacks=1), data=st.data())
    def test_certain_value_residual_equals_the_row_norm(self, rows, data):
        """The residual as certain_values forms it, against np.linalg.norm(d,
        axis=2); then, through certain_values itself, every pair whose
        residual r is below |a| reads -1 at tol r and 1 at the next float
        above r, which pins r to the bit."""
        rows = rows[0]
        rng = np.random.default_rng(data.draw(seeds))
        phases = np.exp(2j * np.pi * rng.random((len(rows), 1)))
        eps = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]))
        near = phases * rows + eps * rng.standard_normal(rows.shape)
        states = np.concatenate([near, rng.standard_normal(rows.shape) + 0j])
        a = rows.conj() @ states.T
        d = a[:, :, None] * rows[:, None, :] - states[None, :, :]
        want = np.linalg.norm(d, axis=2)
        got = np.sqrt(np.add.reduce((d.conj() * d).real, axis=2))
        assert np.array_equal(got, want) and same_bits(got, want)
        for i, j in np.ndindex(*a.shape):
            row, state = rows[i:i + 1], states[j:j + 1]
            a1 = row.conj() @ state.T
            r = float(np.linalg.norm(a1[:, :, None] * row[:, None, :] - state[None], axis=2)[0, 0])
            above = float(np.nextafter(r, np.inf))
            if 0.0 < r and abs(a1[0, 0]) >= above:
                assert certain_values(row, state, tol=r).tolist() == [[-1]]
                assert certain_values(row, state, tol=above).tolist() == [[1]]


CABELLO = cabello_scenario()
EYE2 = np.eye(2, dtype=np.complex128)

# Every public entry point that takes a tolerance: the name its messages
# give the tolerance, and a call at tolerance tol.
TOLERANCE_ENTRY_POINTS = {
    "unit_states": ("tol", lambda tol: unit_states(EYE2.copy(), tol)),
    "certain_values": ("tol", lambda tol: certain_values(EYE2, EYE2, tol)),
    "load": ("tol", lambda tol: load(save(CABELLO), tol_check=tol)),
    "validate": ("tol", lambda tol: validate(CABELLO, tol)),
    "forced_values": ("tol", lambda tol: forced_values(CABELLO, tol)),
    "abl_probability": ("tol", lambda tol: abl_probability(CABELLO, "delta+", tol)),
    "contradiction_trace": ("tol", lambda tol: contradiction_trace(CABELLO, tol)),
    "hardy_scenario": ("tol", lambda tol: hardy_scenario(0.9, 0.7, tol)),
    "maximize_hardy": ("refine_tol", lambda tol: maximize_hardy(16, tol)),
    "maximize_cabello_family": ("refine_tol", lambda tol: maximize_cabello_family(16, tol)),
    "maximize_cabello_family.exclusivity_tol":
        ("exclusivity_tol", lambda tol: maximize_cabello_family(16, exclusivity_tol=tol)),
}


class TestOneToleranceRule:
    """hilbert._check_tol is the one rule, and every entry point applies it
    before any work: a bool or a non-number is not read as a tolerance, and
    an infinite one, or a real beyond the float range, is refused like 0."""

    @pytest.mark.parametrize("entry", TOLERANCE_ENTRY_POINTS)
    @pytest.mark.parametrize("tol", [True, "1e-9", None], ids=repr)
    def test_non_number_is_a_type_error(self, entry, tol):
        name, call = TOLERANCE_ENTRY_POINTS[entry]
        message = f"{name} must be a real number, got {tol!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call(tol)

    @pytest.mark.parametrize("entry", TOLERANCE_ENTRY_POINTS)
    def test_infinity_is_a_value_error(self, entry):
        name, call = TOLERANCE_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got inf$"):
            call(math.inf)

    @pytest.mark.parametrize("entry", TOLERANCE_ENTRY_POINTS)
    @pytest.mark.parametrize("tol", [10 ** 400, 10 ** 5000, Fraction(10 ** 400)],
                             ids=["10**400", "10**5000", "Fraction(10**400)"])
    def test_real_beyond_the_float_range_is_a_value_error(self, entry, tol):
        """Judged as the float it would be used as: infinite, and refused by
        name, not a bare OverflowError or a run at an unusable tolerance."""
        name, call = TOLERANCE_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got inf$"):
            call(tol)

    @pytest.mark.parametrize("tol, shown", [
        (1, "1.0e+00"), (np.int64(1), "1.0e+00"), (np.float64(1e-9), "1.0e-09"),
        (np.float32(1e-3), "1.0e-03"), (Fraction(1, 10 ** 9), "1.0e-09"),
    ], ids=repr)
    def test_any_real_number_in_range_is_accepted(self, tol, shown):
        """Not only a float: the fast path for floats refuses nothing, and a
        row that fails the norm test names any real tolerance."""
        assert _check_tol(tol) is None
        message = f"norm deviates from 1 by 4.000e+00, tolerance {shown}"
        with pytest.raises(RowError, match=f"^{re.escape(message)}$"):
            unit_states(np.array([[3.0, 4.0]], dtype=np.complex128), tol)
