"""Tests for the built-in scenario constructions."""

import itertools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import context_stack, family_delta_overlap, single_qubit_oracle

from qpp import (
    CONTEXT_MINUS,
    CONTEXT_PLUS,
    DegenerateConfigurationError,
    cabello_family,
    cabello_scenario,
    context_deviations,
    hardy_probability,
    hardy_scenario,
    save,
    selection_probability,
    single_qubit_scenario,
    validate,
)

open_quarter_turn = st.floats(
    min_value=0.0, max_value=math.pi / 2.0, exclude_min=True, exclude_max=True
)


def dense_projector(v):
    return np.outer(v.amps, v.amps.conj())


class TestCabelloScenario:
    def test_exact_amplitudes(self):
        s = cabello_scenario()
        np.testing.assert_array_equal(s.pre.amps, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            s.post.amps, [1.0 / 3.0, 0.0, -math.sqrt(8.0) / 3.0, 0.0], atol=0
        )
        np.testing.assert_array_equal(s.states[s.rows["alpha"]], [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            s.states[s.rows["beta+"]], [0.0, 0.5, math.sqrt(3.0) / 2.0, 0.0], atol=0
        )
        np.testing.assert_allclose(
            s.states[s.rows["delta+"]],
            [1.0 / math.sqrt(3.0), 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(6.0), 0.0],
            atol=0,
        )

    def test_structure(self):
        s = cabello_scenario()
        assert s.dim == 4
        assert [p.label for p in s.projectors] == [
            "alpha", "beta+", "beta-", "gamma+", "gamma-", "delta+", "delta-",
        ]
        assert s.contexts[0].members == CONTEXT_PLUS
        assert s.contexts[1].members == CONTEXT_MINUS
        assert s.exclusive_pairs == (("delta+", "delta-"),)
        assert s.metadata["name"] == "cabello"

    def test_contexts_resolve_identity(self):
        assert (context_deviations(context_stack(cabello_scenario())) < 1e-12).all()

    def test_delta_pair_exclusive(self):
        s = cabello_scenario()
        assert abs(np.vdot(s.states[s.rows["delta+"]], s.states[s.rows["delta-"]])) < 1e-12

    def test_selection_probability_is_one_ninth(self):
        assert selection_probability(cabello_scenario()) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_validates(self):
        assert validate(cabello_scenario()).passed


class TestCabelloFamily:
    def test_parameters_must_be_interior(self):
        for c, p in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)):
            with pytest.raises(ValueError):
                cabello_family(c, p)

    def test_subnormal_parameters_are_refused(self):
        """Below the smallest normal float hypot(c, s p) loses gamma+/-'s
        norm, so such a c or p is refused by name, not by a norm check."""
        values = (5e-324, 1e-320, 1e-315, 1e-310, sys.float_info.min, 1e-300, 0.5, 1.0 - 2.0**-53)
        for c, p in itertools.product(values, repeat=2):
            low = [name for name, v in (("c", c), ("p", p)) if v < sys.float_info.min]
            if not low:
                assert cabello_family(c, p).c == c
                continue
            with pytest.raises(ValueError) as info:
                cabello_family(c, p)
            bad = c if low[0] == "c" else p
            assert str(info.value) == f"{low[0]} must lie in [2.2250738585072014e-308, 1), got {bad!r}"

    def test_reproduces_fixed_scenario_at_third_and_half(self):
        cand = cabello_family(1.0 / 3.0, 0.5)
        assert cand.delta_overlap < 1e-12
        ref, fam = cabello_scenario(), cand.scenario
        for p in ref.projectors:
            other = fam.projectors[fam.rows[p.label]].state
            gap = np.max(np.abs(dense_projector(p.state) - dense_projector(other)))
            assert gap < 1e-13, p.label

    def test_selection_probability_is_c_squared(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            c, p = rng.uniform(0.05, 0.95, 2)
            cand = cabello_family(c, p)
            assert selection_probability(cand.scenario) == pytest.approx(c * c, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True),
        p=st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True),
    )
    @example(c=0.5, p=1e-300)
    @example(c=sys.float_info.min, p=sys.float_info.min)
    def test_contexts_always_resolve(self, c, p):
        """Context completeness and gamma+/- _|_ post hold for all parameters
        down to the smallest normal floats, where the delta overlap also
        matches the oracle; only the delta pair's exclusivity is parameter
        dependent."""
        cand = cabello_family(c, p)
        s = cand.scenario
        assert (context_deviations(context_stack(s)) < 1e-12).all()
        for lab in ("gamma+", "gamma-"):
            assert abs(np.vdot(s.states[s.rows[lab]], s.post.amps)) < 1e-12
        assert abs(cand.delta_overlap - family_delta_overlap(c, p)) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        c=st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True),
        p=st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True),
    )
    @example(c=1.0 / 3.0, p=0.5)
    @example(c=sys.float_info.min, p=sys.float_info.min)
    def test_rows_equal_docstring_closed_forms(self, c, p):
        """Bit for bit: s = sqrt(1 - c^2), q = sqrt(1 - p^2), g = hypot(c, s p)."""
        s_, q = math.sqrt(1.0 - c * c), math.sqrt(1.0 - p * p)
        g = math.hypot(c, s_ * p)
        expected = {
            "alpha": [0.0, 0.0, 0.0, 1.0],
            "beta+": [0.0, p, q, 0.0],
            "beta-": [0.0, p, -q, 0.0],
            "gamma+": [s_ * p / g, -c * q / g, c * p / g, 0.0],
            "gamma-": [s_ * p / g, c * q / g, c * p / g, 0.0],
            "delta+": [c / g, s_ * p * q / g, -s_ * p * p / g, 0.0],
            "delta-": [c / g, -s_ * p * q / g, -s_ * p * p / g, 0.0],
        }
        s = cabello_family(c, p).scenario
        assert s.pre.amps.tobytes() == np.array([1.0, 0.0, 0.0, 0.0], complex).tobytes()
        assert s.post.amps.tobytes() == np.array([c, 0.0, -s_, 0.0], complex).tobytes()
        for label, amps in expected.items():
            assert s.states[s.rows[label]].tobytes() == np.array(amps, complex).tobytes(), label

    def test_fast_overlap_matches_construction(self):
        rng = np.random.default_rng(27)
        worst = 0.0
        for _ in range(200):
            c, p = rng.uniform(0.05, 0.95, 2)
            direct = cabello_family(c, p).delta_overlap
            fast = family_delta_overlap(c, p)
            worst = max(worst, abs(direct - fast))
        assert worst < 1e-12

    def test_fast_overlap_broadcasts(self):
        cs = np.linspace(0.1, 0.9, 5)[:, None]
        ps = np.linspace(0.1, 0.9, 7)[None, :]
        out = family_delta_overlap(cs, ps)
        assert out.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                scalar = family_delta_overlap(float(cs[i, 0]), float(ps[0, j]))
                assert isinstance(scalar, float)
                assert scalar == pytest.approx(out[i, j], abs=1e-15)


class TestHardyScenario:
    def test_degenerate_angles_rejected(self):
        for ta, tb in ((0.0, 0.5), (math.pi / 2.0, 0.5), (0.5, 0.0), (-0.2, 0.5)):
            for build in (hardy_scenario, hardy_probability):
                with pytest.raises(DegenerateConfigurationError, match="degenerate configuration"):
                    build(ta, tb)

    def test_bad_tolerance_is_refused(self):
        """Near-degenerate angles: a valid tolerance refuses the overlap of
        1e-18, and an invalid one is refused rather than skipping that check."""
        with pytest.raises(DegenerateConfigurationError, match="overlap vanishes"):
            hardy_scenario(1e-9, 1e-9, 1e-9)
        for tol in (float("nan"), 0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                hardy_scenario(1e-9, 1e-9, tol)

    def test_structure_and_validity(self):
        s = hardy_scenario(0.7, 1.1)
        assert s.dim == 4
        assert s.metadata["name"] == "hardy"
        assert validate(s).passed

    def test_probability_closed_form(self):
        """Independent closed form for the selection probability."""
        rng = np.random.default_rng(33)
        for _ in range(200):
            ta, tb = rng.uniform(0.05, math.pi / 2.0 - 0.05, 2)
            ca, sa, cb, sb = math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb)
            expected = (ca * sa * cb * sb) ** 2 / (
                sa * sa * cb * cb + ca * ca * sb * sb + ca * ca * cb * cb
            )
            got = selection_probability(hardy_scenario(ta, tb))
            assert got == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        ta=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True, exclude_max=True),
        tb=st.floats(min_value=0.0, max_value=math.pi / 2.0, exclude_min=True, exclude_max=True),
    )
    def test_closed_form_matches_scenario(self, ta, tb):
        """hardy_probability agrees with the built scenario over the open box."""
        fast = hardy_probability(ta, tb)
        try:
            slow = selection_probability(hardy_scenario(ta, tb))
        except DegenerateConfigurationError:
            # the scenario refuses a postselection overlap below 1e-9
            slow = 0.0
        assert abs(fast - slow) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(ta=open_quarter_turn, tb=open_quarter_turn)
    def test_rows_are_kronecker_products(self, ta, tb):
        """Every product row, and post, is np.kron of its single-qubit factors, to the bit."""
        try:
            s = hardy_scenario(ta, tb)
        except DegenerateConfigurationError:
            return
        ca, sa, cb, sb = math.cos(ta), math.sin(ta), math.cos(tb), math.sin(tb)
        e0, e1 = np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)
        a, a_perp = np.array([ca, sa], complex), np.array([sa, -ca], complex)
        b, b_perp = np.array([cb, sb], complex), np.array([sb, -cb], complex)
        factors = {
            "alpha": (e0, e0), "beta+": (a, e1), "beta-": (e1, b), "gamma+": (a_perp, e1),
            "gamma-": (e1, b_perp), "delta+": (e1, e0), "delta-": (e0, e1),
        }
        assert s.post.amps.tobytes() == np.kron(a, b).tobytes()
        for label, (left, right) in factors.items():
            assert s.states[s.rows[label]].tobytes() == np.kron(left, right).tobytes(), label

    def test_probability_stays_below_one_ninth(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            ta, tb = rng.uniform(0.05, math.pi / 2.0 - 0.05, 2)
            assert selection_probability(hardy_scenario(ta, tb)) < 1.0 / 9.0


class TestSingleQubitScenario:
    def test_deterministic_for_seed(self):
        assert save(single_qubit_scenario(3, 7)) == save(single_qubit_scenario(3, 7))
        assert save(single_qubit_scenario(3, 7)) != save(single_qubit_scenario(3, 8))

    def test_labels_and_contexts(self):
        s = single_qubit_scenario(4, 1)
        assert len(s.projectors) == 8
        assert s.contexts[2].members == ("q2", "q2_perp")
        assert s.exclusive_pairs == ()

    def test_validates(self):
        for seed in range(5):
            assert validate(single_qubit_scenario(seed % 3 + 1, seed)).passed

    @pytest.mark.parametrize("n_contexts", [1, 2, 5, 11])
    def test_bytes_match_per_state_draws(self, n_contexts):
        """One batched draw and one block check give the per-state oracle's bytes."""
        for seed in range(10):
            assert save(single_qubit_scenario(n_contexts, seed)) == save(
                single_qubit_oracle(n_contexts, seed)
            )

    def test_rejects_nonpositive_contexts(self):
        with pytest.raises(ValueError):
            single_qubit_scenario(0, 1)

    @pytest.mark.parametrize("n_contexts, seed, error, message", [
        (2.5, 1, TypeError, "n_contexts must be an integer, got 2.5"),
        (True, 1, TypeError, "n_contexts must be an integer, got True"),
        ("2", 1, TypeError, "n_contexts must be an integer, got '2'"),
        (2, 1.5, TypeError, "seed must be an integer, got 1.5"),
        (2, False, TypeError, "seed must be an integer, got False"),
        (2, None, TypeError, "seed must be an integer, got None"),
        (2, -1, ValueError, "seed must be at least 0, got -1"),
    ])
    def test_refuses_bad_arguments_by_name(self, n_contexts, seed, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            single_qubit_scenario(n_contexts, seed)

    def test_numpy_integers_are_accepted(self):
        assert save(single_qubit_scenario(np.int64(3), np.int64(7))) == save(
            single_qubit_scenario(3, 7)
        )
