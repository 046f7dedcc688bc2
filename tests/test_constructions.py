"""Tests for the built-in scenario constructions."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import family_delta_overlap

from qpp import (
    CONTEXT_MINUS,
    CONTEXT_PLUS,
    DegenerateConfigurationError,
    cabello_family,
    cabello_scenario,
    context_deviation,
    hardy_probability,
    hardy_scenario,
    inner,
    selection_probability,
    single_qubit_scenario,
    validate,
)


def context_states(s, members):
    pm = s.projector_map()
    return [pm[m].state for m in members]


def dense_projector(v):
    return np.outer(v.amps, v.amps.conj())


class TestCabelloScenario:
    def test_exact_amplitudes(self):
        s = cabello_scenario()
        np.testing.assert_array_equal(s.pre.amps, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(
            s.post.amps, [1.0 / 3.0, 0.0, -math.sqrt(8.0) / 3.0, 0.0], atol=0
        )
        pm = s.projector_map()
        np.testing.assert_array_equal(pm["alpha"].state.amps, [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            pm["beta+"].state.amps, [0.0, 0.5, math.sqrt(3.0) / 2.0, 0.0], atol=0
        )
        np.testing.assert_allclose(
            pm["delta+"].state.amps,
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
        s = cabello_scenario()
        for ctx in s.contexts:
            assert context_deviation(context_states(s, ctx.members)) < 1e-12

    def test_delta_pair_exclusive(self):
        s = cabello_scenario()
        pm = s.projector_map()
        assert abs(inner(pm["delta+"].state, pm["delta-"].state)) < 1e-12

    def test_selection_probability_is_one_ninth(self):
        assert selection_probability(cabello_scenario()) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_validates(self):
        assert validate(cabello_scenario()).passed


class TestCabelloFamily:
    def test_parameters_must_be_interior(self):
        for c, p in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)):
            with pytest.raises(ValueError):
                cabello_family(c, p)

    def test_reproduces_fixed_scenario_at_third_and_half(self):
        cand = cabello_family(1.0 / 3.0, 0.5)
        assert cand.delta_overlap < 1e-12
        ref = cabello_scenario().projector_map()
        fam = cand.scenario.projector_map()
        for lab in ref:
            gap = np.max(np.abs(dense_projector(ref[lab].state) - dense_projector(fam[lab].state)))
            assert gap < 1e-13, lab

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
        for ctx in s.contexts:
            assert context_deviation(context_states(s, ctx.members)) < 1e-12
        pm = s.projector_map()
        for lab in ("gamma+", "gamma-"):
            assert abs(inner(pm[lab].state, s.post)) < 1e-12
        assert abs(cand.delta_overlap - family_delta_overlap(c, p)) < 1e-12

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

    def test_probability_stays_below_one_ninth(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            ta, tb = rng.uniform(0.05, math.pi / 2.0 - 0.05, 2)
            assert selection_probability(hardy_scenario(ta, tb)) < 1.0 / 9.0


class TestSingleQubitScenario:
    def test_deterministic_for_seed(self):
        from qpp import save

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

    def test_rejects_nonpositive_contexts(self):
        with pytest.raises(ValueError):
            single_qubit_scenario(0, 1)
