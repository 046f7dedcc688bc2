"""Tests for forced values and the ABL probability."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpp import (
    ABLUndefinedError,
    Context,
    ForcedValue,
    LabeledProjector,
    PREDICTION,
    RETRODICTION,
    PrePostScenario,
    SelectionInconsistencyError,
    StateVector,
    abl_probability,
    cabello_scenario,
    certain_values,
    forced_values,
    hardy_scenario,
    inner,
    selection_probability,
    single_qubit_scenario,
)
from qpp.hilbert import row_norms, unit_states


class TestSelectionProbability:
    def test_cabello_value(self):
        assert selection_probability(cabello_scenario()) == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_orthogonal_selection_vanishes(self):
        s = single_qubit_scenario(1, 2)
        flipped = PrePostScenario(
            dim=2, pre=s.pre,
            post=StateVector([-np.conj(s.pre.amps[1]), np.conj(s.pre.amps[0])]),
            projectors=s.projectors, contexts=s.contexts,
        )
        assert selection_probability(flipped) < 1e-25


class TestForcedValues:
    def test_cabello_five_zeros(self):
        forced = forced_values(cabello_scenario())
        assert [(f.label, f.bit, f.justification) for f in forced] == [
            ("alpha", 0, PREDICTION),
            ("beta+", 0, PREDICTION),
            ("beta-", 0, PREDICTION),
            ("gamma+", 0, RETRODICTION),
            ("gamma-", 0, RETRODICTION),
        ]

    def test_hardy_five_zeros(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            ta, tb = rng.uniform(0.1, math.pi / 2.0 - 0.1, 2)
            forced = forced_values(hardy_scenario(ta, tb))
            assert [(f.label, f.bit) for f in forced] == [
                ("alpha", 0), ("beta+", 0), ("beta-", 0), ("gamma+", 0), ("gamma-", 0),
            ]

    def test_justifications_reflect_eigenvector_relations(self):
        """Prediction entries hold against pre, retrodiction against post."""
        s = cabello_scenario()
        for f in forced_values(s):
            v = s.projectors[s.rows[f.label]].state
            if f.justification == PREDICTION:
                assert abs(inner(v, s.pre)) < 1e-12
            else:
                assert abs(inner(v, s.post)) < 1e-12

    def test_prediction_takes_precedence(self):
        """A projector forced by both selections reports prediction."""
        e0, e1 = StateVector([1.0, 0.0]), StateVector([0.0, 1.0])
        s = PrePostScenario(
            dim=2, pre=e0, post=StateVector([0.8, 0.6]),
            projectors=(LabeledProjector("up", e0), LabeledProjector("down", e1)),
            contexts=(Context(("up", "down")),),
        )
        forced = {f.label: f for f in forced_values(s)}
        assert forced["up"].bit == 1 and forced["up"].justification == PREDICTION
        assert forced["down"].bit == 0 and forced["down"].justification == PREDICTION

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, math.inf])
    def test_bad_tolerance_is_refused(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            forced_values(cabello_scenario(), tol)

    def test_memory_is_bounded(self):
        """2000 random projectors at dim 64: the (n, 2, dim) complex residual,
        about 64 n dim bytes in all (8 MiB), stays under a 16 MiB peak."""
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((2002, 64)) + 1j * rng.standard_normal((2002, 64))
        pre, post, *states = unit_states(raw / row_norms(raw)[:, None])
        s = PrePostScenario(
            dim=64, pre=pre, post=post,
            projectors=tuple(LabeledProjector(f"p{i}", v) for i, v in enumerate(states)), contexts=(),
        )
        tracemalloc.start()
        try:
            values = forced_values(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values == ()
        assert peak < 16 * 2**20

    def test_inconsistent_selections_raise(self):
        e0, e1 = StateVector([1.0, 0.0]), StateVector([0.0, 1.0])
        eps = 1e-5
        post = StateVector([eps, math.sqrt(1.0 - eps * eps)])
        s = PrePostScenario(
            dim=2, pre=e0, post=post,
            projectors=(LabeledProjector("up", e0), LabeledProjector("down", e1)),
            contexts=(Context(("up", "down")),),
        )
        # at a loose tolerance retrodiction reads post as the down state,
        # contradicting the prediction down=0; labels are scanned sorted
        with pytest.raises(SelectionInconsistencyError, match="down"):
            forced_values(s, tol=1e-4)
        forced = {f.label: f.bit for f in forced_values(s, tol=1e-9)}
        assert forced == {"up": 1, "down": 0}


def forced_oracle(s, tol=1e-9):
    """forced_values one projector at a time, through one-row certain_values calls."""
    selections = np.array([s.pre.amps, s.post.amps])
    out = []
    for p in sorted(s.projectors, key=lambda lp: lp.label):
        vp, vr = (None if v < 0 else v
                  for v in certain_values(p.state.amps[None], selections, tol)[0].tolist())
        if vp is not None and vr is not None and vp != vr:
            raise SelectionInconsistencyError(
                f"projector {p.label!r}: prediction gives {vp} but retrodiction gives {vr}"
            )
        if vp is not None:
            out.append(ForcedValue(p.label, vp, PREDICTION))
        elif vr is not None:
            out.append(ForcedValue(p.label, vr, RETRODICTION))
    return tuple(out)


@st.composite
def selection_scenarios(draw):
    """dim 2-4 scenarios whose projectors are rephased copies of pre or
    post, states orthogonal to one or both of them, or generic states.
    post is generic, orthogonal to pre or a rephased pre, so predictions,
    retrodictions, values forced by both (where prediction takes
    precedence) and inconsistencies all occur."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def generic():
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    def rephased(u):
        return np.exp(1j * rng.uniform(0, 2 * np.pi)) * u

    def orthogonal_to(*us):
        basis = []
        for u in us:
            for b in basis:
                u = u - np.vdot(b, u) * b
            if np.linalg.norm(u) > 1e-6:
                basis.append(u / np.linalg.norm(u))
        v = generic()
        for b in basis:
            v = v - np.vdot(b, v) * b
        return v / np.linalg.norm(v)

    pre = generic()
    post = draw(st.sampled_from([generic, lambda: orthogonal_to(pre), lambda: rephased(pre)]))()
    kinds = {
        "pre": lambda: pre, "post": lambda: post, "not-pre": lambda: orthogonal_to(pre),
        "not-post": lambda: orthogonal_to(post), "generic": generic,
    }
    if dim > 2 or np.isclose(abs(np.vdot(pre, post)), 1.0):
        kinds["neither"] = lambda: orthogonal_to(pre, post)
    chosen = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=10))
    labels = draw(st.lists(st.text("abcé", min_size=1, max_size=3), min_size=len(chosen),
                           max_size=len(chosen), unique=True))
    projectors = tuple(
        LabeledProjector(lab, StateVector(rephased(kinds[k]()))) for lab, k in zip(labels, chosen)
    )
    return PrePostScenario(dim=dim, pre=StateVector(pre), post=StateVector(post),
                           projectors=projectors, contexts=())


class TestForcedValuesOracle:
    @settings(max_examples=300, deadline=None)
    @given(s=selection_scenarios())
    def test_matrix_form_matches_per_projector_certain_value(self, s):
        try:
            expected = forced_oracle(s)
        except SelectionInconsistencyError as exc:
            with pytest.raises(SelectionInconsistencyError) as info:
                forced_values(s)
            assert str(info.value) == str(exc)
        else:
            assert forced_values(s) == expected


def abl_oracle(s, label, tol=1e-9):
    """abl_probability through the projector's StateVector and inner; None when undefined."""
    v = s.projectors[s.rows[label]].state
    amp1 = inner(s.post, v) * inner(v, s.pre)
    n1, n0 = abs(amp1) ** 2, abs(inner(s.post, s.pre) - amp1) ** 2
    return None if n1 + n0 < tol else n1 / (n1 + n0)


class TestABLProbability:
    @settings(max_examples=200, deadline=None)
    @given(s=selection_scenarios())
    def test_rows_give_the_state_vector_value(self, s):
        """Exact equality: reading the row of s.states changes no bit."""
        for p in s.projectors:
            expected = abl_oracle(s, p.label)
            if expected is None:
                with pytest.raises(ABLUndefinedError):
                    abl_probability(s, p.label)
            else:
                assert abl_probability(s, p.label) == expected

    def test_cabello_deltas_are_certain(self):
        s = cabello_scenario()
        assert abl_probability(s, "delta+") == pytest.approx(1.0, abs=1e-15)
        assert abl_probability(s, "delta-") == pytest.approx(1.0, abs=1e-15)

    def test_cabello_forced_zeros_have_zero_probability(self):
        s = cabello_scenario()
        for lab in ("alpha", "beta+", "beta-", "gamma+", "gamma-"):
            assert abl_probability(s, lab) == pytest.approx(0.0, abs=1e-15)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown projector label"):
            abl_probability(cabello_scenario(), "epsilon")

    def test_forced_values_agree_with_abl(self):
        """Whenever a value is forced, the ABL probability equals it."""
        rng = np.random.default_rng(51)
        scenarios = [cabello_scenario()]
        scenarios += [
            hardy_scenario(*rng.uniform(0.1, math.pi / 2.0 - 0.1, 2)) for _ in range(20)
        ]
        for s in scenarios:
            for f in forced_values(s):
                assert abl_probability(s, f.label) == pytest.approx(float(f.bit), abs=1e-9)

    def test_probabilities_lie_in_unit_interval(self):
        rng = np.random.default_rng(53)
        for seed in range(20):
            s = single_qubit_scenario(3, seed)
            for p in s.projectors:
                val = abl_probability(s, p.label)
                assert 0.0 <= val <= 1.0

    def test_undefined_ratio_raises(self):
        """Both branch weights below tolerance leave the ratio undefined."""
        eps = 1e-8
        e0 = StateVector([1.0, 0.0])
        post = StateVector([eps, math.sqrt(1.0 - eps * eps)])
        s = PrePostScenario(
            dim=2, pre=e0, post=post,
            projectors=(
                LabeledProjector("up", e0),
                LabeledProjector("down", StateVector([0.0, 1.0])),
            ),
            contexts=(Context(("up", "down")),),
        )
        # N1 = |<post|up><up|pre>|^2 = eps^2, N0 = 0: total 1e-16 under 1e-9
        with pytest.raises(ABLUndefinedError, match="up"):
            abl_probability(s, "up")
        # An exactly orthogonal selection makes both branches 0; a tolerance
        # that is not positive and finite is refused before either is weighed.
        orthogonal = dataclasses.replace(s, post=StateVector([0.0, 1.0]))
        with pytest.raises(ABLUndefinedError, match=r"^projector 'up': .*= 0\.000e\+00\)$"):
            abl_probability(orthogonal, "up")
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^tol must be positive and finite"):
                abl_probability(orthogonal, "up", tol)

    def test_complementary_projectors_sum_to_one(self):
        rng = np.random.default_rng(57)
        for seed in range(10):
            s = single_qubit_scenario(2, seed)
            for ctx in s.contexts:
                a, b = ctx.members
                total = abl_probability(s, a) + abl_probability(s, b)
                assert total == pytest.approx(1.0, abs=1e-9)
