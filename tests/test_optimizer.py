"""Tests for the grid-refinement searches and the family feasibility root."""

import itertools
import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import family_delta_overlap, grid_refine_oracle

import qpp
from qpp import (
    ConvergenceError,
    cabello_family,
    feasibility_root,
    hardy_probability,
    maximize_cabello_family,
    maximize_hardy,
    selection_probability,
)
from qpp.optimizer import (
    DEFAULT_EXCLUSIVITY_TOL, MAX_GRID, MAX_REFINE_ITERATIONS, _axis9, _delta_overlap, _family_max,
    _hardy_lattice,
)

HARDY_MAX = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5
HALF_PI = math.pi / 2.0

open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
# Log-uniform over [1e-300, 10]; an infinite tolerance is refused.
exclusivity_tols = st.floats(-300.0, 1.0).map(lambda e: 10.0 ** e)
P_LATTICE = np.linspace(0.0, 1.0, 10_002)[1:-1]


def hardy_oracle(grid, refine_tol):
    """maximize_hardy's (parameters, objective, evaluations), one scalar call per point."""
    point, value, evals = grid_refine_oracle(
        hardy_probability, (0.0, 0.0), (HALF_PI, HALF_PI), grid, refine_tol
    )
    return (("theta_a", point[0]), ("theta_b", point[1])), value, evals


def family_oracle(grid, refine_tol, exclusivity_tol=DEFAULT_EXCLUSIVITY_TOL):
    """maximize_cabello_family's (parameters, objective, evaluations), likewise:
    every point's overlap computed, none decided by dominance."""
    def objective(c):
        return c * c if feasibility_root(c)[1] < exclusivity_tol else 0.0

    (c,), _, evals = grid_refine_oracle(objective, (0.0,), (1.0,), grid, refine_tol)
    return (("c", c), ("p", feasibility_root(c)[0])), c ** 2, evals


def assert_matches_oracle(search, oracle, *args):
    result = search(*args)
    got = (result.parameters, result.objective, result.evaluations)
    assert repr(got) == repr(oracle(*args))


class TestLatticeKernels:
    """The vectorized pieces of the search equal their scalar definitions bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(box=st.sampled_from([(0.0, 1.0), (0.0, HALF_PI)]),
           start=st.one_of(st.just(None), st.floats(0.0, 1.0)),
           log_width=st.floats(-19.0, math.log10(2.0)),
           clamp_end=st.booleans())
    def test_axis_equals_linspace(self, box, start, log_width, clamp_end):
        """Axes in the engine's range: widths 1e-19 to 2 (or 0, once a pass's
        half-width falls below the spacing of floats at the point), ends at
        nextafter of the box."""
        lo, hi = box
        a_min, b_max = math.nextafter(lo, hi), math.nextafter(hi, lo)
        a = a_min if start is None else max(a_min, min(start * hi, b_max))
        b = b_max if clamp_end else min(a + 10.0 ** log_width, b_max)
        axis = _axis9(a, b)
        assert repr(axis) == repr(np.linspace(a, b, 9).tolist())
        assert all(type(x) is float for x in axis)

    @settings(max_examples=200, deadline=None)
    @given(ta=st.lists(st.floats(0.0, HALF_PI, exclude_min=True, exclude_max=True), min_size=1,
                       max_size=12),
           tb=st.lists(st.floats(0.0, HALF_PI, exclude_min=True, exclude_max=True), min_size=1,
                       max_size=12))
    def test_hardy_lattice_equals_hardy_probability(self, ta, tb):
        got = _hardy_lattice(ta, tb)
        assert got.shape == (len(ta), len(tb))
        want = [hardy_probability(a, b) for a, b in itertools.product(ta, tb)]
        assert repr(got.ravel().tolist()) == repr(want)

    @settings(max_examples=500, deadline=None)
    @given(cs=st.lists(st.one_of(open_unit, st.floats(0.3333, 0.4816), st.floats(1e-170, 1e-150)),
                       min_size=1, max_size=12),
           data=st.data(),
           exclusivity_tol=exclusivity_tols)
    def test_family_max_is_first_argmax(self, cs, data, exclusivity_tol):
        """On any ascending axis, repeated points and squares that tie below
        1e-150 included, the top-down scan returns the first argmax of the
        full lattice of scores and its value."""
        cs = sorted(cs + data.draw(st.lists(st.sampled_from(cs), max_size=4), label="repeats"))
        values = np.array([c * c if _delta_overlap(c) < exclusivity_tol else 0.0 for c in cs])
        k = int(values.argmax())
        assert repr(_family_max(cs, exclusivity_tol)) == repr((cs[k], values.item(k)))

    def test_hardy_lattice_on_first_grid_256(self):
        axis = [(i + 0.5) * HALF_PI / 256 for i in range(256)]
        want = [hardy_probability(a, b) for a, b in itertools.product(axis, axis)]
        assert _hardy_lattice(axis, axis).ravel().tolist() == want


class TestMaximizeHardy:
    def test_reaches_known_maximum(self):
        result = maximize_hardy(grid=16)
        assert abs(result.objective - HARDY_MAX) < 1e-6
        assert result.objective < 1.0 / 9.0
        params = dict(result.parameters)
        assert set(params) == {"theta_a", "theta_b"}
        # the maximum sits on the diagonal at cos(theta) = (sqrt(5)-1)/2
        theta_star = math.acos((math.sqrt(5.0) - 1.0) / 2.0)
        assert abs(params["theta_a"] - theta_star) < 1e-4
        assert abs(params["theta_b"] - theta_star) < 1e-4
        assert result.grid_resolution == 16
        assert result.refine_tolerance == 1e-9
        assert result.exclusivity_tol is None

    @pytest.mark.parametrize("grid", [*range(16, 65), 256])
    def test_matches_grid_refine_oracle(self, grid):
        assert_matches_oracle(maximize_hardy, hardy_oracle, grid, 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(grid=st.integers(16, MAX_GRID), refine_tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_matches_oracle_at_any_grid(self, grid, refine_tol):
        assert_matches_oracle(maximize_hardy, hardy_oracle, grid, refine_tol)

    def test_matches_oracle_at_pass_count_boundaries(self):
        """refine_tol at 2 hw / 2^k (hw = pi/2/16), where k + 1 passes step
        down to k, and one ulp either side: Hardy's loop has every pass
        count from 0 to 60, and the refusal past 60, as the oracle has them."""
        def hardy(*args):
            result = maximize_hardy(*args)
            return result.parameters, result.objective, result.evaluations

        def outcome(search, refine_tol):
            try:
                return repr(search(16, refine_tol))
            except ConvergenceError as exc:
                return repr(exc)

        for k in range(MAX_REFINE_ITERATIONS + 2):
            edge = 2.0 * (HALF_PI / 16) / 2.0 ** k
            for refine_tol, passes in ((math.nextafter(edge, 0.0), k + 1), (edge, k + 1),
                                       (math.nextafter(edge, math.inf), k)):
                got = outcome(hardy, refine_tol)
                assert got == outcome(hardy_oracle, refine_tol), (k, refine_tol)
                if passes > MAX_REFINE_ITERATIONS:
                    assert got.startswith("ConvergenceError(")
                else:
                    assert got.endswith(f", {16 * 16 + passes * 81})")

    def test_iteration_cap(self):
        for search in (maximize_hardy, hardy_oracle):
            with pytest.raises(ConvergenceError, match="^refinement did not reach tolerance "
                               "1e-40 within 60 iterations$"):
                search(16, 1e-40)

    @pytest.mark.parametrize("grid, refine_tol", [(64, 1e-300), (16, 1e-40)])
    def test_unreachable_tolerance_is_refused_before_any_call(self, monkeypatch, grid, refine_tol):
        """Halving is exact, so the pass count is known up front: a search
        needing more than 60 refinements raises before scoring any lattice."""
        calls = []
        monkeypatch.setattr(qpp.optimizer, "_hardy_lattice", lambda *axes: calls.append(axes))
        with pytest.raises(ConvergenceError, match=f"^refinement did not reach tolerance "
                           f"{refine_tol!r} within 60 iterations$"):
            maximize_hardy(grid, refine_tol)
        assert calls == []

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="grid"):
            maximize_hardy(grid=15)
        with pytest.raises(ValueError, match="refine_tol"):
            maximize_hardy(refine_tol=0.0)

    def test_grid_is_capped(self):
        """The initial scan holds grid**2 points, so grids above the cap are refused."""
        assert MAX_GRID == 256
        with pytest.raises(ValueError, match="^grid must be at most 256, got 257$"):
            maximize_hardy(grid=MAX_GRID + 1)


class TestFeasibilityRoot:
    def test_domain(self):
        for c in (0.0, 1.0, -0.5, -0.1, math.nan):
            with pytest.raises(ValueError):
                feasibility_root(c)

    def test_kernel_is_private(self):
        assert "_delta_overlap" not in qpp.optimizer.__all__
        assert not hasattr(qpp, "_delta_overlap")

    def test_kernel_equals_root_overlap_on_p_lattice(self):
        """The family objective's kernel is feasibility_root's overlap, bit
        for bit, on both sides of c = 1/3."""
        cs = P_LATTICE.tolist()
        assert min(cs) < 1.0 / 3.0 < max(cs)
        assert [repr(_delta_overlap(c)) for c in cs] == [repr(feasibility_root(c)[1]) for c in cs]

    def test_root_at_one_third_is_one_half(self):
        p, overlap = feasibility_root(1.0 / 3.0)
        assert abs(p - 0.5) < 1e-9
        assert overlap < 1e-9

    def test_infeasible_above_one_third(self):
        for c in (0.34, 0.4, 0.5, 0.9):
            _, overlap = feasibility_root(c)
            assert overlap > 1e-3, c

    @settings(max_examples=300, deadline=None)
    @given(c=st.floats(min_value=0.0, max_value=1.0 / 3.0, exclude_min=True))
    def test_feasible_below_one_third(self, c):
        p, overlap = feasibility_root(c)
        assert overlap == 0.0
        # independent algebraic feasibility law at the root
        assert abs(c * c - (1.0 - c * c) * p * p * (1.0 - 2.0 * p * p)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(min_value=sys.float_info.min, max_value=1.0, exclude_max=True))
    def test_root_overlap_matches_direct_construction(self, c):
        p, overlap = feasibility_root(c)
        assert cabello_family(c, p).delta_overlap == pytest.approx(overlap, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(c=st.one_of(open_unit, st.floats(0.3333, 0.3334)))
    def test_root_overlap_matches_vectorized_overlap(self, c):
        """The root's overlap matches the oracle, and the family objective's
        kernel returns it bit for bit."""
        p, overlap = feasibility_root(c)
        assert abs(overlap - family_delta_overlap(c, p)) <= 1e-15
        assert repr(_delta_overlap(c)) == repr(overlap)

    @settings(max_examples=300, deadline=None)
    @given(c=open_unit)
    def test_root_is_lattice_minimum(self, c):
        """No p on a fine lattice beats the closed-form root."""
        _, overlap = feasibility_root(c)
        assert overlap <= family_delta_overlap(c, P_LATTICE).min() + 1e-15

    def test_infeasible_defect_grows_linearly_near_boundary(self):
        """Just above the feasibility edge the defect rises with slope 9/4."""
        for eps in (1e-3, 1e-4):
            _, overlap = feasibility_root(1.0 / 3.0 + eps)
            assert overlap == pytest.approx(2.25 * eps, rel=0.05)


class TestMaximizeCabelloFamily:
    def test_reaches_known_maximum(self):
        result = maximize_cabello_family(grid=64)
        assert abs(result.objective - 1.0 / 9.0) < 1e-6
        params = dict(result.parameters)
        assert abs(params["c"] - 1.0 / 3.0) < 1e-4
        assert abs(params["p"] - 0.5) < 1e-4
        assert result.exclusivity_tol == 1e-9
        # the reported member is feasible and reproduces the objective
        cand = cabello_family(params["c"], params["p"])
        assert cand.delta_overlap < 1e-6
        assert selection_probability(cand.scenario) == pytest.approx(result.objective)

    @pytest.mark.parametrize("grid", [*range(16, 65), 256])
    def test_matches_grid_refine_oracle(self, grid):
        assert_matches_oracle(maximize_cabello_family, family_oracle, grid, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(grid=st.integers(16, MAX_GRID), refine_tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_matches_oracle_at_any_grid(self, grid, refine_tol):
        assert_matches_oracle(maximize_cabello_family, family_oracle, grid, refine_tol)

    @settings(max_examples=100, deadline=None)
    @given(grid=st.integers(16, MAX_GRID), refine_tol=st.sampled_from([1e-3, 1e-6, 1e-9, 0.5]),
           exclusivity_tol=exclusivity_tols)
    def test_matches_oracle_at_any_exclusivity_tol(self, grid, refine_tol, exclusivity_tol):
        """Points above the highest feasible one are computed and the lower
        ones decided by dominance; the result is the full-lattice search's."""
        assert_matches_oracle(maximize_cabello_family, family_oracle, grid, refine_tol,
                              exclusivity_tol)

    @pytest.mark.parametrize("exclusivity_tol", [1e-9, 0.3])
    def test_matches_oracle_at_pass_count_boundaries(self, exclusivity_tol):
        """refine_tol at 2 hw / 2^k (hw = 1/16), where k + 1 passes step down
        to k, and one ulp either side: the family's own loop has every pass
        count from 0 to 60, and the refusal past 60, as the oracle has them."""
        def family(*args):
            result = maximize_cabello_family(*args)
            return result.parameters, result.objective, result.evaluations

        def outcome(search, refine_tol):
            try:
                return repr(search(16, refine_tol, exclusivity_tol))
            except ConvergenceError as exc:
                return repr(exc)

        for k in range(MAX_REFINE_ITERATIONS + 2):
            edge = 2.0 * (1.0 / 16) / 2.0 ** k
            for refine_tol, passes in ((math.nextafter(edge, 0.0), k + 1), (edge, k + 1),
                                       (math.nextafter(edge, math.inf), k)):
                got = outcome(family, refine_tol)
                assert got == outcome(family_oracle, refine_tol), (k, refine_tol)
                if passes > MAX_REFINE_ITERATIONS:
                    assert got.startswith("ConvergenceError(")
                else:
                    assert got.endswith(f", {16 + passes * 9})")

    @pytest.mark.parametrize("exclusivity_tol", [1e-17, 1e-20, 1e-300])
    @pytest.mark.parametrize("grid, refine_tol", [(16, 1e-3), (16, 1e-9), (17, 1e-9), (64, 1e-9)])
    def test_tiny_exclusivity_tol_reaches_one_third(self, grid, refine_tol, exclusivity_tol):
        """Feasible members have overlap exactly 0, so a tolerance below the
        u-form's rounding noise (3e-17 to 7e-17) still admits them all."""
        result = maximize_cabello_family(grid, refine_tol, exclusivity_tol)
        c = dict(result.parameters)["c"]
        assert abs(c - 1.0 / 3.0) < refine_tol
        assert feasibility_root(c)[1] == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="grid"):
            maximize_cabello_family(grid=8)
        with pytest.raises(ValueError, match="exclusivity_tol"):
            maximize_cabello_family(exclusivity_tol=0.0)
        with pytest.raises(TypeError, match="^exclusivity_tol must be a real number, got '1e-9'$"):
            maximize_cabello_family(exclusivity_tol="1e-9")

    def test_grid_is_capped(self):
        with pytest.raises(ValueError, match="^grid must be at most 256, got 257$"):
            maximize_cabello_family(grid=MAX_GRID + 1)
        assert maximize_cabello_family(grid=MAX_GRID).grid_resolution == MAX_GRID

    def test_overlap_identity_on_grid(self):
        """The vectorized overlap agrees with the scenario construction on
        the optimizer's search line."""
        cs = np.linspace(0.05, 0.95, 19)
        for c in cs:
            p, _ = feasibility_root(float(c))
            fast = family_delta_overlap(float(c), p)
            direct = cabello_family(float(c), p).delta_overlap
            assert fast == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("search", [maximize_hardy, maximize_cabello_family])
class TestSearchResultTypes:
    def test_parameters_and_objective_are_floats(self, search):
        result = search(16, 1e-6)
        assert all(type(value) is float for _, value in result.parameters)
        assert type(result.objective) is float
        assert type(result.evaluations) is int

    @pytest.mark.parametrize("grid", [16.0, 16.5, "16", True])
    def test_non_integer_grid_is_refused(self, search, grid):
        with pytest.raises(TypeError, match=f"^grid must be an integer, got {grid!r}$"):
            search(grid)

    @pytest.mark.parametrize("refine_tol, error, rule", [
        ("1e-3", TypeError, "a real number"), (None, TypeError, "a real number"),
        (True, TypeError, "a real number"), (0.0, ValueError, "positive and finite"),
        (-1e-3, ValueError, "positive and finite"), (math.nan, ValueError, "positive and finite"),
    ])
    def test_bad_refine_tol_is_refused_by_name(self, search, refine_tol, error, rule):
        message = f"refine_tol must be {rule}, got {refine_tol!r}"
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            search(16, refine_tol)

    def test_widest_grid_memory_is_bounded(self, search):
        """At MAX_GRID, Hardy's first grid holds 65536 points (2.6 MiB peak,
        a few float64 arrays of them) and the family's 256 Python floats
        (6 KiB): under 8 arrays of grid**2 floats and 64 KiB."""
        bound = 8 * 8 * MAX_GRID ** 2 if search is maximize_hardy else 64 * 2**10
        tracemalloc.start()
        try:
            result = search(MAX_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.grid_resolution == MAX_GRID
        assert peak < bound

    def test_integer_like_grid_is_a_plain_int(self, search):
        result = search(np.int64(16))
        assert type(result.grid_resolution) is int
        assert result == search(16)
        json.dumps(result.grid_resolution)
