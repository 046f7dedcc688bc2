"""Tests for exact assignment counting, listing and refutation traces."""

import dataclasses
import inspect
import itertools
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    grid_scenario, ks18_scenario, parity_structures, propagation_oracle, random_qubit_state,
    random_structures, structure_scenario, witness_heavy_scenario,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qpp import nchv
from qpp import (
    CONFLICT,
    Context,
    ContradictionTrace,
    EnumerationLimitError,
    EXCLUSIVITY,
    ForcedValue,
    LabeledProjector,
    NoContradictionError,
    PropagationIncompleteError,
    PrePostScenario,
    SAT,
    StateVector,
    SUM_RULE,
    TraceStep,
    UNSAT,
    ValueAssignment,
    cabello_scenario,
    contradiction_trace,
    enumerate_assignments,
    forced_values,
    hardy_scenario,
    load,
    single_qubit_scenario,
)

DATA = Path(__file__).parent / "data"


def brute_force_witnesses(s, forced):
    """Independent reference: check all assignments with plain Python."""
    labels = sorted(s.rows)
    forced_map = {f.label: f.bit for f in forced}
    out = []
    for bits in itertools.product((0, 1), repeat=len(labels)):
        a = dict(zip(labels, bits))
        if any(a[lab] != bit for lab, bit in forced_map.items()):
            continue
        if any(sum(a[m] for m in ctx.members) != 1 for ctx in s.contexts):
            continue
        if any(a[x] + a[y] > 1 for x, y in s.exclusive_pairs):
            continue
        out.append(a)
    return out


def stalled_scenario(seed=3):
    """UNSAT with no forced values: every pair of four labels must differ,
    which is impossible, but unit propagation has nothing to start from."""
    rng = np.random.default_rng(seed)
    labels = ["w", "x", "y", "z"]
    projs = tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in labels)
    ctxs = tuple(Context(pair) for pair in itertools.combinations(labels, 2))
    return PrePostScenario(
        dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng),
        projectors=projs, contexts=ctxs,
    )


class TestEnumeration:
    def test_cabello_unsat(self):
        s = cabello_scenario()
        rep = enumerate_assignments(s, forced_values(s))
        assert rep.status == UNSAT
        assert rep.assignments_examined == 128
        assert rep.witnesses.count == 0 and list(rep.witnesses) == []
        assert rep.conflict is not None

    def test_dropping_any_forced_value_restores_sat(self):
        s = cabello_scenario()
        forced = forced_values(s)
        assert len(forced) == 5
        for i in range(len(forced)):
            subset = forced[:i] + forced[i + 1:]
            rep = enumerate_assignments(s, subset)
            assert rep.status == SAT, forced[i].label
            assert rep.conflict is None

    def test_matches_brute_force(self):
        s = cabello_scenario()
        forced = forced_values(s)
        subsets = [forced] + [forced[:i] + forced[i + 1:] for i in range(len(forced))]
        for subset in subsets:
            rep = enumerate_assignments(s, subset)
            expected = brute_force_witnesses(s, subset)
            assert [w.as_dict() for w in rep.witnesses] == expected

    def test_matches_brute_force_on_random_scenarios(self):
        for seed in range(10):
            s = single_qubit_scenario(seed % 4 + 1, seed)
            forced = forced_values(s)
            rep = enumerate_assignments(s, forced)
            assert rep.status == SAT
            assert [w.as_dict() for w in rep.witnesses] == brute_force_witnesses(s, forced)

    def test_witnesses_are_lexicographic(self):
        s = single_qubit_scenario(3, 12)
        rep = enumerate_assignments(s, ())
        keys = [tuple(bit for _, bit in w.values) for w in rep.witnesses]
        assert keys == sorted(keys)

    def test_examined_count_is_power_of_two(self):
        s = single_qubit_scenario(5, 0)
        rep = enumerate_assignments(s, ())
        assert rep.assignments_examined == 2 ** 10

    def test_32_labels_are_counted(self):
        """No label cap: 16 two-member contexts count 2**16 of 2**32
        assignments, and the first 16 witnesses are the 16 smallest bit
        strings of the product of the contexts' choices."""
        s = single_qubit_scenario(16, 0)
        rep = enumerate_assignments(s, ())
        assert rep.status == SAT and rep.assignments_examined == 2**32
        assert rep.witnesses.count == 2**16
        labels = sorted(s.rows)
        models = (dict.fromkeys(labels, 0) | dict.fromkeys(ones, 1)
                  for ones in itertools.product(*(ctx.members for ctx in s.contexts)))
        first = sorted(tuple(a[lab] for lab in labels) for a in models)[:16]
        assert [r.as_dict() for r in rep.witnesses[:16]] == [dict(zip(labels, bits)) for bits in first]

    def test_node_budget_refuses_a_count(self, monkeypatch):
        """The 4x4 grid's count caches more than 2 components: with the
        budget at 2 it is refused by name, and at the default it counts 4!."""
        s = grid_scenario()
        assert enumerate_assignments(s, ()).witnesses.count == 24
        monkeypatch.setattr(nchv, "_NODE_BUDGET", 2)
        with pytest.raises(EnumerationLimitError, match="more than 2 components"):
            enumerate_assignments(s, ())

    def test_recursion_past_the_limit_is_refused_by_name(self):
        """A chain of 3000 exclusive pairs recurses about 1500 deep: an
        EnumerationLimitError, not a RecursionError, reaches the caller."""
        labels = [f"l{i:04d}" for i in range(3001)]
        s = structure_scenario(labels, (), zip(labels, labels[1:]))
        with pytest.raises(EnumerationLimitError, match="recurses deeper"):
            enumerate_assignments(s, ())

    def test_listing_past_the_recursion_limit_is_refused_by_name(self):
        """The descent re-counts through the same guard: a 400-pair chain,
        listed with its cache emptied under a recursion limit 100 frames
        above the caller, recurses about 200 deep and is refused by name."""
        labels = [f"l{i:03d}" for i in range(401)]
        w = enumerate_assignments(structure_scenario(labels, (), zip(labels, labels[1:])), ()).witnesses
        w._cache.clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            with pytest.raises(EnumerationLimitError, match="recurses deeper"):
                w[:1]
        finally:
            sys.setrecursionlimit(limit)

    def test_conflicting_forced_values_rejected(self):
        s = cabello_scenario()
        forced = (ForcedValue("alpha", 0, "Prediction"), ForcedValue("alpha", 1, "Prediction"))
        with pytest.raises(ValueError, match="alpha"):
            enumerate_assignments(s, forced)
        # The conflict is named before an unknown label that comes first.
        unknown = (ForcedValue("epsilon", 0, "Prediction"),)
        with pytest.raises(ValueError, match="^conflicting forced values for 'alpha'$"):
            enumerate_assignments(s, unknown + forced)

    def test_unknown_labels_rejected(self):
        """A forced label is caller input and is checked here; a context
        label is refused when the scenario is built."""
        s = cabello_scenario()
        with pytest.raises(ValueError, match="epsilon"):
            enumerate_assignments(s, (ForcedValue("epsilon", 0, "Prediction"),))
        with pytest.raises(ValueError, match=r"contexts\[0\]: .*unknown label 'ghost'"):
            dataclasses.replace(s, contexts=(Context(("alpha", "ghost")),))

    def test_duplicate_labels_rejected(self):
        """Refused when the scenario is built, so enumeration never sees one."""
        s = cabello_scenario()
        extra = LabeledProjector("alpha", StateVector([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match=r"projectors\[7\]: duplicate label 'alpha'"):
            dataclasses.replace(s, projectors=s.projectors + (extra,))

    def test_repeated_context_member_rejected(self):
        """Refused when the context is built: a repeated member would make
        the exactly-one rule count one label twice."""
        with pytest.raises(ValueError, match="repeats member 'q0'"):
            Context(("q0", "q0", "q0_perp"))

    def test_self_pair_rejected(self):
        """Refused when the scenario is built: no projector is exclusive
        with itself."""
        s = single_qubit_scenario(1, 0)
        with pytest.raises(ValueError, match=r"exclusive_pairs\[0\]: .*repeats label 'q0'"):
            dataclasses.replace(s, exclusive_pairs=(("q0", "q0"),))

    def test_deterministic(self):
        s = cabello_scenario()
        a = enumerate_assignments(s, forced_values(s))
        b = enumerate_assignments(s, forced_values(s))
        assert a == b


class TestTrace:
    def test_cabello_trace_is_three_steps(self):
        trace = contradiction_trace(cabello_scenario())
        assert [s.conclusion for s in trace.steps] == ["delta+=1", "delta-=1", CONFLICT]
        assert trace.steps[0] == TraceStep(
            ("alpha=0", "beta+=0", "gamma+=0"), SUM_RULE, "delta+=1"
        )
        assert trace.steps[1] == TraceStep(
            ("alpha=0", "beta-=0", "gamma-=0"), SUM_RULE, "delta-=1"
        )
        assert trace.steps[2] == TraceStep(("delta+=1", "delta-=1"), EXCLUSIVITY, CONFLICT)

    def test_three_box_trace_ends_in_a_double_one(self):
        """A, B, C and (B +- C), (A +- C) in d=3: the pinned rules derive
        A=1 and B=1, then stall; the context {A, B, C} is the conflict."""
        s = load((DATA / "three_box.json").read_bytes())
        forced = forced_values(s)
        assert sorted((fv.label, fv.bit) for fv in forced) == [
            ("A+C", 0), ("A-C", 0), ("B+C", 0), ("B-C", 0)]
        rep = enumerate_assignments(s, forced)
        assert rep.status == UNSAT and rep.assignments_examined == 128
        assert rep.conflict.steps == (
            TraceStep(("B+C=0", "B-C=0"), SUM_RULE, "A=1"),
            TraceStep(("A+C=0", "A-C=0"), SUM_RULE, "B=1"),
            TraceStep(("A=1", "B=1"), SUM_RULE, CONFLICT),
        )
        assert rep.conflict == propagation_oracle(s, forced)

    def test_double_one_waits_for_the_pinned_rules(self):
        """A context driven to two 1s by forced values is flagged only after
        unit propagation and the exclusivity rule have stalled."""
        rng = np.random.default_rng(0)
        projs = tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in "abcxy")
        s = PrePostScenario(
            dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng), projectors=projs,
            contexts=(Context(("a", "b", "c")), Context(("x", "y"))),
        )
        forced = tuple(ForcedValue(lab, bit, "Prediction") for lab, bit in
                       (("a", 1), ("c", 1), ("x", 0)))
        rep = enumerate_assignments(s, forced)
        assert rep.status == UNSAT
        assert rep.conflict.steps == (
            TraceStep(("x=0",), SUM_RULE, "y=1"),
            TraceStep(("a=1", "c=1"), SUM_RULE, CONFLICT),
        )

    def test_a_context_of_zeros_is_a_conflict(self):
        """At tolerance 0.5 both selections force x, y and z to 0; the one
        context then holds no 1, which the sum rule refutes."""
        s = load((DATA / "all_zero_context.json").read_bytes())
        forced = forced_values(s, 0.5)
        assert [(fv.label, fv.bit) for fv in forced] == [("x", 0), ("y", 0), ("z", 0)]
        rep = enumerate_assignments(s, forced)
        assert rep.status == UNSAT and rep.assignments_examined == 8
        assert rep.conflict.steps == (TraceStep(("x=0", "y=0", "z=0"), SUM_RULE, CONFLICT),)
        assert contradiction_trace(s, 0.5) == rep.conflict == propagation_oracle(s, forced)

    def test_cabello_at_a_loose_tolerance_is_refuted_by_its_first_context(self):
        """At tolerance 0.9 pre forces all seven labels to 0; premises keep member order."""
        s = cabello_scenario()
        forced = forced_values(s, 0.9)
        assert {fv.bit for fv in forced} == {0} and len(forced) == 7
        rep = enumerate_assignments(s, forced)
        assert rep.status == UNSAT
        assert rep.conflict.steps == (
            TraceStep(("alpha=0", "beta+=0", "gamma+=0", "delta+=0"), SUM_RULE, CONFLICT),
        )

    def test_a_double_one_comes_before_a_context_of_zeros(self):
        """The zero-context rule is checked last, so a later context with two
        1s still ends the trace; existing traces keep their bytes."""
        rng = np.random.default_rng(1)
        projs = tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in "abcxy")
        s = PrePostScenario(
            dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng), projectors=projs,
            contexts=(Context(("x", "y")), Context(("a", "b", "c"))),
        )
        forced = tuple(ForcedValue(lab, bit, "Prediction") for lab, bit in
                       (("x", 0), ("y", 0), ("a", 1), ("b", 1)))
        rep = enumerate_assignments(s, forced)
        assert rep.conflict.steps == (TraceStep(("a=1", "b=1"), SUM_RULE, CONFLICT),)
        assert rep.conflict == propagation_oracle(s, forced)

    def test_hardy_trace_matches(self):
        trace = contradiction_trace(hardy_scenario(0.8, 0.9))
        assert [s.conclusion for s in trace.steps] == ["delta+=1", "delta-=1", CONFLICT]

    def test_sat_scenario_has_no_trace(self):
        with pytest.raises(NoContradictionError):
            contradiction_trace(single_qubit_scenario(2, 6))

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, math.inf])
    def test_bad_tolerance_is_refused(self, tol):
        """A NaN tolerance would force nothing (no contradiction), an infinite
        one every projector to 0; neither reaches the search."""
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            contradiction_trace(cabello_scenario(), tol=tol)

    def test_unsat_without_certificate(self):
        s = stalled_scenario()
        assert forced_values(s) == ()
        rep = enumerate_assignments(s, ())
        assert rep.status == UNSAT
        assert rep.conflict is None
        with pytest.raises(PropagationIncompleteError, match="certificate"):
            contradiction_trace(s)

    def test_valid_scenario_can_stall_propagation(self):
        """The 18-vector set is UNSAT by parity, not by unit propagation."""
        from qpp import validate

        s = ks18_scenario()
        assert validate(s).passed
        assert forced_values(s) == ()
        rep = enumerate_assignments(s, ())
        assert rep.status == UNSAT
        assert rep.assignments_examined == 2 ** 18
        assert rep.conflict is None

    def test_trace_must_end_in_conflict(self):
        with pytest.raises(ValueError):
            ContradictionTrace(())
        with pytest.raises(ValueError):
            ContradictionTrace((TraceStep(("a=0",), SUM_RULE, "b=1"),))

    def test_trace_conclusions_helper(self):
        trace = contradiction_trace(cabello_scenario())
        assert trace.conclusions() == ("delta+=1", "delta-=1", CONFLICT)


class TestPropagationFirst:
    """Unit propagation runs on the compiled masks before the counting search,
    and a CONFLICT there decides UNSAT without searching."""

    @pytest.mark.parametrize("build", [
        cabello_scenario,
        lambda: hardy_scenario(0.8, 0.9),
        lambda: load((DATA / "three_box.json").read_bytes()),
        lambda: load((DATA / "reversed_contexts.json").read_bytes()),
    ], ids=["cabello", "hardy", "three_box", "reversed_contexts"])
    def test_refuted_scenarios_skip_the_search(self, build):
        s = build()
        forced = forced_values(s)
        with mock.patch.object(nchv, "_open", wraps=nchv._open) as search:
            rep = enumerate_assignments(s, forced)
        assert search.call_count == 0
        assert rep.status == UNSAT and rep.witnesses.count == 0
        assert list(rep.witnesses) == [] and rep.witnesses[:16] == ()
        assert rep.assignments_examined == 2 ** len(s.projectors)
        assert rep.conflict is not None
        assert rep.conflict == propagation_oracle(s, forced)

    @pytest.mark.parametrize("build, status", [
        (ks18_scenario, UNSAT),
        (lambda: single_qubit_scenario(2, 6), SAT),
    ], ids=["ks18", "single_qubit"])
    def test_stalled_propagation_searches(self, build, status):
        s = build()
        forced = forced_values(s)
        with mock.patch.object(nchv, "_open", wraps=nchv._open) as search:
            rep = enumerate_assignments(s, forced)
        assert search.call_count > 0
        assert rep.status == status and rep.conflict is None

    @settings(max_examples=300, deadline=None)
    @given(case=random_structures())
    def test_a_propagation_conflict_admits_no_assignment(self, case):
        """The shortcut's soundness: all three rules are inferences every
        satisfying assignment obeys, so a CONFLICT leaves no witness; and
        the search runs exactly when propagation stalls."""
        s, forced = case
        trace = propagation_oracle(s, forced)
        if trace is not None:
            assert brute_force_witnesses(s, forced) == []
        with mock.patch.object(nchv, "_open", wraps=nchv._open) as search:
            enumerate_assignments(s, forced)
        assert search.called == (trace is None)

    @pytest.mark.parametrize("contexts, pairs, rule, premises", [
        (((0b10, 0b01),), (), SUM_RULE, ("a=1", "b=1")),
        ((), ((0b01, 0b10),), EXCLUSIVITY, ("b=1", "a=1")),
    ], ids=["two_ones_in_a_context", "ones_fill_a_pair"])
    def test_forced_ones_that_break_a_constraint_count_zero(self, contexts, pairs, rule, premises):
        """Witnesses propagates its own constraints: forced 1s that share a
        context or fill a pair are refuted before any count, the premises in
        declared member order."""
        c = nchv._Constraints(("a", "b"), contexts, pairs, 0b11, 0b11)
        with mock.patch.object(nchv, "_open", wraps=nchv._open) as search:
            w = nchv.Witnesses(c)
            assert w.count == len(w) == 0 and list(w) == [] and w[:4] == ()
        assert search.call_count == 0
        assert w._conflict == ContradictionTrace((TraceStep(premises, rule, CONFLICT),))

    def test_a_forced_one_outside_known_is_still_fixed(self):
        """A hand-built forced 1 that known omits is fixed all the same: one
        model, listed with its 1 once (not two models and an OverflowError)."""
        w = nchv.Witnesses(nchv._Constraints(("a", "b"), ((0b10, 0b01),), (), 0, 0b10))
        assert w.count == 1
        assert [r.as_dict() for r in w] == [{"a": 1, "b": 0}]

    def test_propagation_reads_only_the_compiled_constraints(self):
        s = cabello_scenario()
        with mock.patch.object(nchv, "_propagate", wraps=nchv._propagate) as propagate:
            rep = enumerate_assignments(s, forced_values(s))
        propagate.assert_called_once_with(rep.witnesses._c)
        assert rep.conflict is rep.witnesses._conflict

    def test_hashing_a_report_builds_no_record(self, monkeypatch):
        rep = enumerate_assignments(witness_heavy_scenario(14), ())
        monkeypatch.setattr(nchv.Witnesses, "_record", mock.Mock(side_effect=AssertionError))
        with pytest.raises(TypeError, match="unhashable"):
            hash(rep)


def chain_of_units(n, pairs=(), reverse=False):
    """n contexts (f_i, y_i), in declared order or reversed, with every f_i
    forced 0, so each y_i is set to 1 by its own SumRule step."""
    f, y = [f"f{i:04d}" for i in range(n)], [f"y{i:04d}" for i in range(n)]
    contexts = list(zip(f, y))
    s = structure_scenario(f + y, contexts[::-1] if reverse else contexts, pairs)
    return s, tuple(ForcedValue(lab, 0, "Prediction") for lab in f), f, y


class TestPropagationScale:
    """Propagation is one pass over the contexts: thousands of SumRule steps
    finish within 2 s, in either declared order and beside thousands of
    pairs that never close."""

    @pytest.mark.parametrize("reverse, idle_pairs", [(False, False), (True, False), (False, True)],
                             ids=["declared", "reversed", "idle_pairs"])
    def test_4000_steps_are_linear(self, reverse, idle_pairs):
        n = 4000
        pairs = [(f"f{(i + 1) % n:04d}", f"y{i:04d}") for i in range(n)] if idle_pairs else ()
        s, forced, f, y = chain_of_units(n, pairs, reverse)
        start = time.perf_counter()
        rep = enumerate_assignments(s, forced)
        elapsed = time.perf_counter() - start
        assert rep.status == SAT and rep.conflict is None and rep.witnesses.count == 1
        assert [r.as_dict() for r in rep.witnesses[:2]] == [dict.fromkeys(f, 0) | dict.fromkeys(y, 1)]
        assert elapsed < 2.0, elapsed

    def test_a_pair_closed_by_the_last_step(self):
        """The pair (y_0, y_299) closes only at the 300th step: the pass stops
        there and the trace equals the rescanning oracle's, step for step."""
        s, forced, f, y = chain_of_units(300, [("y0000", "y0299")])
        rep = enumerate_assignments(s, forced)
        assert rep.status == UNSAT
        assert rep.conflict.conclusions() == (*(f"{lab}=1" for lab in y), CONFLICT)
        assert rep.conflict == propagation_oracle(s, forced)


class TestParity:
    """Before branching, a component's contexts are reduced over GF(2): each
    holds an odd number of 1s, so rows that sum to 0 = 1 refute it."""

    @pytest.mark.parametrize("build", [
        ks18_scenario, lambda: load((DATA / "ks18.json").read_bytes()),
    ], ids=["ks18_scenario", "ks18_json"])
    def test_ks18_is_decided_at_the_root(self, build):
        s = build()
        with mock.patch.object(nchv, "_open", wraps=nchv._open) as search:
            rep = enumerate_assignments(s, forced_values(s))
        assert search.call_count == 1
        assert rep.status == UNSAT and rep.conflict is None
        assert rep.witnesses.count == 0 and list(rep.witnesses) == []

    @pytest.mark.parametrize("contexts, forced, count", [
        ([("a", "b"), ("b", "c"), ("a", "c")], {}, 0),
        ([("a", "b"), ("b", "c"), ("a", "c", "z")], {"z": 0}, 0),
        ([[f"g{r}{c}" for c in range(4)] for r in range(4)]
         + [[f"g{r}{c}" for r in range(4)] for c in range(4)], {}, 24),
    ], ids=["triangle", "triangle_with_a_zero", "grid_4x4"])
    def test_root_decision_and_known_bits(self, contexts, forced, count):
        """An odd cycle is refuted by one call, with a member forced to 0 too:
        a known bit stays out of its row.  The 4x4 grid's eight contexts sum
        to 0 = 0, so it branches and keeps its 4! models."""
        s = structure_scenario({lab for ctx in contexts for lab in ctx}, contexts)
        forced = tuple(ForcedValue(lab, bit, "Prediction") for lab, bit in forced.items())
        with mock.patch.object(nchv, "_open", wraps=nchv._open) as search:
            rep = enumerate_assignments(s, forced)
        assert rep.witnesses.count == count == len(brute_force_witnesses(s, forced))
        assert rep.conflict is None
        if count:
            assert search.call_count > 1  # not refuted: it branches
        else:
            assert search.call_count == 1

    @settings(max_examples=200, deadline=None)
    @given(case=parity_structures(), data=st.data())
    def test_parity_structures_match_brute_force(self, case, data):
        """Every label in two contexts, with optional extras: the count, the
        listing and a drawn prefix agree with brute force."""
        s, forced, core = case
        expected = [ValueAssignment(tuple(a.items())) for a in brute_force_witnesses(s, forced)]
        if core and len(s.contexts) % 2:
            assert not expected
        rep = enumerate_assignments(s, forced)
        w = rep.witnesses
        assert w.count == len(expected)
        assert rep.status == (SAT if expected else UNSAT)
        assert list(w) == expected
        k = data.draw(st.integers(0, len(expected) + 2), label="k")
        assert w[:k] == tuple(expected[:k])


@st.composite
def scenarios_with_forced(draw):
    """A single-qubit or witness-heavy scenario and a random forced subset."""
    seed = draw(st.integers(0, 2**31 - 1))
    if draw(st.booleans()):
        s = single_qubit_scenario(draw(st.integers(1, 5)), seed)
    else:
        s = witness_heavy_scenario(draw(st.integers(0, 8)), seed)
    chosen = draw(st.lists(st.sampled_from(sorted(s.rows)), unique=True))
    forced = tuple(ForcedValue(lab, draw(st.integers(0, 1)), "Prediction") for lab in chosen)
    return s, forced


@st.composite
def one_context_products(draw):
    """Disjoint contexts of 2 to 4 members plus free labels, 2 to 11 labels
    in all, with names drawn so that the contexts' bits interleave in sorted
    order, and a random forced subset."""
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4).filter(lambda s: sum(s) <= 11))
    n = draw(st.integers(sum(sizes), 11))
    labels = draw(st.permutations([f"l{i:02d}" for i in range(n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    contexts, start = [], 0
    for size in sizes:
        contexts.append(Context(tuple(labels[start:start + size])))
        start += size
    s = PrePostScenario(
        dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng),
        projectors=tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in sorted(labels)),
        contexts=tuple(contexts),
    )
    chosen = draw(st.lists(st.sampled_from(labels), unique=True, max_size=3))
    forced = tuple(ForcedValue(lab, draw(st.integers(0, 1)), "Prediction") for lab in chosen)
    return s, forced


class TestPrefixSearch:
    """The counting search against brute force (the class keeps the name of
    the prefix search it replaced)."""

    @settings(max_examples=200, deadline=None)
    @given(case=random_structures())
    def test_matches_brute_force_on_random_structures(self, case):
        """An UNSAT report's refutation matches the label-dict propagation."""
        s, forced = case
        rep = enumerate_assignments(s, forced)
        expected = brute_force_witnesses(s, forced)
        assert rep.status == (SAT if expected else UNSAT)
        assert rep.witnesses.count == len(expected)
        assert [w.as_dict() for w in rep.witnesses] == expected
        assert rep.assignments_examined == 2 ** len(s.projectors)
        assert rep.conflict == (None if expected else propagation_oracle(s, forced))

    @pytest.mark.parametrize("context", [("c", "c_perp"), ("z", "z_perp")])
    def test_label_cap_memory(self, context):
        """Both label orders at 24 labels, the old cap: 2**23 witnesses are counted
        and the first read within 72 MiB; nothing is held per witness."""
        s = witness_heavy_scenario(22, context=context)
        tracemalloc.start()
        try:
            rep = enumerate_assignments(s, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.assignments_examined == 2**24
        assert rep.witnesses.count == 2**23
        (first,) = rep.witnesses[:1]
        assert sum(first.as_dict()[m] for m in context) == 1
        assert peak < 72 * 2**20


class TestWitnesses:
    @settings(max_examples=150, deadline=None)
    @given(case=scenarios_with_forced(), data=st.data())
    def test_matches_brute_force_list(self, case, data):
        s, forced = case
        rep = enumerate_assignments(s, forced)
        expected = tuple(ValueAssignment(tuple(a.items())) for a in brute_force_witnesses(s, forced))
        w = rep.witnesses
        n = len(expected)
        assert w.count == len(w) == n
        assert rep.status == (SAT if n else UNSAT)
        assert tuple(w) == expected
        k = data.draw(st.integers(0, n + 2), label="k")
        assert w[:k] == expected[:k]
        with pytest.raises(TypeError):  # unhashable: a hash agreeing with equality would list every record
            hash(w)
        again = enumerate_assignments(s, forced)
        assert again == rep and again.witnesses == w
        for unhashable in (again, again.witnesses):
            with pytest.raises(TypeError):
                hash(unhashable)

    @settings(max_examples=300, deadline=None)
    @given(case=random_structures(), data=st.data())
    def test_count_list_and_head_match_brute_force(self, case, data):
        """Overlapping contexts and pairs with forced values: the count, the
        listing and the first k witnesses all agree with the brute-force list."""
        s, forced = case
        expected = [ValueAssignment(tuple(a.items())) for a in brute_force_witnesses(s, forced)]
        w = enumerate_assignments(s, forced).witnesses
        n = len(expected)
        assert w.count == n
        assert list(w) == expected
        k = data.draw(st.integers(0, n + 2), label="k")
        assert w[:k] == tuple(expected[:k])

    @settings(max_examples=200, deadline=None)
    @given(case=one_context_products(), data=st.data())
    def test_products_of_one_context_parts_match_brute_force(self, case, data):
        """Listing by mixed-radix digits: the count, the listing and the first
        k agree with the brute-force list, interleaved parts too."""
        s, forced = case
        expected = [ValueAssignment(tuple(a.items())) for a in brute_force_witnesses(s, forced)]
        w = enumerate_assignments(s, forced).witnesses
        n = len(expected)
        assert w.count == n
        assert list(w) == expected
        k = data.draw(st.integers(0, n + 2), label="k")
        assert w[:k] == tuple(expected[:k])

    def test_interleaved_parts_list_in_ascending_order(self):
        """With sorted labels a..e, contexts {a, d, e} and {b, c} are the masks
        {16, 2, 1} and {8, 4}: e+b (9) comes after d+c (6) though e is below
        d, so the models are not the product of the parts' choices."""
        rng = np.random.default_rng(0)
        s = PrePostScenario(
            dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng),
            projectors=tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in "abcde"),
            contexts=(Context(("a", "d", "e")), Context(("b", "c"))),
        )
        masks = [int("".join(str(a[lab]) for lab in "abcde"), 2)
                 for a in enumerate_assignments(s, ()).witnesses]
        assert masks == [5, 6, 9, 10, 20, 24]

    def test_equal_models_compare_without_records(self, monkeypatch):
        """A repeated context, a reordered pair and a pair the context implies
        compile to other constraints with the same models, compared mask by
        mask.  No record is built."""
        s = dataclasses.replace(witness_heavy_scenario(14), exclusive_pairs=(("f00", "f01"),))
        w = enumerate_assignments(s, ()).witnesses
        monkeypatch.setattr(nchv.Witnesses, "_record", mock.Mock(side_effect=AssertionError))
        twice = dataclasses.replace(s, contexts=s.contexts * 2, exclusive_pairs=(("f01", "f00"),))
        assert enumerate_assignments(twice, ()).witnesses._c != w._c
        assert enumerate_assignments(twice, ()).witnesses == w
        implied = dataclasses.replace(s, exclusive_pairs=s.exclusive_pairs + (("c_perp", "c"),))
        assert enumerate_assignments(implied, ()).witnesses._c != w._c
        assert enumerate_assignments(implied, ()).witnesses == w
        moved = dataclasses.replace(s, contexts=(Context(("f02", "f03")),))
        assert enumerate_assignments(moved, ()).witnesses.count == w.count
        assert enumerate_assignments(moved, ()).witnesses != w

    def test_ring_of_exclusive_pairs(self):
        """24 labels in a ring of exclusive pairs, no contexts: the
        independent sets of the 24-cycle, a Lucas number, L(24) = 103682."""
        rng = np.random.default_rng(5)
        labels = [f"r{i:02d}" for i in range(24)]
        s = PrePostScenario(
            dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng),
            projectors=tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in labels),
            contexts=(), exclusive_pairs=tuple(zip(labels, labels[1:] + labels[:1])),
        )
        w = enumerate_assignments(s, ()).witnesses
        assert w.count == 103682
        assert w[:1] == (ValueAssignment(tuple((lab, 0) for lab in labels)),)

    @settings(max_examples=100, deadline=None)
    @given(cases=st.lists(random_structures(), min_size=3, max_size=3))
    def test_disjoint_union_counts_the_product(self, cases):
        """Three structures relabelled apart, up to 36 labels, past the old
        24-label cap: the count is the product of their brute-force counts."""
        projectors, contexts, pairs, forced, expected = [], [], [], [], 1
        for tag, (s, fs) in zip("abc", cases):
            name = {lab: f"{tag}:{lab}" for lab in s.rows}.__getitem__
            projectors += [LabeledProjector(name(p.label), p.state) for p in s.projectors]
            contexts += [Context(tuple(map(name, ctx.members))) for ctx in s.contexts]
            pairs += [tuple(map(name, pair)) for pair in s.exclusive_pairs]
            forced += [dataclasses.replace(fv, label=name(fv.label)) for fv in fs]
            expected *= len(brute_force_witnesses(s, fs))
        union = PrePostScenario(dim=2, pre=cases[0][0].pre, post=cases[0][0].post,
                                projectors=tuple(projectors), contexts=tuple(contexts),
                                exclusive_pairs=tuple(pairs))
        rep = enumerate_assignments(union, tuple(forced))
        assert rep.witnesses.count == expected
        assert rep.assignments_examined == 2 ** len(projectors)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 400), reverse=st.booleans())
    def test_chain_of_exclusive_pairs(self, n, reverse):
        """n exclusive pairs in a path of n + 1 labels, declared in either
        order: its independent sets, the Fibonacci number F(n + 3)."""
        labels = [f"l{i:03d}" for i in range(n + 1)]
        pairs = list(zip(labels, labels[1:]))
        s = structure_scenario(labels, (), pairs[::-1] if reverse else pairs)
        fib = [0, 1]
        while len(fib) < n + 4:
            fib.append(fib[-1] + fib[-2])
        assert enumerate_assignments(s, ()).witnesses.count == fib[n + 3]

    def test_assignments_are_built_only_when_read(self, monkeypatch):
        built = []
        unchecked = ValueAssignment._unchecked.__func__

        def counting(cls, values):
            built.append(values)
            return unchecked(cls, values)

        monkeypatch.setattr(ValueAssignment, "_unchecked", classmethod(counting))
        rep = enumerate_assignments(witness_heavy_scenario(8), ())
        assert rep.witnesses.count == 2**9 and not built
        rep.witnesses[:3]
        next(iter(rep.witnesses))
        assert len(built) == 4

    @pytest.mark.parametrize("free_labels", [0, 16, 20])
    def test_decoded_records_equal_checked_ones(self, free_labels):
        """At 2, 18 and 22 labels: every decoded bit is a Python int, so
        json can write it, and each record equals the one the checked
        constructor builds from the same label/bit pairs.  The all-ones mask
        decodes a 1 at every label."""
        s = witness_heavy_scenario(free_labels)
        w = enumerate_assignments(s, ()).witnesses
        read = [*w[:300], *itertools.islice(w, 5000), w._record((1 << len(s.projectors)) - 1)]
        for record in read:
            assert all(type(bit) is int for _, bit in record.values)
            assert record == ValueAssignment(tuple(reversed(record.values)))
            json.dumps(record.as_dict())

    def test_first_witness_recounts_one_part_per_node(self):
        """Each depth-first node re-counts the part holding its bit with two
        _open calls, so the first of 24 labels' witnesses takes at most 2 * 24."""
        w = enumerate_assignments(single_qubit_scenario(12, 3), ()).witnesses
        with mock.patch.object(nchv, "_open", wraps=nchv._open) as search:
            assert len(w[:1]) == 1
        assert search.call_count <= 2 * 24

    def test_only_a_prefix_is_read(self):
        """Indices, negative or stepped slices and other keys are refused with
        the prefix form named; w[:0] and w[:None] are the prefixes at the ends."""
        w = enumerate_assignments(single_qubit_scenario(3, 1), ()).witnesses
        for key in (0, -1, slice(1, None), slice(None, None, 2), slice(None, -1), "a"):
            with pytest.raises(TypeError, match=r"prefix w\[:k\]"):
                w[key]
        assert w[:0] == () and w[:None] == tuple(w) and len(w[:None]) == w.count == 8

    def test_count_past_the_index_size_limit(self):
        """70 labels with one two-member context count 2**69 models, exactly:
        count has no bound, though len() stops at CPython's index size."""
        labels = tuple(f"l{i:02d}" for i in range(70))
        c = nchv._Constraints(labels, ((1 << 69, 1 << 68),), (), 0, 0)
        w = nchv.Witnesses(c)
        assert w.count == 2**69
        assert repr(w).startswith(f"Witnesses({2**69} assignments over ('l00', ")
        smallest = [dict.fromkeys(labels, 0) | {"l01": 1}, dict.fromkeys(labels, 0) | {"l01": 1, "l69": 1}]
        assert [r.as_dict() for r in w[:2]] == smallest
        with pytest.raises(OverflowError):
            len(w)

    def test_repr_names_count_and_labels(self):
        w = enumerate_assignments(single_qubit_scenario(1, 0), ()).witnesses
        assert repr(w) == "Witnesses(2 assignments over ('q0', 'q0_perp'))"

    def test_other_types_are_not_equal(self):
        w = enumerate_assignments(single_qubit_scenario(1, 0), ()).witnesses
        for other in (2, "ab", b"ab", None, (), [], tuple(w)):
            assert w.__eq__(other) is NotImplemented
            assert w != other

    def test_labels_must_be_sorted_distinct_nonempty_strings(self):
        for labels in (("b", "a"), ("a", "a"), ("", "a"), ("a", 1)):
            constraints = nchv._Constraints(labels, (), (), 0, 0)
            with pytest.raises(ValueError, match="sorted, distinct, nonempty strings"):
                nchv.Witnesses(constraints)

    def test_reading_a_few_witnesses_stays_small(self):
        """Building all 2**15 assignments here would peak near 38 MiB."""
        s = witness_heavy_scenario(14)
        tracemalloc.start()
        try:
            rep = enumerate_assignments(s, ())
            head = rep.witnesses[:16]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.witnesses.count == 2**15 and len(head) == 16
        assert peak < 8 * 2**20
