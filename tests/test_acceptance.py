"""Acceptance battery: every headline claim, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s; the
test names carry the same information under plain -v).
"""

import math
from contextlib import contextmanager

import numpy as np
from conftest import context_stack

from qpp import (
    PREDICTION,
    RETRODICTION,
    SAT,
    UNSAT,
    cabello_scenario,
    abl_probability,
    context_deviations,
    contradiction_trace,
    enumerate_assignments,
    feasibility_root,
    forced_values,
    hardy_scenario,
    load,
    maximize_cabello_family,
    maximize_hardy,
    save,
    selection_probability,
    single_qubit_scenario,
    validate,
)

HARDY_MAX = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_01_selection_probability_is_one_ninth():
    with criterion(1, "postselection succeeds with probability 1/9"):
        prob = selection_probability(cabello_scenario())
        assert abs(prob - 1.0 / 9.0) < 1e-12


def test_criterion_02_contexts_resolve_identity_and_deltas_exclude():
    with criterion(2, "both contexts resolve identity; delta pair exclusive"):
        s = cabello_scenario()
        assert (context_deviations(context_stack(s)) < 1e-12).all()
        assert abs(np.vdot(s.states[s.rows["delta+"]], s.states[s.rows["delta-"]])) < 1e-12


def test_criterion_03_exactly_five_forced_zeros():
    with criterion(3, "selections force exactly five zeros"):
        forced = forced_values(cabello_scenario())
        assert [(f.label, f.bit, f.justification) for f in forced] == [
            ("alpha", 0, PREDICTION),
            ("beta+", 0, PREDICTION),
            ("beta-", 0, PREDICTION),
            ("gamma+", 0, RETRODICTION),
            ("gamma-", 0, RETRODICTION),
        ]


def test_criterion_04_noncontextual_assignments_are_contradictory():
    with criterion(4, "no noncontextual assignment survives; minimal trace"):
        s = cabello_scenario()
        forced = forced_values(s)
        report = enumerate_assignments(s, forced)
        assert report.status == UNSAT
        assert report.assignments_examined == 128
        assert report.witnesses.count == 0 and list(report.witnesses) == []
        trace = contradiction_trace(s)
        assert trace.conclusions() == ("delta+=1", "delta-=1", "CONFLICT")
        for i in range(len(forced)):
            relaxed = enumerate_assignments(s, forced[:i] + forced[i + 1:])
            assert relaxed.status == SAT, forced[i].label


def test_criterion_05_abl_probabilities_match_forced_values():
    with criterion(5, "intermediate probabilities: deltas certain, rest zero"):
        s = cabello_scenario()
        for lab in ("delta+", "delta-"):
            assert abs(abl_probability(s, lab) - 1.0) < 1e-12
        for lab in ("alpha", "beta+", "beta-", "gamma+", "gamma-"):
            assert abs(abl_probability(s, lab)) < 1e-12


def test_criterion_06_hardy_maximum():
    with criterion(6, "Hardy probability peaks at ((sqrt(5)-1)/2)^5, below 1/9"):
        result = maximize_hardy(grid=64)
        assert abs(result.objective - HARDY_MAX) < 1e-6
        assert result.objective < 1.0 / 9.0


def test_criterion_07_family_maximum_at_one_third_and_one_half():
    with criterion(7, "family optimum is 1/9 at c=1/3, p=1/2; beyond is infeasible"):
        result = maximize_cabello_family(grid=64)
        params = dict(result.parameters)
        assert abs(result.objective - 1.0 / 9.0) < 1e-6
        assert abs(params["c"] - 1.0 / 3.0) < 1e-4
        assert abs(params["p"] - 0.5) < 1e-4
        for c in (0.34, 0.5):
            _, overlap = feasibility_root(c)
            assert overlap > 1e-9
        p, _ = feasibility_root(1.0 / 3.0)
        assert abs(p - 0.5) < 1e-9


def test_criterion_08_random_hardy_scenarios_reproduce_the_argument():
    with criterion(8, "20 seeded Hardy scenarios: valid, five zeros, same trace"):
        rng = np.random.default_rng(52)
        for _ in range(20):
            ta, tb = rng.uniform(0.15, math.pi / 2.0 - 0.15, 2)
            s = hardy_scenario(ta, tb)
            assert (context_deviations(context_stack(s)) < 1e-9).all()
            forced = forced_values(s)
            assert [f.bit for f in forced] == [0, 0, 0, 0, 0]
            assert len(forced) == 5
            report = enumerate_assignments(s, forced)
            assert report.status == UNSAT
            trace = contradiction_trace(s)
            assert trace.conclusions() == ("delta+=1", "delta-=1", "CONFLICT")


def test_criterion_09_random_single_qubit_scenarios_are_satisfiable():
    with criterion(9, "100 seeded single-qubit scenarios admit assignments"):
        for i in range(100):
            s = single_qubit_scenario(n_contexts=(i % 10) + 1, seed=i)
            report = enumerate_assignments(s, forced_values(s))
            assert report.status == SAT, i


def test_criterion_10_round_trip_preserves_all_conclusions():
    with criterion(10, "save/load round trip is byte-stable and conclusion-exact"):
        for s in (cabello_scenario(), hardy_scenario(0.7, 1.1)):
            blob = save(s)
            reloaded = load(blob)
            assert save(reloaded) == blob
            assert selection_probability(reloaded) == selection_probability(s)
            assert forced_values(reloaded) == forced_values(s)
            a = enumerate_assignments(s, forced_values(s))
            b = enumerate_assignments(reloaded, forced_values(reloaded))
            assert a == b
            assert contradiction_trace(reloaded) == contradiction_trace(s)
            for ctx_a, ctx_b in zip(s.contexts, reloaded.contexts):
                assert ctx_a == ctx_b
