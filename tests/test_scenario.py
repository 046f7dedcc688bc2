"""Tests for the scenario model, validation, and the file format."""

import dataclasses
import importlib.util
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_deviation_oracle, ks18_scenario, random_structures, witness_heavy_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from qpp import (
    TOL_CHECK,
    Context,
    ForcedValue,
    LabeledProjector,
    PrePostScenario,
    ScenarioParseError,
    StateVector,
    ValueAssignment,
    cabello_family,
    cabello_scenario,
    hardy_scenario,
    load,
    save,
    single_qubit_scenario,
    validate,
)
from qpp.hilbert import context_deviations, row_norms


def qubit(theta):
    return StateVector([np.cos(theta), np.sin(theta)])


def tiny_scenario(post=None):
    """Minimal dim-2 scenario with one complete context."""
    e0, e1 = StateVector([1.0, 0.0]), StateVector([0.0, 1.0])
    return PrePostScenario(
        dim=2,
        pre=qubit(0.3),
        post=post if post is not None else qubit(1.1),
        projectors=(LabeledProjector("up", e0), LabeledProjector("down", e1)),
        contexts=(Context(("up", "down")),),
    )


# Labels must be nonempty strings and bits the ints 0 or 1.
_WRONG_LABEL_BITS = [(5, 1), ("", 1), (None, 0), ("a", True), ("a", False), ("a", 1.0),
                     ("a", np.int64(1))]
_WRONG_LABEL_BIT_IDS = ["int-label", "empty-label", "none-label", "bool-true", "bool-false",
                        "float-one", "numpy-bit"]


class TestModel:
    def test_labeled_projector_rejects_empty_label(self):
        with pytest.raises(ValueError):
            LabeledProjector("", StateVector([1.0, 0.0]))
        with pytest.raises(ValueError, match="StateVector"):
            LabeledProjector("x", [1, 0])

    def test_context_needs_two_members(self):
        with pytest.raises(ValueError):
            Context(("only",))
        with pytest.raises(ValueError, match="tuple or list"):
            Context("ab")  # a string is not a list of two one-letter labels

    def test_scenario_checks_dimensions(self):
        with pytest.raises(ValueError):
            PrePostScenario(
                dim=2,
                pre=StateVector([1.0, 0.0]),
                post=StateVector([1.0, 0.0, 0.0]),
                projectors=(),
                contexts=(),
            )
        with pytest.raises(ValueError):
            PrePostScenario(
                dim=3,
                pre=StateVector([1.0, 0.0, 0.0]),
                post=StateVector([0.0, 1.0, 0.0]),
                projectors=(LabeledProjector("p", StateVector([1.0, 0.0])),),
                contexts=(),
            )

    def test_scenario_rejects_non_string_metadata_value(self):
        """load refuses such a value, so save must never write one."""
        with pytest.raises(ValueError, match="metadata"):
            dataclasses.replace(tiny_scenario(), metadata={"grid": 64})

    def test_scenario_rejects_non_string_metadata_key(self):
        """save would write the key as a string, and load would change it."""
        with pytest.raises(ValueError, match="metadata"):
            dataclasses.replace(tiny_scenario(), metadata={1: "x"})

    @pytest.mark.parametrize(
        "change, location",
        [
            ({"dim": 2.0}, "dim"),
            ({"dim": np.int64(2)}, "dim"),
            ({"exclusive_pairs": (("up", ""),)}, "exclusive_pairs[0]"),
            ({"exclusive_pairs": ((1, 2),)}, "exclusive_pairs[0]"),
            ({"contexts": (("up", "down"),)}, "contexts[0]"),
            ({"projectors": ("up", "down")}, "projectors[0]"),
            ({"metadata": ["ab"]}, "metadata"),
            ({"pre": [1.0, 0.0]}, "pre"),
        ],
        ids=["float-dim", "numpy-dim", "empty-pair-label", "non-string-pair", "raw-context",
             "string-projectors", "list-metadata", "raw-pre"],
    )
    def test_scenario_rejects_what_save_cannot_round_trip(self, change, location):
        """save would raise, or write bytes that load rejects or reads differently."""
        rules = "dim must be an integer|exclusive pair|expected a"
        with pytest.raises(ValueError, match=rules) as info:
            dataclasses.replace(tiny_scenario(), **change)
        assert info.value.location == location

    def test_projector_map_has_one_entry_per_label(self):
        """Labels are distinct by construction, so no projector is shadowed."""
        s = cabello_scenario()
        assert list(s.rows) == s.labels()
        assert len(set(s.rows.values())) == len(s.projectors)
        assert all(s.projectors[s.rows[p.label]] is p for p in s.projectors)

    def test_forced_value_validation(self):
        with pytest.raises(ValueError):
            ForcedValue("x", 2, "Prediction")
        with pytest.raises(ValueError):
            ForcedValue("x", 0, "Guess")

    def test_value_assignment_round_trip(self):
        a = ValueAssignment((("b", 1), ("a", 0)))
        assert a.values == (("a", 0), ("b", 1))
        assert a.as_dict() == {"a": 0, "b": 1}
        assert a["b"] == 1
        with pytest.raises(KeyError):
            a["missing"]

    def test_value_assignment_rejects_duplicates_and_bad_bits(self):
        with pytest.raises(ValueError):
            ValueAssignment((("a", 0), ("a", 1)))
        with pytest.raises(ValueError):
            ValueAssignment((("a", 2),))

    @pytest.mark.parametrize("label, bit", _WRONG_LABEL_BITS + [("a", 1.7)],
                             ids=_WRONG_LABEL_BIT_IDS + ["float-bit"])
    def test_value_assignment_refuses_instead_of_coercing(self, label, bit):
        """((5, 1.7),) must not become (('5', 1),)."""
        with pytest.raises(ValueError, match="label must be|bit must be"):
            ValueAssignment((("ok", 0), (label, bit)))

    @pytest.mark.parametrize("label, bit", _WRONG_LABEL_BITS, ids=_WRONG_LABEL_BIT_IDS)
    def test_forced_value_refuses_what_value_assignment_refuses(self, label, bit):
        with pytest.raises(ValueError, match="label must be|bit must be"):
            ForcedValue(label, bit, "Prediction")


class TestStateMatrix:
    def test_rows_are_the_projector_states(self):
        s = cabello_scenario()
        assert s.states.shape == (len(s.projectors), s.dim)
        assert s.states.dtype == np.complex128
        assert list(s.rows) == s.labels()
        for p in s.projectors:
            assert np.array_equal(s.states[s.rows[p.label]], p.state.amps)

    def test_empty_scenario_has_an_empty_matrix(self):
        s = dataclasses.replace(tiny_scenario(), projectors=(), contexts=())
        assert s.states.shape == (0, 2)
        assert dict(s.rows) == {}

    def test_matrix_and_index_reject_writes(self):
        s = tiny_scenario()
        with pytest.raises(ValueError, match="read-only"):
            s.states[0, 0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.states = np.zeros((2, 2))
        with pytest.raises(TypeError):
            s.rows["up"] = 1

    def test_equality_and_repr_ignore_the_matrix(self):
        s = tiny_scenario()
        twin = dataclasses.replace(s)
        assert twin.states is not s.states
        object.__setattr__(twin, "states", np.zeros((2, 2)))
        assert twin == s
        assert repr(twin) == repr(s)
        assert "states=" not in repr(s) and "rows=" not in repr(s)
        assert [f.name for f in dataclasses.fields(PrePostScenario)] == [
            "dim", "pre", "post", "projectors", "contexts", "exclusive_pairs", "metadata",
        ]


def normalization_oracle(s):
    """states_normalized measured afresh: one row_norms call over a new
    [pre, post, states] stack, the worst row its first argmax."""
    deviations = np.abs(row_norms(np.vstack((s.pre.amps, s.post.amps, s.states))) - 1.0)
    worst = int(deviations.argmax())
    name = ("pre", "post")[worst] if worst < 2 else f"projector {s.projectors[worst - 2].label!r}"
    return float(deviations[worst]), f"worst: {name}"


def assert_block_and_norms(s):
    """The stored deviations are the fresh ones to the bit, and s.states is
    the read-only (n, dim) matrix of the projector states."""
    check = validate(s).checks[0]
    deviation, detail = normalization_oracle(s)
    assert check.name == "states_normalized" and check.detail == detail
    assert np.float64(check.deviation).tobytes() == np.float64(deviation).tobytes()
    assert s.states.shape == (len(s.projectors), s.dim) and s.states.dtype == np.complex128
    assert not s.states.flags.writeable
    with pytest.raises(ValueError, match="WRITEABLE"):
        s.states.flags.writeable = True
    for row, p in zip(s.states, s.projectors):
        assert row.tobytes() == p.state.amps.tobytes()


def _perfbench_workloads():
    """perfbench/workloads.py, imported by path: perfbench is not a package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


class TestScenarioBlock:
    """One stack per scenario and one norm per state, checked against a
    fresh stack and a fresh row_norms call."""

    @settings(max_examples=200, deadline=None)
    @given(case=random_structures())
    def test_random_structures(self, case):
        assert_block_and_norms(case[0])

    @settings(max_examples=200, deadline=None)
    @given(case=random_structures(), tol=st.sampled_from([1e-12, 1e-6, 5e-4]),
           scales=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=14))
    def test_states_built_with_a_loose_norm_tolerance(self, case, tol, scales):
        """Off-norm states with ties and near-ties between their deviations."""
        s = case[0]
        scales = iter(scales * 14)

        def off(sv):
            return StateVector(sv.amps * (1.0 + tol * next(scales)), tol_norm=1e-3)

        assert_block_and_norms(dataclasses.replace(
            s, pre=off(s.pre), post=off(s.post),
            projectors=tuple(LabeledProjector(p.label, off(p.state)) for p in s.projectors),
        ))

    @pytest.mark.parametrize("build", [
        cabello_scenario,
        lambda: hardy_scenario(0.7, 1.1),
        lambda: single_qubit_scenario(5, 3),
        lambda: cabello_family(0.4, 0.6).scenario,
        lambda: ks18_scenario(),
        lambda: witness_heavy_scenario(4, seed=2),
        lambda: dataclasses.replace(tiny_scenario(), projectors=(), contexts=()),
    ], ids=["cabello", "hardy", "single-qubit", "family", "ks18", "witness-heavy", "empty"])
    def test_constructions(self, build):
        s = build()
        assert_block_and_norms(s)
        assert_block_and_norms(load(save(s)))

    @pytest.mark.parametrize("workload", ["verify-mix", "enumerate-wide"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_cases_round_trip(self, workload, seed, tmp_path):
        """save(load(b)) == b for every scenario the benchmark builders write."""
        cases = _perfbench_workloads().build(workload, seed, "full", tmp_path, {}).cases
        for case in cases:
            s = load(case.payload)
            assert save(s) == case.payload, case.kind
            assert_block_and_norms(s)


@st.composite
def mixed_context_scenarios(draw):
    """dim 2-4 scenarios whose contexts have 2 to dim + 2 members, at least
    two sizes at once: complete, incomplete (fewer members than dim) and
    over-full ones.  The first dim labels form an orthonormal basis, so
    some contexts resolve the identity."""
    dim = draw(st.integers(2, 4))
    n = draw(st.integers(dim + 1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))

    def random_state():
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return StateVector(v / np.linalg.norm(v))

    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    states = [StateVector(q[:, i]) for i in range(dim)] + [random_state() for _ in range(n - dim)]
    labels = [f"p{i}" for i in range(n)]
    sizes = [2, 3] + draw(st.lists(st.integers(2, min(n, dim + 2)), max_size=5))
    contexts = []
    for k in draw(st.permutations(sizes)):
        members = draw(st.lists(st.sampled_from(labels), min_size=k, max_size=k, unique=True))
        contexts.append(Context(tuple(members)))
    return PrePostScenario(
        dim=dim, pre=random_state(), post=random_state(),
        projectors=tuple(LabeledProjector(lab, state) for lab, state in zip(labels, states)),
        contexts=tuple(contexts),
    )


class TestValidate:
    @settings(max_examples=300, deadline=None)
    @given(s=mixed_context_scenarios())
    def test_batched_deviations_equal_one_context_at_a_time(self, s):
        """Exact equality with a one-context call, not approx: grouping by
        size changes no bit.  The dense projector sum agrees within rounding."""
        measured = {c.name: c.deviation for c in validate(s).checks}
        for i, ctx in enumerate(s.contexts):
            stack = s.states[[s.rows[m] for m in ctx.members]]
            dev = measured[f"context_resolution[{i}]"]
            assert dev == float(context_deviations(stack[None])[0])
            dense, bound = dense_deviation_oracle(stack)
            assert abs(dev - dense) <= bound

    @settings(max_examples=300, deadline=None)
    @given(s=mixed_context_scenarios(), scale=st.sampled_from([0.0, 1e-13, 1e-10, 1e-6]),
           seed=st.integers(0, 2**31 - 1))
    def test_normalization_equals_the_per_state_formula(self, s, scale, seed):
        """Exact equality with one np.linalg.norm per state, worst name included."""
        rng = np.random.default_rng(seed)

        def perturbed(sv):
            return StateVector(sv.amps * (1.0 + scale * rng.uniform(-1, 1)), tol_norm=1e-3)

        s = dataclasses.replace(
            s, pre=perturbed(s.pre), post=perturbed(s.post),
            projectors=tuple(LabeledProjector(p.label, perturbed(p.state)) for p in s.projectors),
        )
        named = [("pre", s.pre), ("post", s.post)]
        named += [(f"projector {p.label!r}", p.state) for p in s.projectors]
        measured = [(name, abs(float(np.linalg.norm(sv.amps)) - 1.0)) for name, sv in named]
        worst_name, worst_dev = max(measured, key=lambda item: item[1])
        check = validate(s).checks[0]
        assert check.name == "states_normalized"
        assert (check.deviation, check.detail) == (worst_dev, f"worst: {worst_name}")

    def test_builtin_scenarios_pass(self):
        for s in (cabello_scenario(), hardy_scenario(0.7, 1.1), single_qubit_scenario(2, 9)):
            report = validate(s)
            assert report.passed, [c.name for c in report.failures()]

    def test_check_names(self):
        names = [c.name for c in validate(cabello_scenario()).checks]
        assert names == [
            "states_normalized",
            "postselection_possible",
            "context_resolution[0]",
            "context_resolution[1]",
            "exclusive_pair[delta+,delta-]",
        ]

    def test_duplicate_labels_flagged(self):
        """Refused at construction, naming the node, so validate never sees one."""
        s = tiny_scenario()
        with pytest.raises(ValueError, match=r"^projectors\[1\]: duplicate label 'up'$"):
            dataclasses.replace(s, projectors=(s.projectors[0], s.projectors[0]), contexts=())

    def test_dangling_labels_flagged(self):
        """Refused at construction, naming the context or pair."""
        s = tiny_scenario()
        with pytest.raises(ValueError, match=r"^contexts\[0\]: .*unknown label 'ghost'$"):
            dataclasses.replace(s, contexts=(Context(("up", "ghost")),))
        with pytest.raises(ValueError, match=r"^exclusive_pairs\[0\]: .*unknown label 'phantom'$"):
            dataclasses.replace(s, exclusive_pairs=(("up", "phantom"),))

    def test_impossible_postselection_flagged(self):
        s = tiny_scenario(post=StateVector([-np.sin(0.3), np.cos(0.3)]))
        report = validate(s)
        fail = next(c for c in report.checks if c.name == "postselection_possible")
        assert not fail.passed
        assert fail.deviation < 1e-12

    def test_missing_rank_reads_as_deviation_one(self):
        """Dropping one member of a resolution leaves a rank-1 hole."""
        cab = cabello_scenario()
        s = PrePostScenario(
            dim=4, pre=cab.pre, post=cab.post,
            projectors=cab.projectors,
            contexts=(Context(("alpha", "beta+", "gamma+")),),
        )
        report = validate(s)
        fail = next(c for c in report.checks if c.name == "context_resolution[0]")
        assert not fail.passed
        assert fail.deviation == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim, n", [(1000, 1), (64, 2000)],
                             ids=["one_context_at_dim_1000", "2000_contexts_at_dim_64"])
    def test_memory_is_bounded(self, dim, n):
        """n incomplete contexts (e0, e1) read exactly 1.0 each within 16 MiB,
        which a dim x dim array per context would exceed (38 and 255 MiB)."""
        e = StateVector(np.eye(dim)[0]), StateVector(np.eye(dim)[1])
        s = PrePostScenario(
            dim=dim, pre=e[0], post=e[0],
            projectors=tuple(LabeledProjector(f"{x}{i}", e[j]) for i in range(n) for j, x in enumerate("ab")),
            contexts=tuple(Context((f"a{i}", f"b{i}")) for i in range(n)),
        )
        tracemalloc.start()
        try:
            report = validate(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.deviation for c in report.checks[2:]] == [1.0] * n
        assert peak < 16 * 2**20

    def test_nonexclusive_pair_flagged(self):
        s = tiny_scenario()
        bad = PrePostScenario(
            dim=2, pre=s.pre, post=s.post,
            projectors=s.projectors + (LabeledProjector("tilted", qubit(0.4)),),
            contexts=s.contexts,
            exclusive_pairs=(("up", "tilted"),),
        )
        report = validate(bad)
        fail = next(c for c in report.checks if c.name == "exclusive_pair[up,tilted]")
        assert not fail.passed
        assert fail.deviation > 0.1

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_outside_open_interval_is_refused(self, tol):
        """Refused as the caller's error, not reported as failed checks of a valid scenario."""
        with pytest.raises(ValueError, match=r"^tol must be positive and finite"):
            validate(cabello_scenario(), tol)


def json_dumps_save(s):
    """The save oracle: the document built field by field and json's indent=2 encoder."""
    def amps(sv):
        return [[float(z.real), float(z.imag)] for z in sv.amps.tolist()]

    doc = {
        "dim": s.dim,
        "metadata": dict(s.metadata),
        "pre": amps(s.pre),
        "post": amps(s.post),
        "projectors": [{"label": p.label, "state": amps(p.state)} for p in s.projectors],
        "contexts": [list(ctx.members) for ctx in s.contexts],
        "exclusive_pairs": [list(pair) for pair in s.exclusive_pairs],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# Unit qubit states with negative zeros and subnormal or tiny components.
_EDGE_STATES = [
    [1.0, -0.0],
    [complex(-0.0, -0.0), complex(0.0, 1.0)],
    [complex(-1.0, 0.0), complex(5e-324, -0.0)],
    [complex(1.0, -1e-300), complex(-2.5e-310, 1e-320)],
    [complex(0.6, -0.0), complex(-0.0, -0.8)],
]

# Any text but surrogates: control characters, quotes, backslashes, non-ASCII.
_any_text = st.text(max_size=5)


@st.composite
def saveable_scenarios(draw):
    """random_structures with control-character and non-ASCII labels and
    metadata, empty metadata and pairs, and edge-case amplitudes."""
    s, _ = draw(random_structures())
    labels = s.labels()
    if draw(st.booleans()):
        new = draw(st.lists(_any_text.filter(bool), min_size=len(labels),
                            max_size=len(labels), unique=True))
        name = dict(zip(labels, new))
        s = dataclasses.replace(
            s,
            projectors=tuple(LabeledProjector(name[p.label], p.state) for p in s.projectors),
            contexts=tuple(Context(tuple(name[m] for m in c.members)) for c in s.contexts),
            exclusive_pairs=tuple((name[a], name[b]) for a, b in s.exclusive_pairs),
        )
    metadata = st.dictionaries(_any_text, _any_text, max_size=3)
    edge = st.sampled_from(_EDGE_STATES).map(StateVector)
    return dataclasses.replace(
        s,
        pre=draw(st.one_of(st.just(s.pre), edge)),
        post=draw(st.one_of(st.just(s.post), edge)),
        projectors=tuple(
            LabeledProjector(p.label, draw(st.one_of(st.just(p.state), edge)))
            for p in s.projectors
        ),
        exclusive_pairs=draw(st.sampled_from([(), s.exclusive_pairs])),
        metadata=draw(st.one_of(st.just({}), st.just(s.metadata), metadata)),
    )


class TestSaveLoad:
    @settings(max_examples=300, deadline=None)
    @given(s=saveable_scenarios())
    def test_save_writes_the_json_encoder_bytes(self, s):
        assert save(s) == json_dumps_save(s)

    def test_save_of_an_empty_scenario(self):
        s = dataclasses.replace(tiny_scenario(), projectors=(), contexts=(), metadata={})
        assert save(s) == json_dumps_save(s)
        assert b'"projectors": [],' in save(s)

    def test_round_trip_is_byte_idempotent(self):
        for s in (cabello_scenario(), hardy_scenario(0.8, 0.6), single_qubit_scenario(3, 4)):
            blob = save(s)
            again = save(load(blob))
            assert blob == again

    def test_round_trip_preserves_amplitudes_exactly(self):
        s = cabello_scenario()
        s2 = load(save(s))
        assert np.array_equal(s.pre.amps, s2.pre.amps)
        assert np.array_equal(s.post.amps, s2.post.amps)
        for a, b in zip(s.projectors, s2.projectors):
            assert a.label == b.label
            assert np.array_equal(a.state.amps, b.state.amps)
        assert s2.exclusive_pairs == s.exclusive_pairs
        assert s2.metadata == s.metadata

    @settings(max_examples=200, deadline=None)
    @given(case=random_structures())
    def test_every_constructible_scenario_round_trips(self, case):
        """Labels and metadata include non-ASCII text; StateVector equality
        is np.array_equal of the amplitudes."""
        s, _ = case
        blob = save(s)
        back = load(blob)
        assert save(back) == blob
        for f in dataclasses.fields(PrePostScenario):
            assert getattr(back, f.name) == getattr(s, f.name), f.name

    def test_output_shape(self):
        doc = json.loads(save(tiny_scenario()))
        assert list(doc) == ["dim", "metadata", "pre", "post", "projectors",
                             "contexts", "exclusive_pairs"]
        assert doc["pre"][0] == [np.cos(0.3), 0.0]


def reference_load(data):
    """The load oracle: json.loads, one StateVector per state node and the
    constructors; unknown projector fields are skipped, as under lax."""
    doc = json.loads(data)

    def state(node):
        return StateVector([complex(re, im) for re, im in node], TOL_CHECK)

    return PrePostScenario(
        dim=doc["dim"], pre=state(doc["pre"]), post=state(doc["post"]),
        projectors=tuple(LabeledProjector(p["label"], state(p["state"])) for p in doc["projectors"]),
        contexts=tuple(Context(members) for members in doc["contexts"]),
        exclusive_pairs=tuple(map(tuple, doc.get("exclusive_pairs", []))),
        metadata=doc.get("metadata", {}),
    )


def assert_loads_as_reference(data, lax):
    """Same scenario, block bytes (signed zeros included), norm deviations and save output."""
    got, want = load(data, lax=lax), reference_load(data)
    assert got == want
    assert got._block.tobytes() == want._block.tobytes()
    states = [got.pre, got.post, *(p.state for p in got.projectors)]
    expected = [want.pre, want.post, *(p.state for p in want.projectors)]
    assert [sv._dev for sv in states] == [sv._dev for sv in expected]
    assert save(got) == save(want)


@st.composite
def hand_written_files(draw):
    """A saved scenario rewritten by hand: whole amplitudes as integers,
    zeros as -0.0, an unknown projector field (loaded with lax), compact or
    indented layout.  Returns (bytes, lax)."""
    doc = json.loads(save(draw(saveable_scenarios())))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ints, negative_zeros = draw(st.booleans()), draw(st.booleans())
    for node in [doc["pre"], doc["post"], *(p["state"] for p in doc["projectors"])]:
        for pair in node:
            for j, x in enumerate(pair):
                if negative_zeros and x == 0 and rng.random() < 0.5:
                    pair[j] = -0.0
                elif ints and x.is_integer() and rng.random() < 0.5:
                    pair[j] = int(x)
    lax = bool(doc["projectors"]) and draw(st.booleans())
    if lax:
        doc["projectors"][draw(st.integers(0, len(doc["projectors"]) - 1))]["note"] = "by hand"
    layout = draw(st.sampled_from([{"separators": (",", ":")}, {"indent": 1}, {}]))
    return json.dumps(doc, ensure_ascii=draw(st.booleans()), **layout).encode(), lax


class TestLoadAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(s=saveable_scenarios())
    def test_saved_files(self, s):
        assert_loads_as_reference(save(s), lax=False)

    @settings(max_examples=300, deadline=None)
    @given(case=hand_written_files())
    def test_hand_written_files(self, case):
        assert_loads_as_reference(*case)


class TestLoadErrors:
    def base_doc(self):
        return json.loads(save(tiny_scenario()))

    def dump(self, doc):
        return json.dumps(doc).encode()

    def test_syntax_error_reports_position(self):
        with pytest.raises(ScenarioParseError, match=r"line 1 column"):
            load(b"{not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ScenarioParseError, match="object"):
            load(b"[1, 2]")

    def test_missing_field(self):
        doc = self.base_doc()
        del doc["post"]
        with pytest.raises(ScenarioParseError, match="post"):
            load(self.dump(doc))

    def test_unknown_field_strict_vs_lax(self):
        doc = self.base_doc()
        doc["comment"] = "hand written"
        with pytest.raises(ScenarioParseError, match="comment"):
            load(self.dump(doc))
        s = load(self.dump(doc), lax=True)
        assert s.dim == 2

    def test_unknown_projector_field_strict_vs_lax(self):
        doc = self.base_doc()
        doc["projectors"][0]["note"] = "?"
        with pytest.raises(ScenarioParseError, match=r"projectors\[0\].*note"):
            load(self.dump(doc))
        load(self.dump(doc), lax=True)

    def test_bad_dim(self):
        doc = self.base_doc()
        for bad in (True, 1.5, 1, "2"):
            doc["dim"] = bad
            with pytest.raises(ScenarioParseError, match="dim"):
                load(self.dump(doc))

    def test_wrong_amplitude_count(self):
        doc = self.base_doc()
        doc["pre"] = [[1.0, 0.0]]
        with pytest.raises(ScenarioParseError, match="pre"):
            load(self.dump(doc))

    def test_amplitude_must_be_pair_of_numbers(self):
        doc = self.base_doc()
        doc["pre"][0] = [1.0]
        with pytest.raises(ScenarioParseError, match=r"pre\[0\]"):
            load(self.dump(doc))
        doc = self.base_doc()
        doc["pre"][0] = [True, 0.0]
        with pytest.raises(ScenarioParseError, match=r"pre\[0\]"):
            load(self.dump(doc))

    @pytest.mark.parametrize("node, location, message", [
        ([[1.0, "0.5"], [0.0, 0.0]], "pre[0]", "expected a number, got '0.5'"),
        ([[1.0, None], [0.0, 0.0]], "pre[0]", "expected a number, got None"),
        ([[1.0, False], [0.0, 0.0]], "pre[0]", "expected a number, got False"),
        ([[1.0, 0.0], [0.0, 0.0, 0.0]], "pre[1]", "amplitude must be a [re, im] pair"),
        ({"re": 1.0}, "pre", "state must be an array of [re, im] pairs"),
        ([], "pre", "dimension must be at least 2, got 0"),
        ([[1, 0]], "pre", "dimension must be at least 2, got 1"),
    ], ids=["numeric-string", "null", "false", "three-element-pair", "not-a-list", "empty",
            "one-amplitude"])
    def test_state_node_refusals(self, node, location, message):
        doc = self.base_doc()
        doc["pre"] = node
        with pytest.raises(ScenarioParseError) as info:
            load(self.dump(doc))
        assert (info.value.location, info.value.reason) == (location, message)

    def test_projector_of_another_dimension(self):
        """A ragged file gets a block per length and reaches the constructor's rule."""
        doc = self.base_doc()
        doc["projectors"][1]["state"] = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ScenarioParseError, match="has dimension 3, expected 2") as info:
            load(self.dump(doc))
        assert info.value.location == "projectors[1]"

    @pytest.mark.parametrize("amplitude", ["2.0", "1e999"], ids=["unnormalized", "overflow"])
    def test_bad_projector_after_good_ones_names_its_node(self, amplitude):
        doc = json.loads(save(cabello_scenario()))
        doc["projectors"][4]["state"][0] = ["BAD", 0.0]
        text = json.dumps(doc).replace('"BAD"', amplitude)
        with pytest.raises(ScenarioParseError) as info:
            load(text)
        label = doc["projectors"][4]["label"]
        assert info.value.location == f"projectors[4].state ({label!r})"

    def test_first_bad_node_is_named_across_blocks(self):
        """Bad rows in two blocks: the node that comes first in the file is named."""
        doc = self.base_doc()
        doc["projectors"][1]["state"] = [[0.5, 0.0], [0.5, 0.0]]
        doc["post"] = [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]
        with pytest.raises(ScenarioParseError, match="norm deviates") as info:
            load(self.dump(doc))
        assert info.value.location == "post"

    def test_integer_beyond_float_range(self):
        doc = self.base_doc()
        doc["pre"][0] = [0.0, 10**400]
        with pytest.raises(ScenarioParseError, match="out of the float range") as info:
            load(self.dump(doc))
        assert info.value.location == "pre[0]"

    @pytest.mark.parametrize("text", [
        '{"dim": 1' + "0" * 5000 + "}",
        "[" * 100000,
    ], ids=["integer-digit-limit", "deep-nesting"])
    def test_decoder_limits_are_parse_errors(self, text):
        with pytest.raises(ScenarioParseError):
            load(text)

    def test_non_finite_literals_rejected(self):
        doc = self.base_doc()
        text = json.dumps(doc).replace(str(doc["pre"][0][0]), "NaN", 1)
        with pytest.raises(ScenarioParseError, match="NaN"):
            load(text)

    def test_duplicate_label_location(self):
        doc = self.base_doc()
        doc["projectors"][1]["label"] = "up"
        with pytest.raises(ScenarioParseError, match=r"projectors\[1\].*up"):
            load(self.dump(doc))

    def test_unnormalized_state_names_projector(self):
        doc = self.base_doc()
        doc["projectors"][1]["state"] = [[0.5, 0.0], [0.5, 0.0]]
        with pytest.raises(ScenarioParseError, match=r"projectors\[1\]\.state \('down'\)"):
            load(self.dump(doc))

    def test_norm_tolerance_is_configurable(self):
        doc = self.base_doc()
        doc["pre"] = [[np.cos(0.3) * (1 + 1e-6), 0.0], [np.sin(0.3), 0.0]]
        with pytest.raises(ScenarioParseError):
            load(self.dump(doc))
        s = load(self.dump(doc), tol_check=1e-3)
        assert s.dim == 2
        with pytest.raises(ValueError, match="tol must be positive and finite, got nan") as info:
            load(self.dump(doc), tol_check=float("nan"))
        assert not isinstance(info.value, ScenarioParseError)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_tolerance_outside_the_open_interval_is_refused_before_parsing(self, tol):
        """The caller's tolerance is refused, as validate refuses it, and the
        file is not blamed: not even bytes that are no JSON are read."""
        for data in (self.dump(self.base_doc()), b"not json"):
            with pytest.raises(ValueError, match="tol must be positive and finite") as info:
                load(data, tol_check=tol)
            assert not isinstance(info.value, ScenarioParseError)

    def test_context_errors(self):
        doc = self.base_doc()
        doc["contexts"] = [["up"]]
        with pytest.raises(ScenarioParseError, match=r"contexts\[0\]"):
            load(self.dump(doc))
        doc["contexts"] = [["up", 3]]
        with pytest.raises(ScenarioParseError, match=r"contexts\[0\]"):
            load(self.dump(doc))

    @pytest.mark.parametrize("field, node, location, message", [
        ("contexts", [["up", "ghost"]], "contexts[0]",
         "context references unknown label 'ghost'"),
        ("contexts", [["up", "up", "down"]], "contexts[0]", "context repeats member 'up'"),
        ("exclusive_pairs", [["up", "ghost"]], "exclusive_pairs[0]",
         "exclusive pair references unknown label 'ghost'"),
        ("exclusive_pairs", [["up", "up"]], "exclusive_pairs[0]",
         "exclusive pair repeats label 'up'"),
        ("projectors", {"up": [[1.0, 0.0], [0.0, 0.0]]}, "projectors",
         "projectors must be an array"),
        ("projectors", ["up"], "projectors[0]", "projector must be an object"),
        ("projectors", [{"label": "up"}], "projectors[0]", "missing field(s): state"),
        ("contexts", {"up": "down"}, "contexts", "contexts must be an array"),
        ("metadata", ["name", "tiny"], "metadata", "metadata must be an object"),
    ], ids=["dangling-context-label", "repeated-member", "dangling-pair-label", "self-pair",
            "projectors-not-array", "projector-not-object", "projector-without-state",
            "contexts-not-array", "metadata-not-object"])
    def test_structure_errors_name_the_node(self, field, node, location, message):
        doc = self.base_doc()
        doc[field] = node
        with pytest.raises(ScenarioParseError) as info:
            load(self.dump(doc))
        assert (info.value.location, info.value.reason) == (location, message)

    def test_exclusive_pair_arity(self):
        doc = self.base_doc()
        doc["exclusive_pairs"] = [["up", "down", "up"]]
        with pytest.raises(ScenarioParseError, match=r"exclusive_pairs\[0\]"):
            load(self.dump(doc))
        for node in (5, None):
            doc["exclusive_pairs"] = node
            with pytest.raises(ScenarioParseError, match="exclusive_pairs must be an array") as info:
                load(self.dump(doc))
            assert info.value.location == "exclusive_pairs"

    def test_metadata_values_must_be_strings(self):
        doc = self.base_doc()
        doc["metadata"] = {"count": 3}
        with pytest.raises(ScenarioParseError, match="metadata.count"):
            load(self.dump(doc))

    def test_invalid_utf8(self):
        with pytest.raises(ScenarioParseError, match="UTF-8"):
            load(b"\xff\xfe{}")

    def test_location_attribute(self):
        try:
            load(b"{")
        except ScenarioParseError as exc:
            assert exc.location is not None
        else:
            pytest.fail("expected a parse error")


# Amplitudes load refuses, with the reason it gives.
_BAD_AMPLITUDES = [
    (True, "expected a number, got True"),
    ("0.5", "expected a number, got '0.5'"),
    (None, "expected a number, got None"),
    (10**400, "integer is out of the float range"),
]
_NORM_REASON = "norm deviates from 1 by {:.3e}, tolerance " + f"{TOL_CHECK:.1e}"


@st.composite
def corrupted_files(draw):
    """A saved random scenario with one or two nodes broken, one error class
    per node, and the (location, reason) README's precedence names first:
    state and projector shape in file order, then norms in file order, then
    the constructors' rules, duplicate labels before contexts."""
    s = draw(saveable_scenarios())
    doc = json.loads(save(s))
    projectors, contexts = doc["projectors"], doc["contexts"]
    nodes = ["pre", "post"] + [("projector", k) for k in range(len(projectors))]
    nodes += [("context", c) for c in range(len(contexts))]
    targets = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=2, unique=True))
    found = []
    for node in targets:
        if node in ("pre", "post") or node[0] == "projector" and draw(st.booleans()):
            if node in ("pre", "post"):
                state, where, rank = doc[node], node, ("pre", "post").index(node)
            else:
                k = node[1]
                state, rank = projectors[k]["state"], 2 + k
                where = f"projectors[{k}].state ({projectors[k]['label']!r})"
            j = draw(st.integers(0, len(state) - 1))
            kind = draw(st.sampled_from(["pair", "amplitude", "scaled", "padded"]))
            if kind == "pair":
                state[j].append(0.0)
                found.append(((0, rank), f"{where}[{j}]", "amplitude must be a [re, im] pair"))
            elif kind == "amplitude":
                value, reason = draw(st.sampled_from(_BAD_AMPLITUDES))
                state[j][draw(st.integers(0, 1))] = value
                found.append(((0, rank), f"{where}[{j}]", reason))
            elif kind == "scaled":  # norm 2
                state[:] = [[2 * x for x in pair] for pair in state]
                found.append(((1, rank), where, _NORM_REASON.format(1.0)))
            else:  # norm sqrt(2), in a block of its own length
                state.append([1.0, 0.0])
                found.append(((1, rank), where, _NORM_REASON.format(2**0.5 - 1)))
        elif node[0] == "projector":
            k = node[1]
            kinds = ["drop", "extra", "not-object"] + (["duplicate"] if k else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "drop":
                field = draw(st.sampled_from(["label", "state"]))
                del projectors[k][field]
                found.append(((0, 2 + k), f"projectors[{k}]", f"missing field(s): {field}"))
            elif kind == "extra":
                projectors[k]["note"] = "?"
                found.append(((0, 2 + k), f"projectors[{k}]", "unknown field 'note'"))
            elif kind == "not-object":
                projectors[k] = draw(st.sampled_from([[], "p", 3, None]))
                found.append(((0, 2 + k), f"projectors[{k}]", "projector must be an object"))
            else:
                label = s.projectors[draw(st.integers(0, k - 1))].label
                projectors[k]["label"] = label
                found.append(((2, 0, k), f"projectors[{k}]", f"duplicate label {label!r}"))
        else:
            c = node[1]
            ghost = "#" * (1 + max(len(label) for label in s.labels()))
            contexts[c][draw(st.integers(0, len(contexts[c]) - 1))] = ghost
            found.append(((2, 1, c), f"contexts[{c}]",
                          f"context references unknown label {ghost!r}"))
    _, location, reason = min(found)
    return json.dumps(doc, ensure_ascii=False).encode(), location, reason


class TestErrorPrecedence:
    @settings(max_examples=300, deadline=None)
    @given(case=corrupted_files())
    def test_first_bad_node_is_named(self, case):
        """Locations are formatted only when load fails, so this pins that
        each one still names the node README's precedence rule puts first."""
        data, location, reason = case
        with pytest.raises(ScenarioParseError) as info:
            load(data)
        assert (info.value.location, info.value.reason) == (location, reason)
        assert str(info.value) == f"{location}: {reason}"
