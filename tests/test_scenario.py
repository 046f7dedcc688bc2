"""Tests for the scenario model, validation, and the file format."""

import dataclasses
import json

import numpy as np
import pytest

from qpp import (
    Context,
    ForcedValue,
    LabeledProjector,
    PrePostScenario,
    ScenarioParseError,
    StateVector,
    ValueAssignment,
    cabello_scenario,
    hardy_scenario,
    load,
    save,
    single_qubit_scenario,
    validate,
)


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


class TestModel:
    def test_labeled_projector_rejects_empty_label(self):
        with pytest.raises(ValueError):
            LabeledProjector("", StateVector([1.0, 0.0]))

    def test_context_needs_two_members(self):
        with pytest.raises(ValueError):
            Context(("only",))

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
        "change",
        [
            {"dim": 2.0},
            {"dim": np.int64(2)},
            {"exclusive_pairs": (("up", ""),)},
            {"exclusive_pairs": ((1, 2),)},
        ],
        ids=["float-dim", "numpy-dim", "empty-pair-label", "non-string-pair"],
    )
    def test_scenario_rejects_what_save_cannot_round_trip(self, change):
        """save would raise, or write bytes that load rejects or reads differently."""
        with pytest.raises(ValueError, match="dim must be an integer|exclusive pair"):
            dataclasses.replace(tiny_scenario(), **change)

    def test_projector_map_first_wins(self):
        s = tiny_scenario()
        dup = PrePostScenario(
            dim=2,
            pre=s.pre,
            post=s.post,
            projectors=(s.projectors[0], LabeledProjector("up", StateVector([0.0, 1.0]))),
            contexts=(),
        )
        assert dup.projector_map()["up"] is dup.projectors[0]

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


class TestValidate:
    def test_builtin_scenarios_pass(self):
        for s in (cabello_scenario(), hardy_scenario(0.7, 1.1), single_qubit_scenario(2, 9)):
            report = validate(s)
            assert report.passed, [c.name for c in report.failures()]

    def test_check_names(self):
        names = [c.name for c in validate(cabello_scenario()).checks]
        assert names[:4] == [
            "labels_unique",
            "labels_resolve",
            "states_normalized",
            "postselection_possible",
        ]
        assert "context_resolution[0]" in names
        assert "context_resolution[1]" in names
        assert "exclusive_pair[delta+,delta-]" in names

    def test_duplicate_labels_flagged(self):
        s = tiny_scenario()
        dup = PrePostScenario(
            dim=2, pre=s.pre, post=s.post,
            projectors=(s.projectors[0], s.projectors[0]),
            contexts=(),
        )
        report = validate(dup)
        fail = next(c for c in report.checks if c.name == "labels_unique")
        assert not fail.passed and "up" in fail.detail

    def test_dangling_labels_flagged(self):
        s = tiny_scenario()
        dangling = PrePostScenario(
            dim=2, pre=s.pre, post=s.post,
            projectors=s.projectors,
            contexts=(Context(("up", "ghost")),),
            exclusive_pairs=(("up", "phantom"),),
        )
        report = validate(dangling)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["labels_resolve"].passed
        assert "ghost" in by_name["labels_resolve"].detail
        assert not by_name["context_resolution[0]"].passed
        assert by_name["context_resolution[0]"].deviation is None
        assert not by_name["exclusive_pair[up,phantom]"].passed

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


class TestSaveLoad:
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

    def test_output_shape(self):
        doc = json.loads(save(tiny_scenario()))
        assert list(doc) == ["dim", "metadata", "pre", "post", "projectors",
                             "contexts", "exclusive_pairs"]
        assert doc["pre"][0] == [np.cos(0.3), 0.0]


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

    def test_context_errors(self):
        doc = self.base_doc()
        doc["contexts"] = [["up"]]
        with pytest.raises(ScenarioParseError, match=r"contexts\[0\]"):
            load(self.dump(doc))
        doc["contexts"] = [["up", 3]]
        with pytest.raises(ScenarioParseError, match=r"contexts\[0\]"):
            load(self.dump(doc))

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
