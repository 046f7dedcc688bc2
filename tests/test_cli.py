"""End-to-end tests for the command line interface.

Commands run in process through main(argv) so exit codes and output can
be asserted directly; one test runs the module entry point in a child
process.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import grid_scenario, ks18_scenario, witness_heavy_scenario

from qpp import nchv
from qpp import Context, LabeledProjector, PrePostScenario, StateVector, load, save
from qpp import cabello_scenario, forced_values, single_qubit_scenario
from qpp.cli import Check, Report, main
from qpp.optimizer import (
    DEFAULT_EXCLUSIVITY_TOL, DEFAULT_GRID, DEFAULT_REFINE_TOL, maximize_cabello_family, maximize_hardy,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "verify_cabello_golden.json"


def qubit(theta):
    return StateVector([np.cos(theta), np.sin(theta)])


def write_scenario(tmp_path, s, name="scenario.json"):
    path = tmp_path / name
    path.write_bytes(save(s))
    return str(path)


class TestVerifyCabello:
    def test_text_report(self, capsys):
        assert main(["verify", "cabello"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "selection_probability" in out
        assert "FAIL" not in out

    def test_json_matches_golden(self, capsys):
        assert main(["verify", "cabello", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == GOLDEN.read_text()

    def test_module_entry_point_matches_golden(self):
        """``python -m qpp.cli`` runs the command, not a silent import."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qpp.cli", "verify", "cabello", "--json"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == GOLDEN.read_bytes()

    def test_export_writes_loadable_scenario(self, tmp_path, capsys):
        target = tmp_path / "cabello.json"
        assert main(["verify", "cabello", "--export", str(target)]) == 0
        s = load(target.read_bytes())
        assert s.metadata["name"] == "cabello"
        assert main(["check", str(target)]) == 0
        assert "UNSAT" in capsys.readouterr().out

    def test_export_to_missing_directory_fails(self, tmp_path, capsys):
        target = tmp_path / "nodir" / "cabello.json"
        assert main(["verify", "cabello", "--export", str(target)]) == 3
        out, err = capsys.readouterr()
        assert out.endswith("overall: PASS\n")  # the export runs after the report
        assert err == f"qpp: export failed: [Errno 2] No such file or directory: '{target}'\n"


class TestVerifyHardy:
    def test_angles_pass(self, capsys):
        assert main(["verify", "hardy", "--theta-a", "0.9", "--theta-b", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "probability_below_bound" in out

    def test_degenerate_angles_exit_2(self, capsys):
        assert main(["verify", "hardy", "--theta-a", "0", "--theta-b", "0.5"]) == 2
        assert "degenerate configuration" in capsys.readouterr().err

    def test_missing_angles_exit_2(self, capsys):
        assert main(["verify", "hardy"]) == 2
        assert main(["verify", "hardy", "--theta-a", "0.4"]) == 2

    def test_conflicting_flags_exit_2(self, capsys):
        assert main(["verify", "hardy", "--optimal", "--theta-a", "0.4"]) == 2
        assert "--optimal" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--grid", "8"], ["--refine-tol", "-1"],
                                       ["--grid", "64", "--refine-tol", "1e-9"]])
    def test_search_flags_without_optimal_exit_2(self, capsys, flags):
        """--grid and --refine-tol tune the --optimal search; given alone,
        even at their defaults, they are refused, never silently ignored."""
        assert main(["verify", "hardy", "--theta-a", "0.5", "--theta-b", "0.6", *flags]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "qpp: verify hardy: --grid and --refine-tol apply only with --optimal\n"

    @pytest.mark.parametrize("flags, grid, refine_tol", [
        (["verify", "hardy", "--optimal", "--grid", "16"], 16, 1e-9),
        (["verify", "hardy", "--optimal", "--refine-tol", "1e-3"], 64, 1e-3),
        (["optimize", "hardy", "--refine-tol", "1e-3"], 64, 1e-3),
        (["optimize", "cabello-family", "--grid", "16"], 16, 1e-9),
    ])
    def test_optimal_search_defaults(self, capsys, flags, grid, refine_tol):
        """On verify hardy --optimal and on optimize, a search flag left
        out takes the library's default."""
        assert main([*flags, "--json"]) == 0
        details = json.loads(capsys.readouterr().out)["details"]
        assert (details["grid_resolution"], details["refine_tolerance"]) == (grid, refine_tol)

    @pytest.mark.parametrize("argv, golden", [
        (["--theta-a", "0.9", "--theta-b", "0.7"], "verify_hardy_golden.json"),
        (["--optimal", "--grid", "16"], "verify_hardy_optimal_golden.json"),
    ], ids=["angles", "optimal"])
    def test_json_matches_golden(self, capsys, argv, golden):
        assert main(["verify", "hardy", *argv, "--json"]) == 0
        out = capsys.readouterr()
        assert out.out == (DATA / golden).read_text()
        assert out.err == ""

    def test_optimal_mode(self, capsys):
        assert main(["verify", "hardy", "--optimal", "--grid", "16"]) == 0
        out = capsys.readouterr().out
        assert "optimal_probability" in out
        assert "overall: PASS" in out

    @pytest.mark.parametrize("argv, extra_checks, extra_details, failed", [
        (["--theta-a", "0.9", "--theta-b", "0.7"], [], [], []),
        (["--optimal", "--grid", "16"], ["optimal_probability"],
         ["evaluations", "grid_resolution", "refine_tolerance"], []),
        # A valid scenario whose coarse optimum misses the bound: a numerical failure.
        (["--optimal", "--grid", "16", "--refine-tol", "0.5"], ["optimal_probability"],
         ["evaluations", "grid_resolution", "refine_tolerance"], ["optimal_probability"]),
    ], ids=["angles", "optimal", "coarse-optimum"])
    def test_json_report_shape(self, capsys, argv, extra_checks, extra_details, failed):
        assert main(["verify", "hardy", *argv, "--json"]) == (4 if failed else 0)
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["artifact_version", "command", "checks", "overall", "details"]
        assert [c["name"] for c in doc["checks"]] == [
            "scenario_valid", "resolution_of_identity[0]", "resolution_of_identity[1]",
            "delta_pair_exclusive", "forced_values", "nchv_status", "assignments_examined",
            "contradiction_trace", *extra_checks, "probability_below_bound",
        ]
        assert [c["name"] for c in doc["checks"] if not c["pass"]] == failed
        assert doc["overall"] is (not failed)
        assert list(doc["details"]) == [
            "forced_values", "trace", "selection_probability", "theta_a", "theta_b",
            *extra_details,
        ]


class TestCheck:
    def test_satisfiable_file(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_qubit_scenario(2, 9))
        assert main(["check", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] is True
        assert doc["details"]["status"] == "SAT"
        assert doc["details"]["witnesses_total"] == 4
        assert len(doc["details"]["witnesses"]) == 4

    def test_witness_truncation(self, tmp_path, capsys):
        path = write_scenario(tmp_path, single_qubit_scenario(2, 9))
        assert main(["check", path, "--json", "--max-witnesses", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["details"]["witnesses"]) == 1
        assert doc["details"]["witnesses_total"] == 4

    def test_witness_count_exact_at_label_cap(self, tmp_path, capsys):
        path = write_scenario(tmp_path, witness_heavy_scenario(22))  # 24 labels
        assert main(["check", path, "--json"]) == 0
        details = json.loads(capsys.readouterr().out)["details"]
        assert details["status"] == "SAT"
        assert details["assignments_examined"] == 2**24
        assert details["witnesses_total"] == 2**23
        assert len(details["witnesses"]) == 16

    def test_unsat_file_reports_trace(self, tmp_path, capsys):
        target = tmp_path / "cab.json"
        main(["verify", "cabello", "--export", str(target)])
        capsys.readouterr()
        assert main(["check", str(target), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["details"]["status"] == "UNSAT"
        assert [t["conclusion"] for t in doc["details"]["trace"]] == [
            "delta+=1", "delta-=1", "CONFLICT",
        ]

    def test_reversed_contexts_match_golden(self, capsys, monkeypatch):
        """The trace's premises keep each context's member order."""
        monkeypatch.chdir(DATA.parent.parent)
        assert main(["check", "tests/data/reversed_contexts.json", "--json"]) == 0
        assert capsys.readouterr().out == (DATA / "check_reversed_golden.json").read_text()

    def test_reversed_pair_matches_golden(self, capsys, monkeypatch):
        """The exclusivity CONFLICT's premises keep the pair's declared order."""
        reversed_pair = dataclasses.replace(cabello_scenario(), exclusive_pairs=(("delta-", "delta+"),))
        assert load((DATA / "reversed_pair.json").read_bytes()) == reversed_pair
        monkeypatch.chdir(DATA.parent.parent)
        assert main(["check", "tests/data/reversed_pair.json", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "check_reversed_pair_golden.json").read_text()
        assert json.loads(out)["details"]["trace"][-1]["premises"] == ["delta-=1", "delta+=1"]

    def test_two_copies_match_golden(self, capsys, monkeypatch):
        """Contexts C+', C+, C+ again, C-, C-': propagation passes them once in
        declared order, skips the repeated C+ once it holds a 1 and stops at
        the closed pair (delta+, delta-) before it reaches C-'."""
        monkeypatch.chdir(DATA.parent.parent)
        assert main(["check", "tests/data/two_cabello_copies.json", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "check_two_copies_golden.json").read_text()
        assert [t["conclusion"] for t in json.loads(out)["details"]["trace"]] == [
            "delta+'=1", "delta+=1", "delta-=1", "CONFLICT",
        ]

    def test_three_box_matches_golden(self, capsys, monkeypatch):
        """Two 1s in one context refute the three-box paradox: no trace_note."""
        monkeypatch.chdir(DATA.parent.parent)
        assert main(["check", "tests/data/three_box.json", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "check_three_box_golden.json").read_text()
        assert "trace_note" not in json.loads(out)["details"]

    def test_all_zero_context_matches_golden(self, capsys, monkeypatch):
        """At QPP_TOL=0.5 the selections force x, y and z to 0: the context
        holding no 1 is the CONFLICT, with no trace_note."""
        monkeypatch.chdir(DATA.parent.parent)
        monkeypatch.setenv("QPP_TOL", "0.5")
        assert main(["check", "tests/data/all_zero_context.json", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "check_all_zero_golden.json").read_text()
        details = json.loads(out)["details"]
        assert "trace_note" not in details
        assert details["trace"][-1] == {
            "premises": ["x=0", "y=0", "z=0"], "rule": "SumRule", "conclusion": "CONFLICT",
        }

    def test_ks18_matches_golden(self, capsys, monkeypatch):
        """Propagation stalls on the 18-ray set, so the counting search decides it."""
        monkeypatch.chdir(DATA.parent.parent)
        assert main(["check", "tests/data/ks18.json", "--json"]) == 0
        assert capsys.readouterr().out == (DATA / "check_ks18_golden.json").read_text()

    def test_sat_file_matches_golden(self, capsys, monkeypatch):
        """pre forces a=1, d=0 and g=0; the report lists the first 16, all or
        none of 25 witnesses in ascending bit-string order."""
        monkeypatch.chdir(DATA.parent.parent)
        for argv, golden, listed in (
            ([], "check_sat_golden.json", 16),
            (["--max-witnesses", "25"], "check_sat_all_golden.json", 25),
            (["--max-witnesses", "0"], "check_sat_none_golden.json", 0),
        ):
            assert main(["check", "tests/data/sat_witnesses.json", "--json", *argv]) == 0
            out = capsys.readouterr().out
            assert out == (DATA / golden).read_text()
            details = json.loads(out)["details"]
            assert details["status"] == "SAT" and details["forced_values"]
            assert details["witnesses_total"] == 25 and len(details["witnesses"]) == listed

    def test_hand_written_file_matches_golden(self, capsys, monkeypatch):
        """The paper's scenario written by hand: integer amplitudes, one line
        and an unknown projector field, so load walks its nodes; --lax admits
        the field and the report is the cabello trace."""
        monkeypatch.chdir(DATA.parent.parent)
        assert main(["check", "tests/data/hand_written.json", "--json"]) == 3
        assert "projectors[0]: unknown field 'note'" in capsys.readouterr().err
        assert main(["check", "tests/data/hand_written.json", "--lax", "--json"]) == 0
        assert capsys.readouterr().out == (DATA / "check_hand_written_golden.json").read_text()

    def test_ks18_fixture_is_the_18_ray_set(self):
        """The 18 rays with pre and post along (1, 2, 3, 5) and (2, 3, 5, 7),
        neither orthogonal to any ray, so nothing is forced."""
        s = load((DATA / "ks18.json").read_bytes())
        ref = ks18_scenario(post=(2, 3, 5, 7))
        assert s.labels() == ref.labels() and s.contexts == ref.contexts
        for got, want in ((s.states, ref.states), (s.pre.amps, ref.pre.amps),
                          (s.post.amps, ref.post.amps)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert forced_values(s) == ()

    def test_unsat_without_certificate(self, tmp_path, capsys):
        path = write_scenario(tmp_path, ks18_scenario())
        assert main(["check", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["details"]["status"] == "UNSAT"
        assert doc["details"]["assignments_examined"] == 2 ** 18
        assert doc["details"]["forced_values"] == []
        assert doc["details"]["trace_note"] == "UNSAT without unit-propagation certificate"

    def test_validation_failure_exit_2(self, tmp_path, capsys):
        s = PrePostScenario(
            dim=2, pre=qubit(0.3), post=StateVector([-np.sin(0.3), np.cos(0.3)]),
            projectors=(LabeledProjector("up", qubit(0.0)),
                        LabeledProjector("down", qubit(np.pi / 2.0))),
            contexts=(Context(("up", "down")),),
        )
        path = write_scenario(tmp_path, s)
        assert main(["check", path, "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall"] is False
        names = [f["name"] for f in doc["details"]["validation_failures"]]
        assert "postselection_possible" in names

    def test_parse_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_bytes(b"{broken")
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr().err == (
            "qpp: parse error: line 1 column 2: Expecting property name enclosed in double quotes\n"
        )

    @pytest.mark.parametrize("amplitude, location", [
        ("1" + "0" * 400, "pre[0]"),
        ("1" + "0" * 5000, None),
    ], ids=["beyond-float-range", "integer-digit-limit"])
    def test_oversized_integer_exit_3(self, tmp_path, capsys, amplitude, location):
        doc = json.loads(save(single_qubit_scenario(1, 5)))
        doc["pre"][0][0] = "BIG"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', amplitude))
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err
        if location is not None:
            assert location in err

    def test_overflowing_norm_exit_3_without_a_warning(self, tmp_path, capsys):
        """Finite amplitudes whose norm overflows give one qpp: line, no numpy warning."""
        doc = json.loads(save(single_qubit_scenario(1, 5)))
        doc["pre"] = [[1e200, 0.0], [0.0, 0.0]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr().err == (
            "qpp: parse error: pre: norm deviates from 1 by inf, tolerance 1.0e-09\n"
        )

    def test_deep_nesting_exit_3(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        assert main(["check", str(path)]) == 3
        assert "recursion depth" in capsys.readouterr().err

    def test_non_array_exclusive_pairs_exit_3(self, tmp_path, capsys):
        doc = json.loads(save(single_qubit_scenario(1, 5)))
        doc["exclusive_pairs"] = None
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 3
        assert "exclusive_pairs" in capsys.readouterr().err

    def test_dangling_label_exit_3(self, tmp_path, capsys):
        doc = json.loads(save(single_qubit_scenario(1, 5)))
        doc["contexts"][0][1] = "ghost"
        path = tmp_path / "dangling.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 3
        err = capsys.readouterr().err
        assert "contexts[0]" in err and "'ghost'" in err

    def test_missing_file_exit_3(self, capsys):
        assert main(["check", "/no/such/file.json"]) == 3
        assert capsys.readouterr().err == (
            "qpp: [Errno 2] No such file or directory: '/no/such/file.json'\n"
        )

    def test_lax_accepts_unknown_fields(self, tmp_path, capsys):
        doc = json.loads(save(single_qubit_scenario(1, 5)))
        doc["annotation"] = "hand edited"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 3
        assert "annotation" in capsys.readouterr().err
        assert main(["check", str(path), "--lax"]) == 0

    def test_negative_max_witnesses_exit_2(self, tmp_path):
        path = write_scenario(tmp_path, single_qubit_scenario(1, 5))
        assert main(["check", path, "--max-witnesses", "-1"]) == 2


class TestToleranceOverride:
    def off_norm_doc(self):
        return {
            "dim": 2,
            "pre": [[1.0 + 5e-7, 0.0], [0.0, 0.0]],
            "post": [[0.6, 0.0], [0.8, 0.0]],
            "projectors": [
                {"label": "up", "state": [[1.0, 0.0], [0.0, 0.0]]},
                {"label": "down", "state": [[0.0, 0.0], [1.0, 0.0]]},
            ],
            "contexts": [["up", "down"]],
        }

    def test_env_var_loosens_tolerance(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "off.json"
        path.write_text(json.dumps(self.off_norm_doc()))
        monkeypatch.delenv("QPP_TOL", raising=False)
        assert main(["check", str(path)]) == 3
        capsys.readouterr()
        monkeypatch.setenv("QPP_TOL", "1e-3")
        assert main(["check", str(path)]) == 0
        assert "SAT" in capsys.readouterr().out

    def test_env_var_too_tight_fails_validation_exit_2(self, capsys, monkeypatch):
        """At QPP_TOL=1e-17 cabello's own rounding fails validation: the report
        prints, and its failure is a validation failure, not a numerical one."""
        monkeypatch.setenv("QPP_TOL", "1e-17")
        assert main(["verify", "cabello"]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert out.splitlines()[1].startswith("FAIL  scenario_valid ")
        assert out.endswith("overall: FAIL\n")

    def test_invalid_env_var_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("QPP_TOL", "not-a-number")
        assert main(["verify", "cabello"]) == 2
        assert "QPP_TOL" in capsys.readouterr().err
        monkeypatch.setenv("QPP_TOL", "-1e-9")
        assert main(["verify", "cabello"]) == 2
        for value in ("nan", "inf", "1e400"):
            monkeypatch.setenv("QPP_TOL", value)
            assert main(["verify", "cabello"]) == 2, value
            assert "QPP_TOL" in capsys.readouterr().err, value


class TestOptimize:
    def test_argument_validation(self, capsys):
        assert main(["optimize", "hardy", "--grid", "8"]) == 2
        assert main(["optimize", "hardy", "--refine-tol", "0"]) == 2
        assert main(["optimize", "cabello-family", "--exclusivity-tol", "0"]) == 2
        capsys.readouterr()
        assert main(["optimize", "hardy", "--exclusivity-tol", "-5"]) == 2
        assert capsys.readouterr().err == "qpp: --exclusivity-tol applies only to cabello-family\n"

    def test_grid_above_cap_exit_2(self, capsys):
        assert main(["optimize", "hardy", "--grid", "257"]) == 2
        assert capsys.readouterr().err == "qpp: grid must be at most 256, got 257\n"

    def test_hardy_json(self, capsys):
        assert main(["optimize", "hardy", "--grid", "16", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        target = ((5.0 ** 0.5 - 1.0) / 2.0) ** 5
        assert abs(doc["details"]["objective"] - target) < 1e-6
        assert set(doc["details"]["parameters"]) == {"theta_a", "theta_b"}

    def test_cabello_family_json(self, capsys):
        assert main(["optimize", "cabello-family", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["details"]["objective"] - 1.0 / 9.0) < 1e-6
        assert abs(doc["details"]["parameters"]["c"] - 1.0 / 3.0) < 1e-4
        assert abs(doc["details"]["parameters"]["p"] - 0.5) < 1e-4
        assert doc["details"]["exclusivity_tol"] == 1e-9

    @pytest.mark.parametrize("target, options, golden", [
        ("hardy", [], "optimize_hardy_golden.json"),
        ("cabello-family", [], "optimize_family_golden.json"),
        ("hardy", ["--grid", "16", "--refine-tol", "1e-6"], "optimize_hardy_grid16_golden.json"),
        ("cabello-family", ["--grid", "16", "--refine-tol", "1e-6"],
         "optimize_family_grid16_golden.json"),
        # Tolerances of exactly 2 hw / 2^17: the pass count's boundary, 18 passes.
        ("hardy", ["--grid", "16", "--refine-tol", "1.4980281131695715e-06"],
         "optimize_hardy_boundary_golden.json"),
        ("cabello-family", ["--grid", "16", "--refine-tol", "9.5367431640625e-07"],
         "optimize_family_boundary_golden.json"),
        # The widest first grid: 256 cell centres on the family's one axis, 65536 points for Hardy.
        ("cabello-family", ["--grid", "256"], "optimize_family_grid256_golden.json"),
        ("hardy", ["--grid", "256"], "optimize_hardy_grid256_golden.json"),
    ])
    def test_json_matches_golden(self, capsys, target, options, golden):
        """The search's report, byte for byte as the scalar engine wrote it."""
        assert main(["optimize", target, *options, "--json"]) == 0
        out = capsys.readouterr()
        assert out.out == (DATA / golden).read_text()
        assert out.err == ""

    @pytest.mark.parametrize("target", ["hardy", "cabello-family"])
    def test_convergence_failure_exit_4(self, capsys, target):
        code = main(["optimize", target, "--grid", "16", "--refine-tol", "1e-40"])
        assert code == 4
        assert capsys.readouterr().err == (
            "qpp: refinement did not reach tolerance 1e-40 within 60 iterations\n"
        )


class TestExitCodeTable:
    """Rows of README's exit-code table that no other test reaches: the exit
    code and the one exact stderr line, with nothing on stdout."""

    def run(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        assert out == ""
        return code, err

    def test_enumeration_limit_exit_4(self, tmp_path, capsys, monkeypatch):
        """The 4x4 grid is valid and branches: past a node budget of 2 the
        count is refused by the engine, not by any label cap."""
        path = write_scenario(tmp_path, grid_scenario())
        monkeypatch.setattr(nchv, "_NODE_BUDGET", 2)
        assert self.run(capsys, ["check", path]) == (
            4, "qpp: the count needs more than 2 components\n"
        )

    def test_convergence_error_exit_4(self, capsys):
        argv = ["verify", "hardy", "--optimal", "--refine-tol", "1e-40"]
        assert self.run(capsys, argv) == (
            4, "qpp: refinement did not reach tolerance 1e-40 within 60 iterations\n"
        )

    def test_value_error_exit_2(self, tmp_path, capsys, monkeypatch):
        """Under QPP_TOL=1e-3, e0 is certain under pre but excluded by post."""
        d = 9e-4
        r = np.sqrt(1.0 - d * d)
        basis = [StateVector(np.eye(3)[i]) for i in range(3)]
        s = PrePostScenario(
            dim=3, pre=StateVector([r, 0.0, d]), post=StateVector([d, 0.0, r]),
            projectors=tuple(LabeledProjector(f"e{i}", basis[i]) for i in range(3)),
            contexts=(Context(("e0", "e1", "e2")),),
        )
        path = write_scenario(tmp_path, s)
        monkeypatch.setenv("QPP_TOL", "1e-3")
        assert self.run(capsys, ["check", path]) == (
            2, "qpp: projector 'e0': prediction gives 1 but retrodiction gives 0\n"
        )


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["verify", "--help"]) == 0

    def test_help_names_the_library_defaults(self, capsys):
        """--help spells each search default from qpp.optimizer, the
        constants the maximizers' signatures use."""
        assert maximize_hardy.__defaults__ == (DEFAULT_GRID, DEFAULT_REFINE_TOL)
        assert maximize_cabello_family.__defaults__ == (
            DEFAULT_GRID, DEFAULT_REFINE_TOL, DEFAULT_EXCLUSIVITY_TOL)
        assert main(["optimize", "--help"]) == 0
        assert main(["verify", "hardy", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for value in (DEFAULT_GRID, DEFAULT_REFINE_TOL, DEFAULT_EXCLUSIVITY_TOL):
            assert f"(default {value})" in text
        assert text.count(f"(default {DEFAULT_GRID})") == 2


class TestReportModel:
    def test_check_round_trip(self):
        c = Check("x", 1.0, 1.5, 0.5, False)
        doc = {"name": "x", "expected": 1.0, "actual": 1.5, "deviation": 0.5, "pass": False}
        assert json.loads(json.dumps(c.to_dict())) == doc
        assert c.to_dict()["pass"] is False

    def test_report_round_trip(self):
        r = Report("demo", (Check("a", True, True, None, True),), {"k": [1, 2]})
        doc = json.loads(json.dumps(r.to_dict()))
        assert doc == {
            "artifact_version": 1, "command": "demo",
            "checks": [{"name": "a", "expected": True, "actual": True, "deviation": None,
                        "pass": True}],
            "overall": True, "details": {"k": [1, 2]},
        }
        assert r.overall is True
        with pytest.raises(TypeError):  # the version is the module constant, not a field
            Report("demo", (), None, 2)

    def test_render_text_shows_failures(self):
        r = Report("demo", (Check("a", 0.0, 1.0, 1.0, False),))
        text = r.render_text()
        assert "FAIL" in text
        assert "overall: FAIL" in text
