"""Command line interface.

Subcommands:

* ``qpp verify cabello``: rebuild the fixed two-spin scenario and check
  every claim about it (selection probability 1/9, both resolutions of
  identity, delta exclusivity, the five forced zeros, unsatisfiability
  over all 128 assignments, and the three-step refutation).
* ``qpp verify hardy``: the same battery for the Hardy construction at
  given angles, or at the optimizer's angles with ``--optimal``.
* ``qpp check FILE``: validate a scenario file and decide noncontextual
  satisfiability; SAT and UNSAT both exit 0.
* ``qpp optimize {hardy,cabello-family}``: run the maximizers.

Exit codes: 0 success, 2 validation or usage error, 3 I/O or parse
error, 4 numerical failure.  Reports print as text by default or as
stable JSON with ``--json``.  The environment variable QPP_TOL
overrides the default consistency tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__, hilbert, nchv, prepost, scenario
from .constructions import DELTA_PAIR, cabello_scenario, hardy_scenario
from .nchv import UNSAT, EnumerationLimitError
from .optimizer import (DEFAULT_EXCLUSIVITY_TOL, DEFAULT_GRID, DEFAULT_REFINE_TOL, ConvergenceError,
                        maximize_cabello_family, maximize_hardy)
from .scenario import ScenarioParseError

__all__ = [
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_IO",
    "EXIT_NUMERIC",
    "ARTIFACT_VERSION",
    "Check",
    "Report",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERIC = 4

ARTIFACT_VERSION = 1

# README's exit-code table, in order: the first row whose error type
# matches an error raised by a command gives its exit code and the
# prefix of its one stderr line.
_EXIT_CODES = (
    (ScenarioParseError, EXIT_IO, "parse error: "),
    (OSError, EXIT_IO, ""),
    (EnumerationLimitError, EXIT_NUMERIC, ""),
    (ConvergenceError, EXIT_NUMERIC, ""),
    (ValueError, EXIT_VALIDATION, ""),
)

CABELLO_PROBABILITY = 1.0 / 9.0
HARDY_MAX_PROBABILITY = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5

_FORCED_EXPECTED = (
    "alpha=0(Prediction), beta+=0(Prediction), beta-=0(Prediction), "
    "gamma+=0(Retrodiction), gamma-=0(Retrodiction)"
)
_TRACE_EXPECTED = "delta+=1; delta-=1; CONFLICT"


@dataclass(frozen=True)
class Check:
    """One named comparison inside a report."""

    name: str
    expected: object
    actual: object
    deviation: float | None
    passed: bool

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["pass"] = doc.pop("passed")
        return doc


@dataclass(frozen=True)
class Report:
    """A command's full result: checks plus free-form details."""

    command: str
    checks: tuple[Check, ...]
    details: dict | None = None

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        doc = {
            "artifact_version": ARTIFACT_VERSION,
            "command": self.command,
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
        }
        if self.details is not None:
            doc["details"] = self.details
        return doc

    def render_text(self) -> str:
        lines = [f"{self.command} (qpp {__version__})"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name:<32} expected={_fmt(c.expected)} "
                f"actual={_fmt(c.actual)} deviation={_fmt(c.deviation)}"
            )
        if self.details:
            lines.append("details:")
            block = json.dumps(self.details, indent=2, ensure_ascii=False)
            lines.extend("  " + ln for ln in block.splitlines())
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    return "-" if value is None else str(value)


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n")
    else:
        sys.stdout.write(report.render_text())


def _fail(message: str, code: int) -> int:
    print(f"qpp: {message}", file=sys.stderr)
    return code


def _within(name: str, expected: float, actual: float, tol: float) -> Check:
    """A check that actual lies within tol of expected."""
    dev = abs(actual - expected)
    return Check(name, expected, actual, dev, dev < tol)


def _equals(name: str, expected, actual) -> Check:
    """A check that actual equals expected."""
    return Check(name, expected, actual, None, actual == expected)


def _given(args, *names: str) -> dict:
    """The named options the user gave: a flag left out takes the library's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _decide(s, tol_check: float):
    """Forced values as dicts, the SatisfiabilityReport and its trace steps as dicts."""
    forced = prepost.forced_values(s, tol_check)
    sat = nchv.enumerate_assignments(s, forced)
    trace = [asdict(step) for step in sat.conflict.steps] if sat.conflict is not None else []
    return [asdict(fv) for fv in forced], sat, trace


def _verify_cabello(args, tol_check: float):
    s = cabello_scenario()
    prob = prepost.selection_probability(s)
    return s, [_within("selection_probability", CABELLO_PROBABILITY, prob, 1e-12)], [], {}


def _verify_hardy(args, tol_check: float):
    if args.optimal and (args.theta_a is not None or args.theta_b is not None):
        raise ValueError("verify hardy: --optimal conflicts with --theta-a/--theta-b")
    if not args.optimal and (args.theta_a is None or args.theta_b is None):
        raise ValueError("verify hardy: supply both --theta-a and --theta-b, or --optimal")
    search = _given(args, "grid", "refine_tol")
    if search and not args.optimal:
        raise ValueError("verify hardy: --grid and --refine-tol apply only with --optimal")
    theta_a, theta_b, after, found = args.theta_a, args.theta_b, [], {}
    if args.optimal:
        result = maximize_hardy(**search)
        params = dict(result.parameters)
        theta_a, theta_b = params["theta_a"], params["theta_b"]
        after.append(_within("optimal_probability", HARDY_MAX_PROBABILITY, result.objective, 1e-6))
        found = {k: getattr(result, k)
                 for k in ("evaluations", "grid_resolution", "refine_tolerance")}
    s = hardy_scenario(theta_a, theta_b, tol_check)
    prob = prepost.selection_probability(s)
    below = prob < CABELLO_PROBABILITY
    after.append(Check("probability_below_bound", True, below, CABELLO_PROBABILITY - prob, below))
    details = {"selection_probability": prob, "theta_a": theta_a, "theta_b": theta_b, **found}
    return s, [], after, details


# One row per verify target: the tolerance for its resolution and exclusivity
# deviations, and the function that returns its scenario, the checks before
# and after the shared ones, and its extra details.
_VERIFY_TARGETS = {"cabello": (1e-12, _verify_cabello), "hardy": (1e-9, _verify_hardy)}


def _cmd_verify(args, tol_check: float) -> int:
    """Rebuild the target scenario and check every claim about it."""
    numeric_tol, build = _VERIFY_TARGETS[args.target]
    s, before, after, extra = build(args, tol_check)
    vreport = scenario.validate(s, tol_check)
    checks = [_equals("scenario_valid", True, vreport.passed), *before]

    # Resolution and exclusivity deviations from validation, re-judged at the row's tolerance.
    measured = {c.name: c.deviation for c in vreport.checks}
    checks += [_within(f"resolution_of_identity[{i}]", 0.0, measured[f"context_resolution[{i}]"],
                       numeric_tol) for i in range(len(s.contexts))]
    a, b = DELTA_PAIR
    checks.append(_within("delta_pair_exclusive", 0.0, measured[f"exclusive_pair[{a},{b}]"],
                          numeric_tol))

    forced, sat, trace = _decide(s, tol_check)
    checks += [
        _equals("forced_values", _FORCED_EXPECTED,
                ", ".join("{label}={bit}({justification})".format(**fv) for fv in forced)),
        _equals("nchv_status", UNSAT, sat.status),
        _equals("assignments_examined", 1 << len(s.projectors), sat.assignments_examined),
        _equals("contradiction_trace", _TRACE_EXPECTED,
                "; ".join(step["conclusion"] for step in trace) or "(no certificate)"),
        *after,
    ]

    report = Report(f"verify {args.target}", tuple(checks),
                    {"forced_values": forced, "trace": trace, **extra})
    _emit(report, args.json)
    if not report.overall:
        return EXIT_NUMERIC if vreport.passed else EXIT_VALIDATION
    if args.export:
        try:
            Path(args.export).write_bytes(scenario.save(s))
        except OSError as exc:
            return _fail(f"export failed: {exc}", EXIT_IO)
    return EXIT_OK


def _cmd_check(args, tol_check: float) -> int:
    if args.max_witnesses < 0:
        raise ValueError(f"--max-witnesses must be nonnegative, got {args.max_witnesses}")
    s = scenario.load(Path(args.path).read_bytes(), lax=args.lax, tol_check=tol_check)

    command = f"check {args.path}"
    vreport = scenario.validate(s, tol_check)
    valid_check = _equals("scenario_valid", True, vreport.passed)
    if not vreport.passed:
        failures = [{"name": c.name, "deviation": c.deviation, "detail": c.detail}
                    for c in vreport.failures()]
        _emit(Report(command, (valid_check,), {"validation_failures": failures}), args.json)
        return EXIT_VALIDATION

    forced, sat, trace = _decide(s, tol_check)
    details = {
        "status": sat.status,
        "assignments_examined": sat.assignments_examined,
        "forced_values": forced,
        "witnesses": [w.as_dict() for w in sat.witnesses[: args.max_witnesses]],
        "witnesses_total": sat.witnesses.count,
    }
    if trace:  # only an UNSAT report carries a refutation
        details["trace"] = trace
    elif sat.status == UNSAT:
        details["trace_note"] = "UNSAT without unit-propagation certificate"

    checks = (valid_check, Check("satisfiability", "SAT|UNSAT", sat.status, None, True))
    _emit(Report(command, checks, details), args.json)
    return EXIT_OK


def _cmd_optimize(args) -> int:
    search = _given(args, "grid", "refine_tol", "exclusivity_tol")
    if args.target == "hardy" and "exclusivity_tol" in search:
        raise ValueError("--exclusivity-tol applies only to cabello-family")
    result = (maximize_hardy if args.target == "hardy" else maximize_cabello_family)(**search)

    details = {k: v for k, v in asdict(result).items() if v is not None}
    details["parameters"] = dict(result.parameters)
    checks = (Check("converged", True, True, None, True),
              Check("objective", None, result.objective, None, True))
    _emit(Report(f"optimize {args.target}", checks, details), args.json)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpp",
        description="Verify and explore pre/postselected contextuality scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="rebuild a known scenario and check its claims")
    vtargets = verify.add_subparsers(dest="target", required=True)

    vc = vtargets.add_parser("cabello", help="the fixed two-spin scenario")
    vh = vtargets.add_parser("hardy", help="the two-qubit Hardy construction")
    vh.add_argument("--theta-a", type=float, help="first polar angle, in (0, pi/2)")
    vh.add_argument("--theta-b", type=float, help="second polar angle, in (0, pi/2)")
    vh.add_argument("--optimal", action="store_true", help="verify at the optimizer's angles")
    vh.add_argument("--grid", type=int,
                    help=f"initial grid resolution, --optimal only (default {DEFAULT_GRID})")
    vh.add_argument("--refine-tol", type=float,
                    help=f"refinement tolerance, --optimal only (default {DEFAULT_REFINE_TOL})")
    for target in (vc, vh):
        target.add_argument("--json", action="store_true", help="emit the report as JSON")
        target.add_argument("--export", metavar="PATH", help="also write the scenario file")

    check = sub.add_parser("check", help="validate a scenario file and decide satisfiability")
    check.add_argument("path", help="scenario JSON file")
    check.add_argument("--lax", action="store_true", help="ignore unknown fields")
    check.add_argument("--max-witnesses", type=int, default=16,
                       help="witnesses to include in the report (default 16)")
    check.add_argument("--json", action="store_true", help="emit the report as JSON")

    opt = sub.add_parser("optimize", help="maximize a selection probability")
    opt.add_argument("target", choices=["hardy", "cabello-family"])
    opt.add_argument("--grid", type=int, help=f"initial grid resolution (default {DEFAULT_GRID})")
    opt.add_argument("--refine-tol", type=float, help=f"refinement tolerance (default {DEFAULT_REFINE_TOL})")
    opt.add_argument("--exclusivity-tol", type=float,
                     help=f"feasibility tolerance, cabello-family only (default {DEFAULT_EXCLUSIVITY_TOL})")
    opt.add_argument("--json", action="store_true", help="emit the report as JSON")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code

    tol_check = hilbert.TOL_CHECK
    env = os.environ.get("QPP_TOL")
    if env is not None:
        try:
            tol_check = float(env)
        except ValueError:
            return _fail(f"invalid QPP_TOL value {env!r}", EXIT_VALIDATION)
        if not 0.0 < tol_check < math.inf:
            return _fail(f"QPP_TOL must be positive and finite, got {env!r}", EXIT_VALIDATION)

    try:
        if args.command == "verify":
            return _cmd_verify(args, tol_check)
        if args.command == "check":
            return _cmd_check(args, tol_check)
        return _cmd_optimize(args)
    except tuple(error for error, _, _ in _EXIT_CODES) as exc:
        code, prefix = next((c, pre) for error, c, pre in _EXIT_CODES if isinstance(exc, error))
        return _fail(f"{prefix}{exc}", code)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
