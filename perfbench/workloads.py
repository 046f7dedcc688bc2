"""Seeded inputs, operations and answer oracles for the benchmark workloads.

Each workload is one *pass*: a list of cases generated from the seed before
timing starts, which the benchmark runs again and again.  The seed picks the
numbers inside each case (states, angles, grids, file contents) and the order
of the pass.  The composition of a pass, meaning how many cases of each kind
and size it holds, is fixed.  Every seed therefore puts the same cost
profile in front of the program, so the spread between seeds measures the
program and not the draw.  It also keeps the median and the tail percentile
inside a single group of same-cost cases.

Every case carries the answer the program must give.  The answers come from
closed forms or from arithmetic done here, never from the code under test:
the pinned trace and forced values, 2^n witnesses, 1/9, ((sqrt 5 - 1)/2)^5,
c = 1/3 and p = 1/2.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from qpp import constructions, nchv, optimizer, prepost, scenario
from qpp.hilbert import StateVector
from qpp.scenario import Context, LabeledProjector, PrePostScenario

MAX_WITNESSES = 16  # what `qpp check` reports by default
CABELLO_TRACE = "delta+=1; delta-=1; CONFLICT"
FIVE_ZEROS = (
    "alpha=0(Prediction), beta+=0(Prediction), beta-=0(Prediction), "
    "gamma+=0(Retrodiction), gamma-=0(Retrodiction)"
)
HARDY_MAX = ((math.sqrt(5.0) - 1.0) / 2.0) ** 5
CLI_TIMEOUT_S = 120.0
ROOT = Path(__file__).resolve().parent.parent

# The 18 rays in d=4 of Cabello, Estebaranz and Garcia-Alcaine,
# Phys. Lett. A 212, 183 (1996): nine orthogonal bases, each ray in exactly
# two of them, so no assignment gives every basis exactly one 1.
KS18_CONTEXTS = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


@dataclass(frozen=True)
class Case:
    """One operation's input and the answer the program must give."""

    kind: str
    payload: object
    expected: dict = field(default_factory=dict)


# ---------------------------------------------------------------- inputs


def _random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def _probability(pre: np.ndarray, post: np.ndarray) -> float:
    return abs(complex(np.vdot(post, pre))) ** 2


def _scenario_case(kind, s: PrePostScenario, *, status, witnesses, trace, forced, probability):
    expected = {
        "valid": True,
        "status": status,
        "witnesses": witnesses,
        "trace": trace,
        "forced": forced,
        "probability": probability,
        "contexts": [ctx.members for ctx in s.contexts],
        "pairs": list(s.exclusive_pairs),
    }
    return Case(kind, scenario.save(s), expected)


def cabello_case(extra_labels: int = 0, rng: np.random.Generator | None = None) -> Case:
    """The fixed scenario, optionally padded with free labels; propagation succeeds."""
    s = constructions.cabello_scenario()
    if extra_labels:
        free = tuple(
            LabeledProjector(f"z{i:02d}", StateVector(_random_state(rng, 4)))
            for i in range(extra_labels)
        )
        s = PrePostScenario(4, s.pre, s.post, s.projectors + free, s.contexts, s.exclusive_pairs)
    kind = f"cabello+{extra_labels}" if extra_labels else "cabello"
    return _scenario_case(
        kind, s, status=nchv.UNSAT, witnesses=0, trace=CABELLO_TRACE,
        forced=FIVE_ZEROS, probability=1.0 / 9.0,
    )


def hardy_angles(rng: np.random.Generator) -> tuple[float, float]:
    lo, hi = 0.1, math.pi / 2.0 - 0.1
    return float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))


def hardy_probability(theta_a: float, theta_b: float) -> float:
    """|<a b|pre>|^2 in closed form, pre being orthogonal to |00>, |a 1> and |1 b>."""
    ca, sa, cb, sb = math.cos(theta_a), math.sin(theta_a), math.cos(theta_b), math.sin(theta_b)
    return (ca * sa * cb * sb) ** 2 / (sa * sa * cb * cb + sb * sb * ca * ca + ca * ca * cb * cb)


def hardy_case(rng: np.random.Generator) -> Case:
    theta_a, theta_b = hardy_angles(rng)
    s = constructions.hardy_scenario(theta_a, theta_b)
    return _scenario_case(
        "hardy", s, status=nchv.UNSAT, witnesses=0, trace=CABELLO_TRACE,
        forced=FIVE_ZEROS, probability=hardy_probability(theta_a, theta_b),
    )


def single_qubit_case(rng: np.random.Generator, n_contexts: int) -> Case:
    """n pairs (P, I - P): exactly one of each pair is 1, so 2^n witnesses."""
    s = constructions.single_qubit_scenario(n_contexts, int(rng.integers(2**31)))
    return _scenario_case(
        f"single-qubit-{n_contexts}", s, status=nchv.SAT, witnesses=2**n_contexts,
        trace=None, forced="", probability=_probability(s.pre.amps, s.post.amps),
    )


def witness_heavy_case(rng: np.random.Generator, labels: int) -> Case:
    """One 2-member qubit context plus k = labels - 2 free labels: 2 * 2^k witnesses."""
    pre, post, base = (_random_state(rng, 2) for _ in range(3))
    perp = np.array([-np.conj(base[1]), np.conj(base[0])])
    projectors = [LabeledProjector("c", StateVector(base)), LabeledProjector("c_perp", StateVector(perp))]
    projectors += [
        LabeledProjector(f"f{i:02d}", StateVector(_random_state(rng, 2))) for i in range(labels - 2)
    ]
    s = PrePostScenario(
        2, StateVector(pre), StateVector(post), tuple(projectors), (Context(("c", "c_perp")),)
    )
    return _scenario_case(
        f"witness-heavy-{labels}", s, status=nchv.SAT, witnesses=2 * 2 ** (labels - 2),
        trace=None, forced="", probability=_probability(pre, post),
    )


def ks18_case(rng: np.random.Generator) -> Case:
    """The 18-ray set with random selections: UNSAT with nothing forced.

    Unit propagation has no premise to start from, so the oracle pins the
    status and leaves the certificate open.
    """
    rays = list(dict.fromkeys(ray for ctx in KS18_CONTEXTS for ray in ctx))
    names = {ray: f"k{int(i):02d}" for ray, i in zip(rays, rng.permutation(len(rays)))}
    projectors = tuple(
        LabeledProjector(names[ray], StateVector(np.array(ray, dtype=float) / np.linalg.norm(ray)))
        for ray in rays
    )
    contexts = tuple(Context(tuple(names[ray] for ray in ctx)) for ctx in KS18_CONTEXTS)
    pre, post = _random_state(rng, 4), _random_state(rng, 4)
    s = PrePostScenario(4, StateVector(pre), StateVector(post), projectors, contexts)
    return _scenario_case(
        "ks18", s, status=nchv.UNSAT, witnesses=0, trace=None, forced="",
        probability=_probability(pre, post),
    )


def family_case(rng: np.random.Generator) -> Case:
    """A cabello_family member off the feasible curve: delta+/- not exclusive, so invalid."""
    while True:
        c, p = (float(v) for v in rng.uniform(0.05, 0.95, size=2))
        s2, q2 = 1.0 - c * c, 1.0 - p * p
        # |<delta+|delta->| = |c^2 + s^2 p^2 (p^2 - q^2)| / (c^2 + s^2 p^2 (p^2 + q^2))
        overlap = abs(c * c + s2 * p * p * (p * p - q2)) / (c * c + s2 * p * p * (p * p + q2))
        if overlap > 0.05:
            break
    s = constructions.cabello_family(c, p).scenario
    return Case("family", scenario.save(s), {"valid": False})


# ---------------------------------------------------------------- check path


def check_path(data: bytes) -> dict:
    """One in-process `qpp check` of scenario bytes, plus the export of the scenario."""
    s = scenario.load(data)
    report = scenario.validate(s)
    if not report.passed:
        return {"valid": False, "failures": [c.name for c in report.failures()]}
    probability = prepost.selection_probability(s)
    forced = prepost.forced_values(s)
    sat = nchv.enumerate_assignments(s, forced)
    return {
        "valid": True,
        "probability": probability,
        "forced": ", ".join(f"{fv.label}={fv.bit}({fv.justification})" for fv in forced),
        "status": sat.status,
        "witnesses": [w.as_dict() for w in sat.witnesses[:MAX_WITNESSES]],
        "witnesses_total": len(sat.witnesses),
        "trace": "; ".join(sat.conflict.conclusions()) if sat.conflict else None,
        "exported": scenario.save(s),
    }


def _witness_error(witness: dict, expected: dict) -> str | None:
    for members in expected["contexts"]:
        if sum(witness[m] for m in members) != 1:
            return f"witness {witness} breaks context {members}"
    for a, b in expected["pairs"]:
        if witness[a] + witness[b] > 1:
            return f"witness {witness} breaks exclusive pair {a},{b}"
    return None


def check_scenario_answer(case: Case, out: dict) -> str | None:
    """None when the check path answered as the oracle says, else the reason."""
    exp = case.expected
    if out["valid"] != exp["valid"]:
        return f"valid={out['valid']}, expected {exp['valid']}"
    if not exp["valid"]:
        return None
    for key, got, want in (
        ("status", out["status"], exp["status"]),
        ("witnesses_total", out["witnesses_total"], exp["witnesses"]),
        ("witnesses reported", len(out["witnesses"]), min(MAX_WITNESSES, exp["witnesses"])),
        ("forced", out["forced"], exp["forced"]),
    ):
        if got != want:
            return f"{key}={got!r}, expected {want!r}"
    if exp["trace"] is not None and out["trace"] != exp["trace"]:
        return f"trace={out['trace']!r}, expected {exp['trace']!r}"
    if abs(out["probability"] - exp["probability"]) > 1e-12:
        return f"probability={out['probability']!r}, expected {exp['probability']!r}"
    if out["exported"] != case.payload:
        return "save(load(bytes)) differs from the input bytes"
    for witness in out["witnesses"]:
        err = _witness_error(witness, exp)
        if err:
            return err
    return None


# ---------------------------------------------------------------- optimizer


def search_case(target: str, grid: int, refine_tol: float = 1e-9) -> Case:
    """One search; the answer must hold to 1e-6, or to refine_tol when that is coarser."""
    return Case(target, (target, grid, refine_tol), {"tolerance": max(1e-6, refine_tol)})


def search(payload: tuple[str, int, float]):
    target, grid, refine_tol = payload
    if target == "hardy":
        return optimizer.maximize_hardy(grid=grid, refine_tol=refine_tol)
    return optimizer.maximize_cabello_family(grid=grid, refine_tol=refine_tol)


def check_search_answer(case: Case, result) -> str | None:
    target = case.payload[0]
    tolerance = case.expected["tolerance"]
    params = dict(result.parameters)
    if target == "hardy":
        wanted = {"objective": (result.objective, HARDY_MAX)}
    else:
        wanted = {
            "objective": (result.objective, 1.0 / 9.0),
            "c": (params["c"], 1.0 / 3.0),
            "p": (params["p"], 0.5),
        }
    for key, (got, want) in wanted.items():
        if abs(got - want) > tolerance:
            return f"{target} {key}={got!r}, expected {want!r} within {tolerance!r}"
    return None


def antithetic_grid(grid: int) -> int:
    """The grid g' with g^2 + g'^2 = 16^2 + 64^2, so that a pair costs the same for every seed."""
    return min(64, max(16, round(math.sqrt(16**2 + 64**2 - grid * grid))))


# ---------------------------------------------------------------- cli


def run_cli(argv: list[str], env: dict) -> dict:
    """Run the command line in a fresh interpreter through the launcher."""
    launcher = Path(__file__).with_name("launch.py")
    proc = subprocess.Popen(
        [sys.executable, str(launcher), *argv], stdout=subprocess.PIPE, env=env, cwd=ROOT
    )
    try:
        stdout, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return {"code": proc.returncode, "stdout": stdout.decode("utf-8", "replace")}


def check_cli_answer(case: Case, out: dict) -> str | None:
    if out["code"] != 0:
        return f"exit code {out['code']}"
    if not case.expected["json"]:
        last = out["stdout"].rstrip("\n").rsplit("\n", 1)[-1]
        return None if last == "overall: PASS" else f"last line {last!r}"
    report = json.loads(out["stdout"])
    if report["overall"] is not True:
        return "overall is not true"
    if "status" not in case.expected:
        return None
    details = report["details"]
    got = {
        "status": details["status"],
        "witnesses": details["witnesses_total"],
        "trace": "; ".join(step["conclusion"] for step in details.get("trace", [])) or None,
    }
    for key in ("status", "witnesses", "trace"):
        if got[key] != case.expected[key]:
            return f"{key}={got[key]!r}, expected {case.expected[key]!r}"
    return None


def cli_cases(rng: np.random.Generator, repeats: int, workdir: Path) -> list[Case]:
    """`verify cabello --json`, `verify hardy` (text) and `check FILE --json`, per repeat."""
    cases = []
    for r in range(repeats):
        cases.append(Case("verify-cabello", ["verify", "cabello", "--json"], {"json": True}))
        theta_a, theta_b = hardy_angles(rng)
        cases.append(Case(
            "verify-hardy",
            ["verify", "hardy", "--theta-a", repr(theta_a), "--theta-b", repr(theta_b)],
            {"json": False},
        ))
        source = hardy_case(rng) if r % 2 else single_qubit_case(rng, int(rng.integers(2, 8)))
        path = workdir / f"check-{r:02d}.json"
        path.write_bytes(source.payload)
        expected = {"json": True, **{k: source.expected[k] for k in ("status", "witnesses", "trace")}}
        cases.append(Case(f"check-{source.kind}", ["check", str(path), "--json"], expected))
    return cases


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    """One pass of cases with the operation that runs a case and its oracle.

    ``env`` is set only for workloads that run the program in a child
    process; the benchmark then passes trace settings through it.
    """

    name: str
    cases: list[Case]
    warmup: list[Case]
    run: Callable[[object], object]
    check: Callable[[Case, object], str | None]
    reported: Callable[[object], int] = lambda out: 0
    env: dict | None = None


def _shuffled(rng: np.random.Generator, cases: list[Case]) -> list[Case]:
    return [cases[int(i)] for i in rng.permutation(len(cases))]


def _reported_in_process(out: dict) -> int:
    return len(out.get("witnesses", ()))


def _reported_by_cli(out: dict) -> int:
    if not out["stdout"].startswith("{"):
        return 0
    return len(json.loads(out["stdout"]).get("details", {}).get("witnesses", ()))


def build(name: str, seed: int, size: str, workdir: Path, env: dict) -> Workload:
    """The pass for one workload.  ``size="small"`` shrinks every case for smoke tests."""
    rng = np.random.default_rng(seed)
    full = size == "full"
    if name == "verify-mix":
        # 4..14 labels; cabello and hardy are UNSAT with the pinned trace, the
        # single-qubit scenarios SAT, the family members fail validation.  As
        # many cases run faster than cabello and hardy (family, 2 and 3
        # contexts) as slower (4 to 7 contexts), so the median sits in the
        # middle of the cabello/hardy group.
        per_kind, families = (12, 10) if full else (2, 2)
        contexts = (2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 4, 5, 6, 7) if full else (2, 3)
        cases = [cabello_case() for _ in range(per_kind)]
        cases += [hardy_case(rng) for _ in range(per_kind)]
        cases += [single_qubit_case(rng, n) for n in contexts]
        cases += [family_case(rng) for _ in range(families)]
        cases = _shuffled(rng, cases)
        return Workload(name, cases, cases * 4, check_path, check_scenario_answer,
                        _reported_in_process)
    if name == "enumerate-wide":
        # One case of the largest witness blow-up and three of the next size
        # keep the 11th-slowest operation inside the 3-case group for any run
        # of 3 to 10 passes; five same-size KS18 cases hold the median.
        heavy, wide = (18, 16) if full else (12, 10)
        cases = [witness_heavy_case(rng, heavy)] + [witness_heavy_case(rng, wide) for _ in range(3)]
        cases += [ks18_case(rng) for _ in range(5 if full else 2)]
        cases += [single_qubit_case(rng, n) for n in ((8, 8, 9, 9) if full else (5, 6))]
        cases += [cabello_case(k, rng) for k in ((7, 8, 9, 10, 11) if full else (3, 5))]
        warmup = [c for c in cases if not c.kind.startswith("witness-heavy")]
        warmup.append(witness_heavy_case(rng, wide - 2))
        return Workload(name, _shuffled(rng, cases), warmup, check_path, check_scenario_answer,
                        _reported_in_process)
    if name == "optimize":
        if full:
            grid = int(rng.integers(16, 65))
            cases = [search_case("hardy", grid), search_case("hardy", antithetic_grid(grid))]
            cases += [search_case("cabello-family", int(rng.integers(16, 65))) for _ in range(4)]
        else:
            cases = [search_case("hardy", 16), search_case("cabello-family", 64)]
        warmup = [search_case("hardy", 16, 0.05), search_case("cabello-family", 16, 0.05)]
        return Workload(name, _shuffled(rng, cases), warmup, search, check_search_answer)
    if name == "cli-cold":
        cases = cli_cases(rng, 2 if full else 1, workdir)
        return Workload(name, cases, cases[:3], lambda argv: run_cli(argv, env),
                        check_cli_answer, _reported_by_cli, env)
    raise ValueError(f"unknown workload {name!r}")
