"""Domain model for pre/postselected contextuality scenarios.

A scenario bundles a preselected state, a postselected state, a set of
labeled rank-1 projectors, the contexts (resolutions of identity) they
form, and any explicitly declared exclusive pairs.  Scenario objects are
dumb containers: structural well-formedness (shapes, dimensions) is
enforced at construction, while semantic invariants (orthogonality,
resolutions, postselection overlap) are measured by :func:`validate`,
which reports failures instead of raising.

The module also defines the JSON exchange format.  Files are UTF-8 JSON
documents with complex numbers encoded as two-element [re, im] arrays in
shortest round-trip decimal form, so save -> load -> save is
byte-idempotent for every scenario this package produces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import hilbert
from .hilbert import TOL_CHECK, StateVector

__all__ = [
    "PREDICTION",
    "RETRODICTION",
    "ScenarioParseError",
    "LabeledProjector",
    "Context",
    "PrePostScenario",
    "ForcedValue",
    "ValueAssignment",
    "CheckResult",
    "ValidationReport",
    "validate",
    "save",
    "load",
]

PREDICTION = "Prediction"
RETRODICTION = "Retrodiction"

_TOP_LEVEL_FIELDS = {"dim", "pre", "post", "projectors", "contexts", "exclusive_pairs", "metadata"}
_REQUIRED_FIELDS = {"dim", "pre", "post", "projectors", "contexts"}
_PROJECTOR_FIELDS = {"label", "state"}


class ScenarioParseError(ValueError):
    """A scenario file could not be parsed; the message names the location."""

    def __init__(self, message: str, location: str | None = None) -> None:
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


@dataclass(frozen=True)
class LabeledProjector:
    """A rank-1 projector named for use as a testable proposition."""

    label: str
    state: StateVector

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("projector label must be a nonempty string")


@dataclass(frozen=True)
class Context:
    """An ordered set of projector labels meant to resolve the identity."""

    members: tuple[str, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if len(members) < 2:
            raise ValueError(f"a context needs at least 2 members, got {len(members)}")
        for m in members:
            if not isinstance(m, str) or not m:
                raise ValueError("context members must be nonempty strings")
        object.__setattr__(self, "members", members)


@dataclass(frozen=True)
class PrePostScenario:
    """A pre/postselected system with its propositions and contexts.

    Construction enforces only structure (integer dim, matching dimensions,
    pairs of nonempty labels, string metadata).  Labels referenced by
    contexts or exclusive pairs are not resolved here; :func:`validate`
    reports dangling references as failures rather than exceptions.
    """

    dim: int
    pre: StateVector
    post: StateVector
    projectors: tuple[LabeledProjector, ...]
    contexts: tuple[Context, ...]
    exclusive_pairs: tuple[tuple[str, str], ...] = ()
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.dim, bool) or not isinstance(self.dim, int):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if self.pre.dim != self.dim or self.post.dim != self.dim:
            raise ValueError(
                f"pre/post dimensions ({self.pre.dim}, {self.post.dim}) do not match dim {self.dim}"
            )
        projectors = tuple(self.projectors)
        for p in projectors:
            if p.state.dim != self.dim:
                raise ValueError(f"projector {p.label!r} has dimension {p.state.dim}, expected {self.dim}")
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "contexts", tuple(self.contexts))
        pairs = tuple(self.exclusive_pairs)
        for pair in pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(m, str) and m for m in pair)):
                raise ValueError(f"exclusive pair must be two nonempty labels, got {pair!r}")
        object.__setattr__(self, "exclusive_pairs", pairs)
        metadata = dict(self.metadata)
        for key, value in metadata.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise ValueError(f"metadata keys and values must be strings, got {key!r}: {value!r}")
        object.__setattr__(self, "metadata", metadata)

    def labels(self) -> list[str]:
        return [p.label for p in self.projectors]

    def projector_map(self) -> dict[str, LabeledProjector]:
        """Label -> projector mapping; first occurrence wins on duplicates."""
        out: dict[str, LabeledProjector] = {}
        for p in self.projectors:
            out.setdefault(p.label, p)
        return out


@dataclass(frozen=True)
class ForcedValue:
    """A bit forced on a projector by the selection, with its justification."""

    label: str
    bit: int
    justification: str

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")
        if self.justification not in (PREDICTION, RETRODICTION):
            raise ValueError(f"unknown justification {self.justification!r}")


@dataclass(frozen=True)
class ValueAssignment:
    """A total 0/1 assignment over projector labels, stored sorted by label."""

    values: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        values = tuple(sorted((str(lab), int(bit)) for lab, bit in self.values))
        labels = [lab for lab, _ in values]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate label in assignment")
        for _, bit in values:
            if bit not in (0, 1):
                raise ValueError(f"assignment bits must be 0 or 1, got {bit!r}")
        object.__setattr__(self, "values", values)

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)

    def __getitem__(self, label: str) -> int:
        for lab, bit in self.values:
            if lab == label:
                return bit
        raise KeyError(label)


@dataclass(frozen=True)
class CheckResult:
    """One named validation measurement."""

    name: str
    passed: bool
    deviation: float | None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate(): one entry per scenario invariant."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate(s: PrePostScenario, tol_check: float = TOL_CHECK) -> ValidationReport:
    """Measure every scenario invariant and report pass/fail per check.

    Checks, in order: label uniqueness, label resolution (contexts and
    exclusive pairs), state normalization, postselection possibility,
    one resolution-of-identity entry per context, and one exclusivity
    entry per declared pair.  Both relations use the spectral norm: a
    context's deviation is :func:`hilbert.context_deviation`, which also
    bounds every pairwise overlap inside the context, and a pair's is
    |<a|b>|, the spectral norm of the product of its projectors.
    Dangling labels make the affected entries fail; nothing here raises
    on bad content.
    """
    checks: list[CheckResult] = []

    labels = s.labels()
    dupes = sorted({lab for lab in labels if labels.count(lab) > 1})
    checks.append(
        CheckResult(
            "labels_unique",
            not dupes,
            None,
            f"duplicates: {', '.join(dupes)}" if dupes else "",
        )
    )

    known = set(labels)
    referenced = [m for ctx in s.contexts for m in ctx.members]
    referenced += [lab for pair in s.exclusive_pairs for lab in pair]
    dangling = sorted({lab for lab in referenced if lab not in known})
    checks.append(
        CheckResult(
            "labels_resolve",
            not dangling,
            None,
            f"dangling: {', '.join(dangling)}" if dangling else "",
        )
    )

    norm_devs = [("pre", s.pre), ("post", s.post)]
    norm_devs += [(f"projector {p.label!r}", p.state) for p in s.projectors]
    measured = [(name, abs(float(np.linalg.norm(sv.amps)) - 1.0)) for name, sv in norm_devs]
    worst_name, worst_dev = max(measured, key=lambda item: item[1])
    checks.append(
        CheckResult(
            "states_normalized",
            worst_dev < tol_check,
            worst_dev,
            f"worst: {worst_name}",
        )
    )

    overlap = abs(hilbert.inner(s.post, s.pre))
    checks.append(
        CheckResult(
            "postselection_possible",
            overlap > tol_check,
            overlap,
            "|<post|pre>| must exceed the tolerance",
        )
    )

    pm = s.projector_map()
    for i, ctx in enumerate(s.contexts):
        name = f"context_resolution[{i}]"
        missing = [m for m in ctx.members if m not in pm]
        if missing:
            checks.append(CheckResult(name, False, None, f"dangling: {', '.join(missing)}"))
            continue
        dev = hilbert.context_deviation([pm[m].state for m in ctx.members])
        checks.append(CheckResult(name, dev < tol_check, dev, ", ".join(ctx.members)))

    for a, b in s.exclusive_pairs:
        name = f"exclusive_pair[{a},{b}]"
        if a not in pm or b not in pm:
            checks.append(CheckResult(name, False, None, "dangling label"))
            continue
        dev = abs(hilbert.inner(pm[a].state, pm[b].state))
        checks.append(CheckResult(name, dev < tol_check, dev, ""))

    return ValidationReport(tuple(checks))


def _amps_json(sv: StateVector) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in sv.amps.tolist()]


def save(s: PrePostScenario) -> bytes:
    """Serialize a scenario to UTF-8 JSON bytes.

    Floats are emitted in shortest round-trip decimal form, so loading
    the output and saving again reproduces the bytes exactly.
    """
    doc = {
        "dim": s.dim,
        "metadata": dict(s.metadata),
        "pre": _amps_json(s.pre),
        "post": _amps_json(s.post),
        "projectors": [{"label": p.label, "state": _amps_json(p.state)} for p in s.projectors],
        "contexts": [list(ctx.members) for ctx in s.contexts],
        "exclusive_pairs": [list(pair) for pair in s.exclusive_pairs],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _reject_constant(name: str):
    raise ScenarioParseError(f"non-finite literal {name!r} is not allowed")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"expected a number, got {value!r}", where)
    return float(value)


def _parse_state(node, dim: int, where: str, tol_norm: float) -> StateVector:
    if not isinstance(node, list):
        raise ScenarioParseError("state must be an array of [re, im] pairs", where)
    if len(node) != dim:
        raise ScenarioParseError(f"expected {dim} amplitudes, got {len(node)}", where)
    amps = []
    for j, pair in enumerate(node):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioParseError("amplitude must be a [re, im] pair", f"{where}[{j}]")
        re = _require_number(pair[0], f"{where}[{j}]")
        im = _require_number(pair[1], f"{where}[{j}]")
        amps.append(complex(re, im))
    try:
        return StateVector(amps, tol_norm=tol_norm)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), where) from exc


def load(data: bytes | str, *, lax: bool = False, tol_check: float = TOL_CHECK) -> PrePostScenario:
    """Parse scenario bytes produced by :func:`save` (or written by hand).

    Args:
        data: UTF-8 JSON bytes or text.
        lax: when true, unknown fields are ignored instead of rejected.
        tol_check: normalization tolerance applied to loaded states.

    Raises:
        ScenarioParseError: malformed syntax, wrong dimensions, unknown
            fields (strict mode), duplicate labels, or unnormalized
            states; the message names the offending location.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"file is not valid UTF-8: {exc}") from exc
    else:
        text = data

    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from exc

    if not isinstance(doc, dict):
        raise ScenarioParseError("top-level value must be an object")

    missing = sorted(_REQUIRED_FIELDS - set(doc))
    if missing:
        raise ScenarioParseError(f"missing required field(s): {', '.join(missing)}")
    unknown = sorted(set(doc) - _TOP_LEVEL_FIELDS)
    if unknown and not lax:
        raise ScenarioParseError(f"unknown field {unknown[0]!r}")

    dim = doc["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ScenarioParseError(f"expected an integer, got {dim!r}", "dim")
    if dim < 2:
        raise ScenarioParseError(f"dim must be at least 2, got {dim}", "dim")

    pre = _parse_state(doc["pre"], dim, "pre", tol_check)
    post = _parse_state(doc["post"], dim, "post", tol_check)

    if not isinstance(doc["projectors"], list):
        raise ScenarioParseError("projectors must be an array", "projectors")
    projectors: list[LabeledProjector] = []
    seen: set[str] = set()
    for i, node in enumerate(doc["projectors"]):
        where = f"projectors[{i}]"
        if not isinstance(node, dict):
            raise ScenarioParseError("projector must be an object", where)
        missing = sorted(_PROJECTOR_FIELDS - set(node))
        if missing:
            raise ScenarioParseError(f"missing field(s): {', '.join(missing)}", where)
        unknown = sorted(set(node) - _PROJECTOR_FIELDS)
        if unknown and not lax:
            raise ScenarioParseError(f"unknown field {unknown[0]!r}", where)
        label = node["label"]
        if not isinstance(label, str) or not label:
            raise ScenarioParseError("label must be a nonempty string", where)
        if label in seen:
            raise ScenarioParseError(f"duplicate label {label!r}", where)
        seen.add(label)
        state = _parse_state(node["state"], dim, f"{where}.state ({label!r})", tol_check)
        projectors.append(LabeledProjector(label, state))

    if not isinstance(doc["contexts"], list):
        raise ScenarioParseError("contexts must be an array", "contexts")
    contexts: list[Context] = []
    for i, node in enumerate(doc["contexts"]):
        where = f"contexts[{i}]"
        if not isinstance(node, list) or not all(isinstance(m, str) for m in node):
            raise ScenarioParseError("context must be an array of labels", where)
        try:
            contexts.append(Context(tuple(node)))
        except ValueError as exc:
            raise ScenarioParseError(str(exc), where) from exc

    pairs_node = doc.get("exclusive_pairs", [])
    if not isinstance(pairs_node, list):
        raise ScenarioParseError("exclusive_pairs must be an array", "exclusive_pairs")
    pairs: list[tuple[str, str]] = []
    for i, node in enumerate(pairs_node):
        where = f"exclusive_pairs[{i}]"
        if (
            not isinstance(node, list)
            or len(node) != 2
            or not all(isinstance(m, str) and m for m in node)
        ):
            raise ScenarioParseError("exclusive pair must be an array of exactly 2 labels", where)
        pairs.append((node[0], node[1]))

    metadata_node = doc.get("metadata", {})
    if not isinstance(metadata_node, dict):
        raise ScenarioParseError("metadata must be an object", "metadata")
    metadata: dict[str, str] = {}
    for key, value in metadata_node.items():
        if not isinstance(value, str):
            raise ScenarioParseError(
                f"metadata values must be strings, got {value!r}", f"metadata.{key}"
            )
        metadata[str(key)] = value

    try:
        return PrePostScenario(
            dim=dim,
            pre=pre,
            post=post,
            projectors=tuple(projectors),
            contexts=tuple(contexts),
            exclusive_pairs=tuple(pairs),
            metadata=metadata,
        )
    except ValueError as exc:
        raise ScenarioParseError(str(exc)) from exc
