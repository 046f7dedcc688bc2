"""Domain model for pre/postselected contextuality scenarios.

A scenario bundles a preselected state, a postselected state, a set of
labeled rank-1 projectors, the contexts (resolutions of identity) they
form, and any explicitly declared exclusive pairs.  Structure (types,
dimensions, distinct labels, contexts and pairs that name existing
projectors) is enforced once, at construction, so every scenario object
is well formed; semantic invariants (orthogonality, resolutions,
postselection overlap) are measured by :func:`validate`, which reports
failures instead of raising.

The module also defines the JSON exchange format.  Files are UTF-8 JSON
documents with complex numbers encoded as two-element [re, im] arrays in
shortest round-trip decimal form, so save -> load -> save is
byte-idempotent for every scenario that can be constructed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType

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


class _RuleError(ValueError):
    """A broken scenario rule; the message names the node when one is known."""

    def __init__(self, message: str, location: str | None = None) -> None:
        self.location = location
        self.reason = message
        super().__init__(message if location is None else f"{location}: {message}")


class ScenarioParseError(_RuleError):
    """A scenario file could not be parsed; the message names the location."""


@dataclass(frozen=True)
class LabeledProjector:
    """A rank-1 projector named for use as a testable proposition."""

    label: str
    state: StateVector

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("projector label must be a nonempty string")
        if not isinstance(self.state, StateVector):
            raise ValueError(f"projector state must be a StateVector, got {self.state!r}")


@dataclass(frozen=True)
class Context:
    """An ordered set of distinct projector labels meant to resolve the identity."""

    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.members, (tuple, list)):
            raise ValueError(f"context members must be a tuple or list, got {self.members!r}")
        members = tuple(self.members)
        if len(members) < 2:
            raise ValueError(f"a context needs at least 2 members, got {len(members)}")
        seen: set[str] = set()
        for m in members:
            if not isinstance(m, str) or not m:
                raise ValueError("context members must be nonempty strings")
            if m in seen:
                raise ValueError(f"context repeats member {m!r}")
            seen.add(m)
        object.__setattr__(self, "members", members)


@dataclass(frozen=True)
class PrePostScenario:
    """A pre/postselected system with its propositions and contexts.

    Construction enforces every structural rule, so a scenario that
    exists is well formed: an integer dim of at least 2, states of that
    dimension, distinct projector labels, contexts and exclusive pairs
    whose labels all name projectors, pairs of two different labels, and
    string metadata.  A broken rule raises ValueError naming the node,
    e.g. ``projectors[1]: duplicate label 'up'``.

    Construction also stacks pre, post and the projector states once,
    into a read-only (n + 2, dim) complex128 ``_block``, whose view
    ``states`` has row i equal to ``projectors[i].state.amps``; ``rows``
    maps each label to its row.  None is a dataclass field: the
    constructor, ``==`` and ``repr`` do not see them.
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
            raise _RuleError(f"dim must be an integer, got {self.dim!r}", "dim")
        if self.dim < 2:
            raise _RuleError(f"dim must be at least 2, got {self.dim}", "dim")
        for where in ("pre", "post"):
            state = getattr(self, where)
            if not isinstance(state, StateVector):
                raise _RuleError(f"expected a StateVector, got {state!r}", where)
            if state.dim != self.dim:
                raise _RuleError(f"dimension {state.dim} does not match dim {self.dim}", where)

        projectors = tuple(self.projectors)
        known: set[str] = set()
        for i, p in enumerate(projectors):
            if not isinstance(p, LabeledProjector):
                raise _RuleError(f"expected a LabeledProjector, got {p!r}", f"projectors[{i}]")
            if p.state.dim != self.dim:
                raise _RuleError(f"projector {p.label!r} has dimension {p.state.dim}, "
                                 f"expected {self.dim}", f"projectors[{i}]")
            if p.label in known:
                raise _RuleError(f"duplicate label {p.label!r}", f"projectors[{i}]")
            known.add(p.label)
        object.__setattr__(self, "projectors", projectors)
        block = np.array([self.pre.amps, self.post.amps, *(p.state.amps for p in projectors)])
        block.setflags(write=False)
        object.__setattr__(self, "_block", block)
        object.__setattr__(self, "states", block[2:])
        rows = MappingProxyType({p.label: i for i, p in enumerate(projectors)})
        object.__setattr__(self, "rows", rows)

        contexts = tuple(self.contexts)
        for i, ctx in enumerate(contexts):
            if not isinstance(ctx, Context):
                raise _RuleError(f"expected a Context, got {ctx!r}", f"contexts[{i}]")
            for m in ctx.members:
                if m not in known:
                    raise _RuleError(f"context references unknown label {m!r}", f"contexts[{i}]")
        object.__setattr__(self, "contexts", contexts)

        pairs = tuple(self.exclusive_pairs)
        for i, pair in enumerate(pairs):
            where = f"exclusive_pairs[{i}]"
            if not (isinstance(pair, tuple) and len(pair) == 2
                    and all(isinstance(m, str) and m for m in pair)):
                raise _RuleError(f"exclusive pair must be two nonempty labels, got {pair!r}", where)
            for m in pair:
                if m not in known:
                    raise _RuleError(f"exclusive pair references unknown label {m!r}", where)
            if pair[0] == pair[1]:
                raise _RuleError(f"exclusive pair repeats label {pair[0]!r}", where)
        object.__setattr__(self, "exclusive_pairs", pairs)

        if not isinstance(self.metadata, dict):
            raise _RuleError(f"expected a dict, got {self.metadata!r}", "metadata")
        metadata = dict(self.metadata)
        for key, value in metadata.items():
            if not (isinstance(key, str) and isinstance(value, str)):
                raise _RuleError(
                    f"metadata keys and values must be strings, got {key!r}: {value!r}",
                    f"metadata.{key}",
                )
        object.__setattr__(self, "metadata", metadata)

    def labels(self) -> list[str]:
        return [p.label for p in self.projectors]


def _check_label_bit(label, bit) -> None:
    """Refuse anything but a nonempty string label and the int 0 or 1."""
    if not isinstance(label, str) or not label:
        raise ValueError(f"label must be a nonempty string, got {label!r}")
    if type(bit) is not int or bit not in (0, 1):
        raise ValueError(f"bit must be the int 0 or 1, got {bit!r}")


@dataclass(frozen=True)
class ForcedValue:
    """A bit forced on a projector by the selection, with its justification.

    The label and bit follow the rule of :class:`ValueAssignment`.
    """

    label: str
    bit: int
    justification: str

    def __post_init__(self) -> None:
        _check_label_bit(self.label, self.bit)
        if self.justification not in (PREDICTION, RETRODICTION):
            raise ValueError(f"unknown justification {self.justification!r}")

    @classmethod
    def _unchecked(cls, label: str, bit: int, justification: str) -> ForcedValue:
        """No checks: the label must be a nonempty str, the bit the Python int 0 or 1."""
        self = object.__new__(cls)
        self.__dict__.update(label=label, bit=bit, justification=justification)
        return self


@dataclass(frozen=True)
class ValueAssignment:
    """A total 0/1 assignment over projector labels, stored sorted by label.

    Labels must be nonempty strings and bits the ints 0 or 1 (not bool
    or float); anything else raises ValueError rather than being coerced.
    """

    values: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        pairs = [(lab, bit) for lab, bit in self.values]
        for lab, bit in pairs:
            _check_label_bit(lab, bit)
        values = tuple(sorted(pairs))
        if len({lab for lab, _ in values}) != len(values):
            raise ValueError("duplicate label in assignment")
        object.__setattr__(self, "values", values)

    @classmethod
    def _unchecked(cls, values: tuple[tuple[str, int], ...]) -> ValueAssignment:
        """No checks: labels must be sorted, distinct, nonempty strs; bits the Python ints 0 or 1."""
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        return self

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
    """Measure every semantic invariant and report pass/fail per check.

    Checks, in order: state normalization (the deviations states keep
    from :func:`hilbert.unit_states`), postselection possibility,
    one resolution-of-identity entry per context, and one exclusivity
    entry per declared pair.  Label structure needs no check here: the
    constructors refuse duplicate and dangling labels.  Both relations
    use the spectral norm: a context's deviation is
    ||sum_i |v_i><v_i| - I||_2, which also bounds every pairwise overlap
    inside the context, and a pair's is |<a|b>|, the spectral norm of
    the product of its projectors.  Contexts of one size share one
    :func:`hilbert.context_deviations` call on their member rows, which
    reads each deviation from their singular values (at least 1 below
    dim members), bit for bit the one-context value.  Nothing here
    raises on bad content; a tol_check outside (0, inf) raises ValueError.
    """
    hilbert._check_tol(tol_check)
    checks: list[CheckResult] = []

    deviations = [s.pre._dev, s.post._dev, *(p.state._dev for p in s.projectors)]
    worst_dev = max(deviations)
    worst = deviations.index(worst_dev)
    worst_name = (("pre", "post")[worst] if worst < 2
                  else f"projector {s.projectors[worst - 2].label!r}")
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

    by_size: dict[int, list[int]] = {}
    for i, ctx in enumerate(s.contexts):
        by_size.setdefault(len(ctx.members), []).append(i)
    deviations = [0.0] * len(s.contexts)
    for group in by_size.values():
        rows = [[s.rows[m] for m in s.contexts[i].members] for i in group]
        for i, dev in zip(group, hilbert.context_deviations(s.states[rows]).tolist()):
            deviations[i] = dev
    for i, (ctx, dev) in enumerate(zip(s.contexts, deviations)):
        checks.append(
            CheckResult(f"context_resolution[{i}]", dev < tol_check, dev, ", ".join(ctx.members))
        )

    for a, b in s.exclusive_pairs:
        dev = abs(hilbert.inner(s.projectors[s.rows[a]].state, s.projectors[s.rows[b]].state))
        checks.append(CheckResult(f"exclusive_pair[{a},{b}]", dev < tol_check, dev, ""))

    return ValidationReport(tuple(checks))


# JSONEncoder(ensure_ascii=False).encode for a str, without its Python frame: labels,
# members and metadata are always str, as the constructors enforce.
_quote = json.encoder.encode_basestring


def _state_template(dim: int, pad: str) -> str:
    """%-template of one state's [[re, im], ...] array whose items sit at pad."""
    inner = pad + "  "
    amp = f"{pad}[\n{inner}%r,\n{inner}%r\n{pad}]"
    return "[\n" + ",\n".join([amp] * dim) + f"\n{pad[:-2]}]"


def _block(items: list[str], pad: str, opening: str = "[", closing: str = "]") -> str:
    """Already-encoded items, one per line at pad, in json's indent=2 layout."""
    if not items:
        return opening + closing
    return f"{opening}\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}{closing}"


def save(s: PrePostScenario) -> bytes:
    """Serialize a scenario to UTF-8 JSON bytes.

    The bytes are those of ``json.dumps(doc, indent=2,
    ensure_ascii=False) + "\n"`` for the document with keys dim,
    metadata, pre, post, projectors, contexts and exclusive_pairs.  The
    layout is fixed, so it is written directly: every amplitude comes
    from one ``tolist()`` of the scenario's [pre, post, states] block and is
    written with ``float.__repr__``, as json does, and strings go
    through json's C string encoder.  Floats are in shortest round-trip
    form, so loading the output and saving again reproduces the bytes.
    """
    amps = s._block.view(np.float64).tolist()
    selection, state = _state_template(s.dim, "    "), _state_template(s.dim, "        ")
    projectors = [
        f'{{\n      "label": {_quote(p.label)},\n      "state": {state % tuple(row)}\n    }}'
        for p, row in zip(s.projectors, amps[2:])
    ]
    metadata = [f"{_quote(k)}: {_quote(v)}" for k, v in s.metadata.items()]
    contexts = [_block([_quote(m) for m in ctx.members], "      ") for ctx in s.contexts]
    pairs = [_block([_quote(a), _quote(b)], "      ") for a, b in s.exclusive_pairs]
    text = (
        f'{{\n  "dim": {int(s.dim)},\n  "metadata": {_block(metadata, "    ", "{", "}")},'
        f'\n  "pre": {selection % tuple(amps[0])},\n  "post": {selection % tuple(amps[1])},'
        f'\n  "projectors": {_block(projectors, "    ")},'
        f'\n  "contexts": {_block(contexts, "    ")},'
        f'\n  "exclusive_pairs": {_block(pairs, "    ")}\n}}\n'
    )
    return text.encode("utf-8")


def _reject_constant(name: str):
    raise ScenarioParseError(f"non-finite literal {name!r} is not allowed")


_decoder = json.JSONDecoder(parse_constant=_reject_constant)  # json.loads builds one per call


def _build(name: str, build, *columns) -> list:
    """build(*row) per row of columns; a ValueError is a parse error at name[row index]."""
    built = []
    try:
        for row in zip(*columns):
            built.append(build(*row))
    except ValueError as exc:
        raise ScenarioParseError(str(exc), f"{name}[{len(built)}]") from exc
    return built


def _state_node(node, i: int, where) -> list:
    """State node i, checked to be an array of [re, im] number pairs; where(i) names it on failure."""
    if not isinstance(node, list):
        raise ScenarioParseError("state must be an array of [re, im] pairs", where(i))
    for j, pair in enumerate(node):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioParseError("amplitude must be a [re, im] pair", f"{where(i)}[{j}]")
        if type(pair[0]) is float and type(pair[1]) is float:
            continue
        for x in pair:
            if type(x) is not int and type(x) is not float:
                raise ScenarioParseError(f"expected a number, got {x!r}", f"{where(i)}[{j}]")
            try:
                float(x)
            except OverflowError:
                raise ScenarioParseError("integer is out of the float range",
                                         f"{where(i)}[{j}]") from None
    return node


def _load_states(nodes: list[list], tol_norm: float, where) -> list[StateVector]:
    """StateVectors of checked nodes, one block if all lengths agree; node i fails at where(i)."""
    states, n = [], len(nodes)
    for group in [range(n)] if len({*map(len, nodes)}) == 1 else [[i] for i in range(n)]:
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(nodes[i] for i in group)), float)
        try:
            states += hilbert.unit_states(flat.view(complex).reshape(len(group), -1), tol_norm)
        except hilbert.RowError as exc:
            raise ScenarioParseError(str(exc), where(group[exc.row])) from None
    return states


def load(data: bytes | str, *, lax: bool = False, tol_check: float = TOL_CHECK) -> PrePostScenario:
    """Parse scenario bytes produced by :func:`save` (or written by hand).

    load checks the JSON shape; every other rule is the constructors',
    and a broken one is reported at the node that breaks it.

    Args:
        data: UTF-8 JSON bytes or text.
        lax: when true, unknown fields are ignored instead of rejected.
        tol_check: normalization tolerance of loaded states; ValueError unless in (0, inf).

    Raises:
        ScenarioParseError: malformed syntax (an integer past the
            interpreter's digit limit and nesting past its recursion
            limit included), an amplitude that is not a number or that
            no float holds, unknown fields (strict mode), non-finite or
            unnormalized states, or a scenario the constructors
            refuse: a bad dim, wrong dimensions, duplicate labels,
            context or pair labels that name no projector, repeated
            context members, self-pairs, or non-string labels or
            metadata.  The location names the offending node.
    """
    hilbert._check_tol(tol_check)
    text = data
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioParseError(f"file is not valid UTF-8: {exc}") from exc

    try:
        doc = (_decoder.decode(text) if isinstance(text, str) and not text.startswith("\ufeff")
               else json.loads(text, parse_constant=_reject_constant))  # its own refusals
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, f"line {exc.lineno} column {exc.colno}") from exc
    except ScenarioParseError:
        raise
    except (ValueError, RecursionError) as exc:  # too many digits or too deep a nesting
        raise ScenarioParseError(str(exc)) from exc

    if not isinstance(doc, dict):
        raise ScenarioParseError("top-level value must be an object")

    missing = sorted(_REQUIRED_FIELDS - set(doc))
    if missing:
        raise ScenarioParseError(f"missing required field(s): {', '.join(missing)}")
    unknown = sorted(set(doc) - _TOP_LEVEL_FIELDS)
    if unknown and not lax:
        raise ScenarioParseError(f"unknown field {unknown[0]!r}")

    def where(i: int) -> str:  # state node i: pre, post, then each projector's state
        return ("pre", "post")[i] if i < 2 else f"projectors[{i-2}].state ({nodes[i-2]['label']!r})"

    states = [_state_node(doc["pre"], 0, where), _state_node(doc["post"], 1, where)]
    nodes = doc["projectors"]
    if not isinstance(nodes, list):
        raise ScenarioParseError("projectors must be an array", "projectors")
    for i, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ScenarioParseError("projector must be an object", f"projectors[{i}]")
        if node.keys() != _PROJECTOR_FIELDS:
            missing = sorted(_PROJECTOR_FIELDS - set(node))
            if missing:
                raise ScenarioParseError(f"missing field(s): {', '.join(missing)}", f"projectors[{i}]")
            unknown = sorted(set(node) - _PROJECTOR_FIELDS)
            if unknown and not lax:
                raise ScenarioParseError(f"unknown field {unknown[0]!r}", f"projectors[{i}]")
        states.append(_state_node(node["state"], i + 2, where))
    pre, post, *states = _load_states(states, tol_check, where)
    projectors = _build("projectors", LabeledProjector, [node["label"] for node in nodes], states)

    if not isinstance(doc["contexts"], list):
        raise ScenarioParseError("contexts must be an array", "contexts")
    contexts = _build("contexts", Context, doc["contexts"])

    pairs_node = doc.get("exclusive_pairs", [])
    if not isinstance(pairs_node, list):
        raise ScenarioParseError("exclusive_pairs must be an array", "exclusive_pairs")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ScenarioParseError("metadata must be an object", "metadata")

    try:
        return PrePostScenario(
            dim=doc["dim"],
            pre=pre,
            post=post,
            projectors=tuple(projectors),
            contexts=tuple(contexts),
            exclusive_pairs=tuple(tuple(n) if isinstance(n, list) else n for n in pairs_node),
            metadata=metadata,
        )
    except _RuleError as exc:
        raise ScenarioParseError(exc.reason, exc.location) from exc
