"""Noncontextual value assignments: exhaustive search and refutation traces.

A noncontextual hidden-variable model assigns a fixed 0 or 1 to every
projector label, independent of measurement context, such that every
context contains exactly one 1, every declared exclusive pair contains
at most one 1, and all forced values are respected.
enumerate_assignments() decides satisfiability by checking all 2^n
assignments (vectorized over bitmask blocks) and keeps the satisfying
ones as bitmasks, decoding a ValueAssignment only when one is read.
When the constraints are unsatisfiable, a human-readable refutation is
built by unit propagation with exactly two rules: completing a context
whose other members are all 0, and flagging an exclusive pair driven to
a double 1.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import prepost
from .hilbert import TOL_CHECK
from .scenario import ForcedValue, PrePostScenario, ValueAssignment

__all__ = [
    "SAT",
    "UNSAT",
    "SUM_RULE",
    "EXCLUSIVITY",
    "CONFLICT",
    "MAX_EXHAUSTIVE_PROJECTORS",
    "EnumerationLimitError",
    "NoContradictionError",
    "PropagationIncompleteError",
    "TraceStep",
    "ContradictionTrace",
    "Witnesses",
    "SatisfiabilityReport",
    "enumerate_assignments",
    "contradiction_trace",
]

SAT = "SAT"
UNSAT = "UNSAT"

SUM_RULE = "SumRule"
EXCLUSIVITY = "Exclusivity"
CONFLICT = "CONFLICT"

MAX_EXHAUSTIVE_PROJECTORS = 24
_BLOCK = 1 << 20


class EnumerationLimitError(ValueError):
    """Too many projectors for exhaustive enumeration."""


class NoContradictionError(ValueError):
    """A refutation was requested but the constraints are satisfiable."""


class PropagationIncompleteError(RuntimeError):
    """The constraints are unsatisfiable but unit propagation cannot show it."""


@dataclass(frozen=True)
class TraceStep:
    """One inference: premises, the rule applied, and its conclusion.

    premises are strings of the form "label=bit"; conclusion is either
    another "label=bit" string or CONFLICT.
    """

    premises: tuple[str, ...]
    rule: str
    conclusion: str


@dataclass(frozen=True)
class ContradictionTrace:
    """An ordered refutation ending in a CONFLICT step."""

    steps: tuple[TraceStep, ...]

    def __post_init__(self) -> None:
        steps = tuple(self.steps)
        if not steps or steps[-1].conclusion != CONFLICT:
            raise ValueError("a contradiction trace must end in a CONFLICT step")
        object.__setattr__(self, "steps", steps)

    def conclusions(self) -> tuple[str, ...]:
        return tuple(step.conclusion for step in self.steps)


class Witnesses(Sequence):
    """Satisfying assignments kept as bitmasks, decoded when read.

    Mask k over the sorted labels maps the i-th label to bit
    (k >> (n-1-i)) & 1.  An integer index (negative too) decodes one
    ValueAssignment; a slice decodes a tuple of them.  len is the exact
    count and decodes nothing.  Equality is element-wise against another
    Witnesses or any sequence, so an empty Witnesses equals ().  The
    hash agrees with equality between Witnesses and equals hash(()) when
    empty; a nonempty one hashes its masks, not its decoded tuple, so
    that hashing never builds every assignment.
    """

    __slots__ = ("_labels", "_masks")

    def __init__(self, labels: tuple[str, ...], masks: np.ndarray) -> None:
        masks = np.asarray(masks, dtype=np.uint32).view()
        masks.flags.writeable = False
        self._labels = tuple(labels)
        self._masks = masks

    def _decode(self, k: int) -> ValueAssignment:
        top = len(self._labels) - 1
        return ValueAssignment(
            tuple((lab, (k >> (top - i)) & 1) for i, lab in enumerate(self._labels))
        )

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._decode(k) for k in self._masks[index].tolist())
        return self._decode(int(self._masks[operator.index(index)]))

    def __iter__(self):
        for k in self._masks:
            yield self._decode(int(k))

    def __eq__(self, other) -> bool:
        if isinstance(other, Witnesses):
            if len(self) != len(other):
                return False
            return not self or (
                self._labels == other._labels and np.array_equal(self._masks, other._masks)
            )
        if isinstance(other, Sequence) and not isinstance(other, (str, bytes)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        if not self:
            return hash(())
        return hash((self._labels, self._masks.tobytes()))

    def __repr__(self) -> str:
        return f"Witnesses({len(self)} assignments over {self._labels!r})"


@dataclass(frozen=True)
class SatisfiabilityReport:
    """Outcome of exhaustive enumeration.

    witnesses holds every satisfying assignment in lexicographic order
    of the sorted-label bit string (empty when UNSAT).  They are stored
    as bitmasks and built as ValueAssignment objects only when indexed,
    sliced or iterated; len(witnesses) is the exact count.  conflict
    carries a unit-propagation refutation when one exists, else None.
    """

    status: str
    witnesses: Witnesses
    assignments_examined: int
    conflict: ContradictionTrace | None


def _forced_map(forced: tuple[ForcedValue, ...]) -> dict[str, int]:
    out: dict[str, int] = {}
    for fv in forced:
        if fv.label in out and out[fv.label] != fv.bit:
            raise ValueError(f"conflicting forced values for {fv.label!r}")
        out[fv.label] = fv.bit
    return out


def enumerate_assignments(
    s: PrePostScenario, forced: tuple[ForcedValue, ...]
) -> SatisfiabilityReport:
    """Exhaustively decide whether a noncontextual assignment exists.

    Every 0/1 assignment over the scenario's labels is tested against
    the forced values, the one-1-per-context rule, and the declared
    exclusive pairs.  Labels are sorted; assignment k maps the i-th
    sorted label to bit (k >> (n-1-i)) & 1, so ascending k enumerates
    bit strings lexicographically.

    Raises:
        EnumerationLimitError: more than MAX_EXHAUSTIVE_PROJECTORS labels.
        ValueError: duplicate projector labels, forced values or
            constraints that reference unknown labels, or forced values
            that conflict with each other.
    """
    labels = sorted(s.labels())
    for a, b in zip(labels, labels[1:]):
        if a == b:
            raise ValueError(f"duplicate projector label {a!r}")
    n = len(labels)
    if n > MAX_EXHAUSTIVE_PROJECTORS:
        raise EnumerationLimitError(
            f"{n} projectors exceed the exhaustive limit of {MAX_EXHAUSTIVE_PROJECTORS}"
        )
    pos = {lab: n - 1 - i for i, lab in enumerate(labels)}

    forced_bits = _forced_map(forced)
    for lab in forced_bits:
        if lab not in pos:
            raise ValueError(f"forced value references unknown label {lab!r}")
    context_masks = []
    for ctx in s.contexts:
        mask = 0
        for m in ctx.members:
            if m not in pos:
                raise ValueError(f"context references unknown label {m!r}")
            mask |= 1 << pos[m]
        context_masks.append(mask)
    pair_masks = []
    for a, b in s.exclusive_pairs:
        if a not in pos or b not in pos:
            raise ValueError(f"exclusive pair references unknown label {a!r} or {b!r}")
        pair_masks.append((1 << pos[a]) | (1 << pos[b]))

    total = 1 << n
    force_mask = 0
    force_bits = 0
    for lab, bit in forced_bits.items():
        force_mask |= 1 << pos[lab]
        if bit:
            force_bits |= 1 << pos[lab]

    found = []
    for start in range(0, total, _BLOCK):
        block = np.arange(start, min(start + _BLOCK, total), dtype=np.uint32)
        ok = (block & np.uint32(force_mask)) == np.uint32(force_bits)
        for mask in context_masks:
            v = block & np.uint32(mask)
            ok &= (v != 0) & ((v & (v - np.uint32(1))) == 0)
        for mask in pair_masks:
            v = block & np.uint32(mask)
            ok &= (v & (v - np.uint32(1))) == 0
        found.append(block[ok])

    witnesses = Witnesses(tuple(labels), np.concatenate(found))
    if witnesses:
        return SatisfiabilityReport(SAT, witnesses, total, None)
    return SatisfiabilityReport(UNSAT, witnesses, total, _propagate(s, forced_bits))


def _propagate(s: PrePostScenario, forced_bits: dict[str, int]) -> ContradictionTrace | None:
    """Unit propagation from the forced values; None if it stalls.

    Two rules only, applied in a fixed order so traces are deterministic:
    first any declared exclusive pair with both members at 1 yields
    CONFLICT, then the first context with exactly one unassigned member
    and all others at 0 concludes that member is 1.
    """
    assigned = dict(forced_bits)
    steps: list[TraceStep] = []
    while True:
        for a, b in s.exclusive_pairs:
            if assigned.get(a) == 1 and assigned.get(b) == 1:
                steps.append(TraceStep((f"{a}=1", f"{b}=1"), EXCLUSIVITY, CONFLICT))
                return ContradictionTrace(tuple(steps))
        for ctx in s.contexts:
            unassigned = [m for m in ctx.members if m not in assigned]
            if len(unassigned) == 1 and all(assigned[m] == 0 for m in ctx.members if m in assigned):
                target = unassigned[0]
                premises = tuple(f"{m}=0" for m in ctx.members if m != target)
                steps.append(TraceStep(premises, SUM_RULE, f"{target}=1"))
                assigned[target] = 1
                break
        else:
            return None


def contradiction_trace(s: PrePostScenario, tol: float = TOL_CHECK) -> ContradictionTrace:
    """Refutation of noncontextual assignments for an unsatisfiable scenario.

    Computes the forced values, confirms unsatisfiability by exhaustive
    enumeration, and returns the unit-propagation refutation.

    Raises:
        NoContradictionError: the constraints are satisfiable.
        PropagationIncompleteError: unsatisfiable, but the two-rule
            propagation engine cannot certify it.
    """
    forced = prepost.forced_values(s, tol)
    report = enumerate_assignments(s, forced)
    if report.status == SAT:
        raise NoContradictionError("no contradiction exists: the constraints are satisfiable")
    if report.conflict is None:
        raise PropagationIncompleteError("UNSAT without unit-propagation certificate")
    return report.conflict
