"""Noncontextual value assignments: exhaustive search and refutation traces.

A noncontextual hidden-variable model assigns a fixed 0 or 1 to every
projector label, independent of measurement context, such that every
context contains exactly one 1, every declared exclusive pair contains
at most one 1, and all forced values are respected.
enumerate_assignments() decides satisfiability over all 2^n assignments.
Unit propagation from the forced bits runs first: it completes a context
whose other members are all 0 and flags a double 1 in an exclusive pair
or, once nothing else applies, a context with two 1s or none.  Every
satisfying assignment obeys each inference, so a CONFLICT decides UNSAT
and is the report's human-readable refutation.  Only when propagation
stalls does a vectorized breadth-first search over bitmask prefixes of the
sorted labels run, dropping a partial assignment as soon as a forced
value, context or exclusive pair rules it out (the propagation root and
pruning of Davis, Logemann and Loveland, CACM 5, 394 (1962)).  It keeps the
satisfying assignments as bitmasks, decoding ValueAssignments when read.
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
# No check temporary holds more than _BLOCK candidates.
_BLOCK = 1 << 20
# Checks wait while the next stop would still have at most _SMALL
# candidates: on arrays that short, one more pass costs more than the
# pruning saves, and a scenario of up to 8 labels is one pass.
_SMALL = 256


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

    Mask k over the sorted, distinct, nonempty string labels maps the i-th
    label to bit (k >> (n-1-i)) & 1.  An index (negative too) decodes one
    ValueAssignment and a slice a tuple, all bits in one numpy step and
    with no label or bit checked again.  len is the exact count and
    decodes nothing.  Equality is element-wise against another Witnesses
    or any sequence, so an empty Witnesses equals ().  The hash agrees
    with equality between Witnesses and equals hash(()) when empty; a
    nonempty one hashes its masks, so hashing never decodes.
    """

    __slots__ = ("_labels", "_masks")

    def __init__(self, labels: tuple[str, ...], masks: np.ndarray) -> None:
        masks = np.asarray(masks, dtype=np.uint32).view()
        masks.flags.writeable = False
        self._labels = labels = tuple(labels)
        if not all(isinstance(x, str) and x for x in labels) or list(labels) != sorted(set(labels)):
            raise ValueError(f"labels must be sorted, distinct, nonempty strings: {labels!r}")
        self._masks = masks

    def _decode(self, masks: np.ndarray) -> list[ValueAssignment]:
        if not len(masks):
            return []
        labels = self._labels
        shifts = np.arange(len(labels) - 1, -1, -1, dtype=np.uint32)
        rows = ((masks[:, None] >> shifts) & 1).tolist()
        return [ValueAssignment._unchecked(tuple(zip(labels, row))) for row in rows]

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._decode(self._masks[index]))
        return self._decode(self._masks[[operator.index(index)]])[0]

    def __iter__(self):
        for at in range(0, len(self._masks), 4096):
            yield from self._decode(self._masks[at:at + 4096])

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
    """Outcome of deciding all 2^n assignments.

    witnesses holds every satisfying assignment in lexicographic order
    of the sorted-label bit string (empty when UNSAT).  They are stored
    as bitmasks and built as ValueAssignment objects only when indexed,
    sliced or iterated; len(witnesses) is the exact count.
    assignments_examined is 2^n, the number of assignments decided: a
    propagation CONFLICT rules out all of them and the search a pruned
    prefix's extensions, without listing them.  conflict is the
    refutation that decided UNSAT, else None: SAT, or propagation stalled.
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

    Unit propagation runs first on the compiled masks: a CONFLICT decides
    UNSAT with that trace, and the search runs only if propagation stalls.
    Labels are sorted; assignment k maps the i-th sorted label to bit
    (k >> (n-1-i)) & 1, so ascending k enumerates bit strings
    lexicographically.  The search extends the surviving prefixes (the
    leading bits of k) over a run of labels at a time, with the forced
    bits of the run already set, and drops every prefix that breaks a
    context or exclusive pair whose members are all assigned.  A
    dropped prefix decides every assignment that extends it, so
    assignments_examined is always 2^n; the search stops at UNSAT as
    soon as no prefix survives.  Checks wait while the candidates are
    few, so a small scenario is one vectorized pass, and no check
    temporary holds more than 2^20 candidates.

    Raises:
        EnumerationLimitError: more than MAX_EXHAUSTIVE_PROJECTORS labels.
        ValueError: forced values that reference unknown labels or
            conflict with each other.  The scenario itself needs no
            check: its constructor refuses duplicate or dangling labels,
            repeated context members and self-pairs.
    """
    labels = sorted(s.labels())
    n = len(labels)
    if n > MAX_EXHAUSTIVE_PROJECTORS:
        raise EnumerationLimitError(
            f"{n} projectors exceed the exhaustive limit of {MAX_EXHAUSTIVE_PROJECTORS}"
        )
    pos = {lab: n - 1 - i for i, lab in enumerate(labels)}

    known = ones = 0
    for lab, bit in _forced_map(forced).items():
        if lab not in pos:
            raise ValueError(f"forced value references unknown label {lab!r}")
        known |= 1 << pos[lab]
        ones |= bit << pos[lab]
    context_masks = [sum(1 << pos[m] for m in ctx.members) for ctx in s.contexts]
    pair_masks = [(1 << pos[a]) | (1 << pos[b]) for a, b in s.exclusive_pairs]
    trace = _propagate(s, labels, context_masks, pair_masks, known, ones)
    if trace is not None:
        return SatisfiabilityReport(UNSAT, Witnesses(tuple(labels), ()), 1 << n, trace)

    # A check is decided on j-bit prefixes once its last sorted member,
    # the lowest set bit of its mask, is among them: j = n - that bit.
    checks: dict[int, tuple[list[int], list[int]]] = {n: ([], [])}
    for is_pair, masks in enumerate((context_masks, pair_masks)):
        for m in masks:
            checks.setdefault(n + 1 - (m & -m).bit_length(), ([], []))[is_pair].append(m)
    stops = sorted(checks)
    prefixes, done, contexts, pairs = np.zeros(1, np.uint32), 0, [], []
    for stop, after in zip(stops, stops[1:] + [None]):
        contexts += checks[stop][0]
        pairs += checks[stop][1]
        if after is not None and len(prefixes) << (after - done) <= _SMALL:
            continue  # still few candidates at the next stop: the checks wait
        shift = n - stop
        masks = np.array([m >> shift for m in contexts + pairs], dtype=np.uint32)
        prefixes = _search_run(
            prefixes, stop - done, known >> shift, ones >> shift, masks, len(contexts)
        )
        done, contexts, pairs = stop, [], []
        if not len(prefixes):
            break

    witnesses = Witnesses(tuple(labels), prefixes)
    return SatisfiabilityReport(SAT if witnesses else UNSAT, witnesses, 1 << n, None)


def _extend(prefixes: np.ndarray, w: int, force_mask: int, force_bits: int) -> np.ndarray:
    """Every prefix followed by every w-bit string that agrees with the low
    w forced bits, in ascending order."""
    run = np.arange(1 << w, dtype=np.uint32)
    low = (1 << w) - 1
    if force_mask & low:
        run = run[(run & (force_mask & low)) == (force_bits & low)]
    return ((prefixes[:, None] << w) | run).ravel()


def _passes(cand: np.ndarray, masks: np.ndarray, n_contexts: int) -> np.ndarray:
    """True where cand has at most one 1 under every mask, and at least one
    under each of the first n_contexts masks."""
    v = masks[:, None] & cand
    ok = ((v & (v - 1)) == 0).all(axis=0)
    if n_contexts:
        ok &= (v[:n_contexts] != 0).all(axis=0)
    return ok


def _search_run(
    prefixes: np.ndarray, w: int, force_mask: int, force_bits: int,
    masks: np.ndarray, n_contexts: int,
) -> np.ndarray:
    """Extend the prefixes over w labels and keep the candidates whose
    forced bits agree and that pass every mask check.

    The candidates are checked in slices so that no check temporary holds
    more than _BLOCK entries; a run too wide for one slice first extends
    its leading bits unchecked.  The survivors of each slice are kept as
    packed bits and gathered into one exactly-sized array.
    """
    if not len(masks):
        return _extend(prefixes, w, force_mask, force_bits)
    room = max(1, _BLOCK // len(masks))
    lead = max(0, w - (room.bit_length() - 1))
    if lead:
        w -= lead
        prefixes = _extend(prefixes, lead, force_mask >> w, force_bits >> w)
    if len(prefixes) << w <= room:
        cand = _extend(prefixes, w, force_mask, force_bits)
        return cand[_passes(cand, masks, n_contexts)]
    step = room >> w
    slices = [prefixes[i:i + step] for i in range(0, len(prefixes), step)]
    kept = []
    for part in slices:
        ok = _passes(_extend(part, w, force_mask, force_bits), masks, n_contexts)
        kept.append((np.packbits(ok), int(np.count_nonzero(ok))))
    out = np.empty(sum(count for _, count in kept), dtype=np.uint32)
    at = 0
    for part, (bits, count) in zip(slices, kept):
        cand = _extend(part, w, force_mask, force_bits)
        out[at:at + count] = cand[np.unpackbits(bits, count=len(cand)).view(bool)]
        at += count
    return out


def _propagate(
    s: PrePostScenario, labels: list[str], context_masks: list[int], pair_masks: list[int],
    known: int, ones: int,
) -> ContradictionTrace | None:
    """Unit propagation from the forced bits (known, with ones at 1); None if it stalls.

    Three rules, in a fixed order so traces are deterministic: a declared
    exclusive pair with both members at 1 yields CONFLICT; else the first
    context with one unassigned member and all others at 0 sets it to 1;
    once both stall, the first context with two or more 1s yields
    CONFLICT, and failing that the first context with every member at 0.
    """
    n = len(labels)
    steps: list[TraceStep] = []
    while True:
        for (a, b), m in zip(s.exclusive_pairs, pair_masks):
            if ones & m == m:
                steps.append(TraceStep((f"{a}=1", f"{b}=1"), EXCLUSIVITY, CONFLICT))
                return ContradictionTrace(tuple(steps))
        for ctx, m in zip(s.contexts, context_masks):
            free = m & ~known
            if free and not free & (free - 1) and not ones & m:
                target = labels[n - free.bit_length()]
                premises = tuple(f"{x}=0" for x in ctx.members if x != target)
                steps.append(TraceStep(premises, SUM_RULE, f"{target}=1"))
                known |= free
                ones |= free
                break
        else:
            break
    for ctx, m in zip(s.contexts, context_masks):
        if (at_one := ones & m) & (at_one - 1):
            premises = tuple(f"{x}=1" for x in ctx.members if ones >> (n - 1 - labels.index(x)) & 1)
            return ContradictionTrace((*steps, TraceStep(premises, SUM_RULE, CONFLICT)))
    for ctx, m in zip(s.contexts, context_masks):
        if known & m == m and not ones & m:
            premises = tuple(f"{x}=0" for x in ctx.members)
            return ContradictionTrace((*steps, TraceStep(premises, SUM_RULE, CONFLICT)))
    return None


def contradiction_trace(s: PrePostScenario, tol: float = TOL_CHECK) -> ContradictionTrace:
    """Refutation of noncontextual assignments for an unsatisfiable scenario.

    Computes the forced values, decides them with enumerate_assignments
    (propagation first, the search only if it stalls) and returns the
    unit-propagation refutation.

    Raises:
        NoContradictionError: the constraints are satisfiable.
        PropagationIncompleteError: unsatisfiable, but no rule of unit
            propagation, a context of 0s included, reaches a CONFLICT.
    """
    forced = prepost.forced_values(s, tol)
    report = enumerate_assignments(s, forced)
    if report.status == SAT:
        raise NoContradictionError("no contradiction exists: the constraints are satisfiable")
    if report.conflict is None:
        raise PropagationIncompleteError("UNSAT without unit-propagation certificate")
    return report.conflict
