"""Noncontextual value assignments: exact counting, listing and refutation traces.

A noncontextual hidden-variable model assigns a fixed 0 or 1 to every
projector label, independent of measurement context, such that every
context contains exactly one 1, every declared exclusive pair at most
one, and all forced values are respected.  enumerate_assignments()
decides all 2^n assignments.  Unit propagation from the forced bits runs
first, and a CONFLICT, which every satisfying assignment would obey, is
the report's refutation.  Only if it stalls does a pure-Python count over
bitmasks run: DPLL (Davis, Logemann and Loveland, CACM 5, 394 (1962))
with component caching (Sang et al., SAT 2004), and before each branch
Gaussian elimination over GF(2) (Soos, Nohl and Castelluccia, SAT 2009):
every context holds an odd number of 1s, so KS18, each ray in two of its
nine contexts, is refuted with no branch.  A node budget caps the work, not n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import islice, product
from operator import eq, or_
from typing import NamedTuple

from . import prepost
from .hilbert import TOL_CHECK
from .scenario import ForcedValue, PrePostScenario, ValueAssignment

__all__ = [
    "SAT",
    "UNSAT",
    "SUM_RULE",
    "EXCLUSIVITY",
    "CONFLICT",
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

_NODE_BUDGET = 1 << 16  # components a count may cache before EnumerationLimitError
_BYTE_BITS = list(product((0, 1), repeat=8))  # entry v: the bits of byte v, high first


class EnumerationLimitError(ValueError):
    """The count needs more components than the node budget, or recurses too deep."""


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


class _Constraints(NamedTuple):
    """A scenario and its forced values as bits, the i-th of n sorted labels
    being bit n-1-i: each context's and exclusive pair's member bits in
    declared order, forced bits (known) and forced 1s (ones)."""

    labels: tuple[str, ...]
    contexts: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[int, ...], ...]
    known: int
    ones: int


def _parity_odd(contexts, known: int) -> bool:
    """Whether Gaussian elimination over GF(2) refutes the contexts.

    Exactly one free member of a context is 1, so the XOR of its free
    members is 1: the row m & ~known, shifted up, with the right-hand side
    in bit 0.  Some row reduces to exactly 1 (0 = 1) iff no 0/1 values
    make every row's XOR 1, and then no model exists.
    """
    pivots: dict[int, int] = {}  # leading bit: the reduced row that leads with it
    for m in contexts:
        row = (m & ~known) << 1 | 1
        while row > 1 and (top := 1 << row.bit_length() - 1) in pivots:
            row ^= pivots[top]
        if row == 1:
            return True
        if row:
            pivots[top] = row
    return False


def _open(bits: int, contexts, pairs, near, known: int, ones: int, cache: dict):
    """Count the assignments of the free bits among bits that extend (known, ones)
    with exactly one 1 in each context and at most one in each pair.

    Every 1 must have its near bits known.  Propagation makes a context's last free
    member 1 and fails on a context with no 1 and no free member.  Returns (count,
    known, ones, parts) at its fixpoint, count 0 on failure; parts are the open
    constraints' components (free bits, contexts, pairs), grown through near bits:
    only an open constraint holds two free bits.  One context counts its free members;
    any other component is cached by its mask and known bits (all 0 under it).  A miss
    with _NODE_BUDGET entries cached raises EnumerationLimitError, else counts 0 if
    _parity_odd refutes its contexts or branches on its smallest constraint's lowest free bit.
    """
    fired = True
    while fired:
        fired = False
        for m in contexts:
            if not ones & m and not (free := m & ~known) & (free - 1):
                if not free:
                    return 0, known, ones, []
                known |= free | near[free]
                ones |= free
                fired = True
    contexts = [m for m in contexts if not ones & m]
    pairs = [m for m in pairs if not known & m]
    rest = reduce(or_, contexts + pairs, 0) & ~known  # the free bits of open constraints
    total, parts = 1 << (bits & ~(known | rest)).bit_count(), []  # each other free bit: 0 or 1
    while rest:
        free, grow = 0, (contexts or pairs)[0] & ~known
        while grow and free | grow != rest:  # grow the component through each free bit's near bits
            free |= (bit := grow & -grow)
            grow = (grow | near[bit]) & ~(known | free)
        if rest := rest & ~(free := free | grow):
            ctxs, contexts = [m for m in contexts if m & free], [m for m in contexts if not m & free]
            prs, pairs = [m for m in pairs if m & free], [m for m in pairs if not m & free]
        else:  # the last component holds every open constraint
            ctxs, prs = contexts, pairs
        if len(ctxs) == 1 and not prs:
            n = free.bit_count()
        elif (n := cache.get(key := (mask := reduce(or_, ctxs + prs), known & mask))) is None:
            if len(cache) >= _NODE_BUDGET:
                raise EnumerationLimitError(f"the count needs more than {_NODE_BUDGET} components")
            if _parity_odd(ctxs, known):
                n = cache[key] = 0
            else:
                low = prs[0] if prs else min([m & ~known for m in ctxs], key=int.bit_count)
                bit = low & -low
                n = cache[key] = _open(free, ctxs, prs, near, known | bit, ones, cache)[0] + _open(
                    free, ctxs, prs, near, known | bit | near[bit], ones | bit, cache)[0]
        if not n:
            return 0, known, ones, []
        total *= n
        parts.append((free, ctxs, prs))
    return total, known, ones, parts


def _guarded(*args):
    try:
        return _open(*args)
    except RecursionError:
        raise EnumerationLimitError("the count recurses deeper than the interpreter allows") from None


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        out.append(bit := mask & -mask)
        mask ^= bit
    return out


def _digits(free: int, parts) -> list[list[int]] | None:
    """Mixed-radix digits whose product lists the models under free in ascending-mask
    order: each part's members and each bit no part holds (0 or the bit), by top choice.
    None if a part is not one context, or a digit's second choice is below the next's top."""
    for held, ctxs, prs in parts:
        if len(ctxs) > 1 or prs:
            return None
        free ^= held
    digits = [_bits(p[0]) for p in parts] + [[0, bit] for bit in _bits(free)]
    digits.sort(key=max, reverse=True)
    return digits if all(d[1] > e[-1] for d, e in zip(digits, digits[1:])) else None


class Witnesses:
    """The satisfying masks of compiled constraints, ascending, each read as
    a ValueAssignment built without checks.  Nothing is kept per assignment:
    count is the exact number at any size, 0 with no search when unit
    propagation refutes the constraints (its trace is _conflict), and len()
    returns it up to CPython's index-size limit.  Iteration and the one read
    w[:k] run a depth-first search that skips subtrees with no model.  Equal
    constraints are equal at once, and other Witnesses are compared by mask.
    Unhashable: a hash agreeing with equality would list every record.
    """

    __slots__ = ("_c", "_near", "count", "_cache", "_root", "_conflict")

    def __init__(self, c: _Constraints) -> None:
        if not all(isinstance(x, str) and x for x in c.labels) or list(c.labels) != sorted(set(c.labels)):
            raise ValueError(f"labels must be sorted, distinct, nonempty strings: {c.labels!r}")
        self._c, self._cache, self._near, self._conflict = c, {}, {}, _propagate(c)
        if self._conflict:  # refuted: count 0, no search state
            self.count, self._root = 0, []
            return
        contexts, pairs = [sum(ms) for ms in c.contexts], [sum(ms) for ms in c.pairs]
        near = self._near  # each bit's fellow members in its contexts and pairs
        for members, m in zip(c.contexts + c.pairs, contexts + pairs):
            for bit in members:
                near[bit] = near.get(bit, 0) | m ^ bit
        known = reduce(or_, [v for b, v in near.items() if c.ones & b], c.known | c.ones)  # fellows of a 1: 0
        self.count, *self._root = _guarded(
            (1 << len(c.labels)) - 1, contexts, pairs, near, known, c.ones, self._cache)

    def _walk(self):
        """Masks ascending: branch on the top free bit, 0 first, re-count the
        part that holds it with _open on each side, and keep the sides with a model."""
        near, cache, every = self._near, self._cache, (1 << len(self._c.labels)) - 1
        stack = [self._root] if self.count else []
        while stack:
            known, ones, parts = stack.pop()
            free = every & ~known
            if (digits := _digits(free, parts)) is not None:
                yield from map(sum, product((ones,), *digits))
                continue
            bit = 1 << (free.bit_length() - 1)
            for i, (held, ctxs, prs) in enumerate(parts):
                if held & bit:
                    others = parts[:i] + parts[i + 1:]
                    kids = [(k, o, others + sub) for m, k, o, sub in (
                        _guarded(held, ctxs, prs, near, known | bit, ones, cache),
                        _guarded(held, ctxs, prs, near, known | bit | near[bit], ones | bit, cache)) if m]
                    break
            else:  # no open constraint holds the bit
                kids = [(known | bit, ones | one, parts) for one in (0, bit)]
            stack += reversed(kids)

    def _record(self, k: int) -> ValueAssignment:
        labels = self._c.labels
        raw = (k << (-len(labels) % 8)).to_bytes((len(labels) + 7) // 8, "big")
        return ValueAssignment._unchecked(tuple(zip(labels, sum(map(_BYTE_BITS.__getitem__, raw), ()))))

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index) -> tuple[ValueAssignment, ...]:
        """Only the prefix w[:k], k >= 0 or None: the first k records."""
        k = index.stop if isinstance(index, slice) and index.start is index.step is None else -1
        if not (k is None or isinstance(k, int) and k >= 0):
            raise TypeError(f"Witnesses reads only a prefix w[:k] with k >= 0 or None, not {index!r}")
        return tuple(islice(self, k))

    def __iter__(self):
        return map(self._record, self._walk())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Witnesses):
            return NotImplemented
        return self._c == other._c or self.count == other.count and (not self.count or (
            self._c.labels == other._c.labels and all(map(eq, self._walk(), other._walk()))))

    def __repr__(self) -> str:
        return f"Witnesses({self.count} assignments over {self._c.labels!r})"


@dataclass(frozen=True)
class SatisfiabilityReport:
    """Outcome of deciding all 2^n assignments.

    witnesses holds every satisfying assignment in lexicographic order of
    the sorted-label bit string, found only when read; witnesses.count is
    their number.
    assignments_examined is 2^n, the number of assignments decided, none
    of them listed.  conflict is the refutation that decided UNSAT, else
    None: SAT, or propagation stalled.
    """

    status: str
    witnesses: Witnesses
    assignments_examined: int
    conflict: ContradictionTrace | None


def enumerate_assignments(
    s: PrePostScenario, forced: tuple[ForcedValue, ...]
) -> SatisfiabilityReport:
    """Exhaustively decide whether a noncontextual assignment exists.

    The scenario and forced values are compiled once, and Witnesses runs
    unit propagation on them first: a CONFLICT decides UNSAT with that
    trace.  Only if it stalls does the search count the satisfying
    assignments, without listing them; assignment k maps the i-th sorted
    label to bit (k >> (n-1-i)) & 1.

    Raises:
        EnumerationLimitError: the count outgrows its node budget or recursion limit.
        ValueError: forced values that reference unknown labels or
            conflict with each other.  The scenario itself needs no
            check: its constructor refuses duplicate or dangling labels,
            repeated context members and self-pairs.
    """
    labels = sorted(s.labels())
    n = len(labels)
    bits = {lab: 1 << (n - 1 - i) for i, lab in enumerate(labels)}
    values: dict[str, int] = {}
    for fv in forced:
        if values.setdefault(fv.label, fv.bit) != fv.bit:
            raise ValueError(f"conflicting forced values for {fv.label!r}")
    known = ones = 0
    for lab, bit in values.items():
        if lab not in bits:
            raise ValueError(f"forced value references unknown label {lab!r}")
        known, ones = known | bits[lab], ones | bits[lab] * bit
    contexts = tuple(tuple(map(bits.__getitem__, ctx.members)) for ctx in s.contexts)
    pairs = tuple((bits[a], bits[b]) for a, b in s.exclusive_pairs)
    witnesses = Witnesses(_Constraints(tuple(labels), contexts, pairs, known, ones))
    return SatisfiabilityReport(SAT if witnesses.count else UNSAT, witnesses, 1 << n, witnesses._conflict)


def _propagate(c: _Constraints) -> ContradictionTrace | None:
    """Unit propagation from c's forced bits (known, with ones at 1); None if it stalls.

    Three rules, in a fixed order so traces are deterministic: a declared
    exclusive pair with both members at 1 yields CONFLICT; else the first
    context with one unassigned member and all others at 0 sets it to 1;
    once both stall, the first context with two or more 1s yields
    CONFLICT, and failing that the first context with every member at 0.
    One pass in declared order makes every step: a step's 1 lands only in
    contexts holding its bit, so none already passed turns unit.  A pair can
    close only where a forced or new 1 meets a partner at 1; the pass stops there.
    """
    labels, known, ones, n = c.labels, c.known, c.ones, len(c.labels)
    contexts, pairs = [(ms, sum(ms)) for ms in c.contexts], [(ms, sum(ms)) for ms in c.pairs]
    partner: dict[int, int] = {}  # each bit: the OR of its exclusive-pair fellows
    for a, b in c.pairs:
        partner[a], partner[b] = partner.get(a, 0) | b, partner.get(b, 0) | a
    steps: list[TraceStep] = []

    def said(members, among: int, bit: int) -> tuple[str, ...]:  # those in among, as "label=bit"
        return tuple(f"{labels[n - b.bit_length()]}={bit}" for b in members if b & among)

    met = ones and any(ones & m == m for _, m in pairs)  # the forced 1s close a pair: no step
    for ms, m in () if met else contexts:
        free = m & ~known
        if free and not free & (free - 1) and not ones & m:
            target = f"{labels[n - free.bit_length()]}=1"
            steps.append(TraceStep(said(ms, m ^ free, 0), SUM_RULE, target))
            known, ones = known | free, ones | free
            if met := partner.get(free, 0) & ones:  # the new 1 closes a pair
                break
    for ms, m in pairs if met else ():
        if ones & m == m:
            return ContradictionTrace((*steps, TraceStep(said(ms, m, 1), EXCLUSIVITY, CONFLICT)))
    for ms, m in contexts:
        if (at_one := ones & m) & (at_one - 1):
            return ContradictionTrace((*steps, TraceStep(said(ms, ones, 1), SUM_RULE, CONFLICT)))
    for ms, m in contexts:
        if known & m == m and not ones & m:
            return ContradictionTrace((*steps, TraceStep(said(ms, m, 0), SUM_RULE, CONFLICT)))
    return None


def contradiction_trace(s: PrePostScenario, tol: float = TOL_CHECK) -> ContradictionTrace:
    """Refutation of noncontextual assignments for an unsatisfiable scenario.

    Computes the forced values, decides them with enumerate_assignments
    (propagation first, the counting search only if it stalls) and returns
    the unit-propagation refutation.

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
