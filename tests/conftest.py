"""Shared test constructions, strategies and oracles."""

import itertools

import numpy as np
from hypothesis import strategies as st

from qpp import (
    CONFLICT, EXCLUSIVITY, SUM_RULE, Context, ContradictionTrace, ForcedValue, LabeledProjector,
    PrePostScenario, StateVector, TraceStep,
)
from qpp.optimizer import MAX_REFINE_ITERATIONS, ConvergenceError

# The 18-vector Kochen-Specker set in dimension 4: nine orthogonal bases,
# each vector appearing in exactly two of them.  Exactly-one-per-context
# over nine contexts would assign an odd total, but double membership
# makes every total even, so no noncontextual assignment exists even
# though nothing is forced and unit propagation cannot get started.
_KS18_VECTORS = {
    "u01": (0, 0, 0, 1),
    "u02": (0, 0, 1, 0),
    "u03": (1, 1, 0, 0),
    "u04": (1, -1, 0, 0),
    "u05": (0, 1, 0, 0),
    "u06": (1, 0, 1, 0),
    "u07": (1, 0, -1, 0),
    "u08": (1, -1, 1, -1),
    "u09": (1, -1, -1, 1),
    "u10": (0, 0, 1, 1),
    "u11": (1, 1, 1, 1),
    "u12": (0, 1, 0, -1),
    "u13": (1, 0, 0, 1),
    "u14": (1, 0, 0, -1),
    "u15": (0, 1, -1, 0),
    "u16": (1, 1, -1, 1),
    "u17": (1, 1, 1, -1),
    "u18": (-1, 1, 1, 1),
}

_KS18_CONTEXTS = (
    ("u01", "u02", "u03", "u04"),
    ("u01", "u05", "u06", "u07"),
    ("u08", "u09", "u03", "u10"),
    ("u08", "u11", "u07", "u12"),
    ("u02", "u05", "u13", "u14"),
    ("u09", "u11", "u14", "u15"),
    ("u16", "u17", "u04", "u10"),
    ("u16", "u18", "u06", "u12"),
    ("u17", "u18", "u13", "u15"),
)


def ks18_scenario(post=(5, 3, 2, -1)):
    """A fully valid scenario that is UNSAT with an empty forced set.

    post is the unnormalized postselected state; the preselected one is
    (1, 2, 3, 5), normalized.
    """

    def normalized(entries):
        v = np.array(entries, dtype=np.complex128)
        return StateVector(v / np.linalg.norm(v))

    projectors = tuple(
        LabeledProjector(lab, normalized(vec)) for lab, vec in sorted(_KS18_VECTORS.items())
    )
    # generic selections: not orthogonal or parallel to any of the vectors
    pre = normalized((1, 2, 3, 5))
    post = normalized(post)
    return PrePostScenario(
        dim=4,
        pre=pre,
        post=post,
        projectors=projectors,
        contexts=tuple(Context(members) for members in _KS18_CONTEXTS),
        metadata={"name": "ks18"},
    )


def grid_scenario():
    """The rows and columns of a 4x4 grid as eight contexts in dim 4: label
    g{r}{c} on basis state (r + c) mod 4, pre = post the uniform state.
    Valid, with nothing forced; propagation stalls, the contexts' parity
    sums to 0 = 0, and the count branches to its 4! models."""
    grid = [[f"g{r}{c}" for c in range(4)] for r in range(4)]
    uniform = StateVector(np.full(4, 0.5))
    return PrePostScenario(
        dim=4, pre=uniform, post=uniform,
        projectors=tuple(LabeledProjector(grid[r][c], StateVector(np.eye(4)[(r + c) % 4]))
                         for r in range(4) for c in range(4)),
        contexts=tuple(Context(tuple(members)) for members in grid + list(zip(*grid))),
        metadata={"name": "grid-4x4"},
    )


def witness_heavy_scenario(free_labels, seed=0, context=("c", "c_perp")):
    """One 2-member qubit context plus free labels f00, f01, ...

    Nothing is forced for generic random states, so exactly one context
    member is 1 and every free label is arbitrary: 2 * 2**free_labels
    witnesses.  With the default context {c, c_perp}, which sorts first,
    they are the masks k in [2**(n-2), 3 * 2**(n-2)) for n labels.
    """
    rng = np.random.default_rng(seed)

    def random_state():
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return StateVector(v / np.linalg.norm(v))

    base = random_state()
    perp = StateVector([-np.conj(base.amps[1]), np.conj(base.amps[0])])
    projectors = (LabeledProjector(context[0], base), LabeledProjector(context[1], perp)) + tuple(
        LabeledProjector(f"f{i:02d}", random_state()) for i in range(free_labels)
    )
    return PrePostScenario(
        dim=2, pre=random_state(), post=random_state(),
        projectors=projectors, contexts=(Context(context),),
    )


def context_stack(s):
    """The member states of every context of s as one (m, k, dim) stack.

    All contexts of s must have the same number k of members.
    """
    return s.states[[[s.rows[m] for m in ctx.members] for ctx in s.contexts]]


def dense_projector(v):
    """The dim x dim matrix |v><v| of a StateVector."""
    return np.outer(v.amps, v.amps.conj())


def dense_deviation_oracle(stack):
    """||sum_i |v_i><v_i| - I||_2 of one (k, dim) member stack from the dense
    dim x dim projector sum, and a bound on its rounding gap to the singular
    values of the stack.  Both are backward stable: each is off by a few
    float64 eps per term of the k-term Gram sums and the dim-wide SVD,
    relative to the projector sum's scale, at most 1 + ||V||_F^2."""
    k, dim = stack.shape
    dense = float(np.linalg.norm(stack.T @ stack.conj() - np.eye(dim), 2))
    return dense, 4 * (k + dim) * np.finfo(np.float64).eps * (1.0 + float(np.sum(np.abs(stack) ** 2)))


def random_qubit_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return StateVector(v / np.linalg.norm(v))


@st.composite
def random_structures(draw):
    """1-12 labels with random names, some non-ASCII, overlapping contexts
    of 2-4 distinct members, random exclusive pairs, random metadata and a
    random forced subset.

    Half the draws with contexts also pick a free target in every context
    that holds no earlier target, force the context's other members to 0,
    and pair targets with each other or with labels forced to 1, so that
    propagation fires several contexts, in an order that depends on the
    context order, before it reaches a conflict."""
    labels = draw(st.lists(st.text("abcxyzé→量", min_size=1, max_size=3), min_size=1,
                           max_size=12, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    projs = tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in labels)
    contexts, pairs = (), ()
    if len(labels) > 1:
        members = st.lists(st.sampled_from(labels), min_size=2, max_size=min(4, len(labels)),
                           unique=True)
        contexts = tuple(Context(tuple(m)) for m in draw(st.lists(members, max_size=5)))
        pair = st.lists(st.sampled_from(labels), min_size=2, max_size=2, unique=True)
        pairs = tuple(tuple(p) for p in draw(st.lists(pair, max_size=5)))
    chosen = draw(st.lists(st.sampled_from(labels), unique=True))
    bits = {lab: draw(st.integers(0, 1)) for lab in chosen}
    if contexts and draw(st.booleans()):
        zeros, targets = {}, []
        for ctx in contexts:
            free = [m for m in ctx.members if m not in zeros]
            if free and not set(ctx.members) & set(targets):
                targets.append(draw(st.sampled_from(free)))
                zeros.update((m, 0) for m in ctx.members if m != targets[-1])
        bits.update(zeros)
        for target in targets:
            bits.pop(target, None)
        ends = targets + [lab for lab, bit in bits.items() if bit]
        if targets and len(ends) > 1:
            pair = st.lists(st.sampled_from(ends), min_size=2, max_size=2, unique=True)
            pairs += tuple(tuple(p) for p in draw(st.lists(pair, min_size=1, max_size=3)))
    s = PrePostScenario(
        dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng),
        projectors=projs, contexts=contexts, exclusive_pairs=pairs,
        metadata=draw(st.dictionaries(st.text(max_size=4), st.text(max_size=8), max_size=3)),
    )
    forced = tuple(ForcedValue(lab, bit, "Prediction") for lab, bit in bits.items())
    return s, forced


def structure_scenario(labels, contexts, pairs=(), seed=0):
    """Random qubit states on labels, with the given contexts and exclusive pairs."""
    rng = np.random.default_rng(seed)
    return PrePostScenario(
        dim=2, pre=random_qubit_state(rng), post=random_qubit_state(rng),
        projectors=tuple(LabeledProjector(lab, random_qubit_state(rng)) for lab in sorted(labels)),
        contexts=tuple(Context(tuple(m)) for m in contexts),
        exclusive_pairs=tuple(tuple(p) for p in pairs),
    )


@st.composite
def parity_structures(draw):
    """KS18-like cores: 2-6 contexts of 2-4 members, every label in exactly
    two of them, so an odd number of contexts admits no assignment.  A ring
    through the contexts gives every one two members; chords add more.
    Optional extra contexts and pairs, up to two labels in no context, at
    most 12 labels, names shuffled so that bits interleave, and a random
    forced subset.  Returns (scenario, forced, core), core True when no
    extra context, pair or forced value was drawn."""
    k = draw(st.integers(2, 6))
    order = draw(st.permutations(range(k)))
    edges = list(zip(order, order[1:] + order[:1]))
    degree = [2] * k
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=6)):
        if i != j and degree[i] < 4 and degree[j] < 4 and len(edges) < 12:
            edges.append((i, j))
            degree[i] += 1
            degree[j] += 1
    free = draw(st.integers(0, min(2, 12 - len(edges))))
    names = draw(st.permutations([f"l{i:02d}" for i in range(len(edges) + free)]))
    contexts = [[names[e] for e, edge in enumerate(edges) if c in edge] for c in range(k)]
    members = st.lists(st.sampled_from(names), min_size=2, max_size=min(4, len(names)), unique=True)
    extra = draw(st.lists(members, max_size=2))
    pairs = draw(st.lists(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True),
                          max_size=3))
    contexts = draw(st.permutations(contexts + extra))
    chosen = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    forced = tuple(ForcedValue(lab, draw(st.integers(0, 1)), "Prediction") for lab in chosen)
    s = structure_scenario(names, contexts, pairs, draw(st.integers(0, 2**31 - 1)))
    return s, forced, not (extra or pairs or forced)


def propagation_oracle(s, forced):
    """Unit propagation over a label -> bit dict, rescanned after every step.

    The slow reference for the engine's mask propagation: the same rules
    in the same order, first an exclusive pair with both members at 1
    (CONFLICT), then the first context with one unassigned member and all
    others at 0, and once both stall, the first context with two or more
    members at 1 (CONFLICT), and failing that the first context with every
    member at 0 (CONFLICT).  Returns the ContradictionTrace, or None if it
    stalls.
    """
    assigned = {fv.label: fv.bit for fv in forced}
    steps = []
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
            break
    for ctx in s.contexts:
        at_one = [m for m in ctx.members if assigned.get(m) == 1]
        if len(at_one) >= 2:
            premises = tuple(f"{m}=1" for m in at_one)
            steps.append(TraceStep(premises, SUM_RULE, CONFLICT))
            return ContradictionTrace(tuple(steps))
    for ctx in s.contexts:
        if all(assigned.get(m) == 0 for m in ctx.members):
            steps.append(TraceStep(tuple(f"{m}=0" for m in ctx.members), SUM_RULE, CONFLICT))
            return ContradictionTrace(tuple(steps))
    return None


def family_delta_overlap(c, p):
    """|<delta+|delta->| for cabello_family members, vectorized over c and p.

    An oracle independent of both the pointwise construction and the
    closed-form feasibility root: it is computed from the rank-1 gap
    operators G+- = I - P_alpha - P_beta+- - P_gamma+-, whose trace
    product equals the squared overlap.  Accepts scalars or broadcastable
    arrays with entries strictly inside (0, 1).
    """
    c, p = np.broadcast_arrays(np.asarray(c, dtype=np.float64), np.asarray(p, dtype=np.float64))
    sp = np.sqrt(1.0 - c * c) * p
    q2 = 1.0 - p * p
    # Trace identity: with unnormalized gamma weight w = s^2 + c^2 q^2 / p^2 + c^2,
    # Tr(G+ G-) reduces to ((c^2 + s^2 p^4 - s^2 p^2 q^2) / (c^2 + s^2 p^4 + s^2 p^2 q^2))^2.
    # Numerator and denominator are divided by max(c, s p)^2 first, so that
    # neither underflows when c and p are both tiny.
    scale = np.maximum(c, sp)
    a2, b2 = (c / scale) ** 2, (sp / scale) ** 2
    num = a2 + b2 * (p * p - q2)
    den = a2 + b2 * (p * p + q2)
    out = np.abs(num) / den
    return float(out) if out.ndim == 0 else out


def single_qubit_oracle(n_contexts, seed):
    """single_qubit_scenario drawn and checked one state at a time.

    Each state takes two 2-vectors from the generator (real, then
    imaginary parts) and is normalized by np.linalg.norm; post is redrawn
    while its overlap with pre is below 1e-3, and each base state b is
    completed by (-conj(b1), conj(b0)).
    """
    rng = np.random.default_rng(seed)

    def random_state():
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return StateVector(raw / np.linalg.norm(raw))

    pre = random_state()
    post = random_state()
    while abs(np.vdot(post.amps, pre.amps)) < 1e-3:
        post = random_state()
    projectors, contexts = [], []
    for k in range(n_contexts):
        base = random_state()
        perp = StateVector([-np.conj(base.amps[1]), np.conj(base.amps[0])])
        projectors += [LabeledProjector(f"q{k}", base), LabeledProjector(f"q{k}_perp", perp)]
        contexts.append(Context((f"q{k}", f"q{k}_perp")))
    return PrePostScenario(
        dim=2, pre=pre, post=post, projectors=tuple(projectors), contexts=tuple(contexts),
        metadata={"name": "single-qubit", "description": f"n_contexts={n_contexts}, seed={seed}"},
    )


def grid_refine_oracle(f, lows, highs, grid, refine_tol):
    """The optimizer's search written as two scans, first grid then refinements.

    Maximizes f(*point) over the box and returns (point, value, evals),
    one scalar call per point: maximize_hardy on (0, pi/2)^2 and
    maximize_cabello_family on (0, 1) are its two- and one-axis cases.
    The cell-centered grid is evaluated in full and then scanned for the
    best point (ties to the lexicographically smallest), after which each
    refinement pass evaluates a 9-point-per-axis lattice around that
    point, clamped inside the open box, and scans it the same way.
    """
    ndim = len(lows)
    spans = [hi - lo for lo, hi in zip(lows, highs)]

    axes = [
        [lows[d] + (i + 0.5) * spans[d] / grid for i in range(grid)]
        for d in range(ndim)
    ]
    points = [tuple(pt) for pt in itertools.product(*axes)]
    values = [f(*pt) for pt in points]
    evals = len(points)
    best_point, best_value = points[0], values[0]
    for pt, v in zip(points[1:], values[1:]):
        if v > best_value or (v == best_value and pt < best_point):
            best_point, best_value = pt, v

    half_widths = [span / grid for span in spans]
    iterations = 0
    while 2.0 * max(half_widths) >= refine_tol:
        iterations += 1
        if iterations > MAX_REFINE_ITERATIONS:
            raise ConvergenceError(
                f"refinement did not reach tolerance {refine_tol!r} "
                f"within {MAX_REFINE_ITERATIONS} iterations"
            )
        axes = []
        for d in range(ndim):
            lo = max(best_point[d] - half_widths[d], np.nextafter(lows[d], highs[d]))
            hi = min(best_point[d] + half_widths[d], np.nextafter(highs[d], lows[d]))
            axes.append(np.linspace(lo, hi, 9).tolist())
        points = [tuple(pt) for pt in itertools.product(*axes)]
        values = [f(*pt) for pt in points]
        evals += len(points)
        for pt, v in zip(points, values):
            if v > best_value or (v == best_value and pt < best_point):
                best_point, best_value = pt, v
        half_widths = [hw / 2.0 for hw in half_widths]

    return best_point, best_value, evals
