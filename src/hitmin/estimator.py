"""Sampled estimation of the mean red-to-blue hitting time.

The estimator replaces each exact linear solve with bounded absorbing
random walks.  The walk bound comes from a geometric-tail argument driven
by the spectral radius of the degree-normalized red-red adjacency block.
In guarantee mode both error shares are derived from epsilon/2 so that
truncation error and sampling error each stay within half of the allowed
relative error.  Experiment mode relaxes everything and additionally
subsamples the start nodes.

A guarantee-mode estimate takes no overrides: it samples every red node
and draws Hoeffding's count at deviation epsilon/2 and failure delta/|R|;
``estimate_mean_hitting`` states and proves the guarantee.

One kernel, ``_stage``, runs every walk, all of an estimate's walks in one
call.  It reads the red rows through one count table per estimate,
``graph.augmented_view``.
It walks occupancy counts, how many of each start node's walks stand on each
red node, and each step splits every count over the node's red neighbours
and one absorbed category with broadcast ``Generator.multinomial`` calls,
one or more per bucket of the table.  So a step costs what the occupied
(start, node) pairs cost, whatever the number of walks, in memory bounded
by those pairs, and each start's sum of step counts, and of their squares,
come from its live counts as exact integers.
An estimate draws all its walks from one generator.

What no shortcut changes is built once per instance, on its first estimate,
and read by every later one: the red block's layout (``graph._RedBlock``,
O(red slots) read-only numbers), which holds the block's entries, the
power iteration's start vector, and the count table's rows, bucket widths,
targets and the cell of every probability.  The layout takes the entries
from the instance's red chain (``BipartiteInstance._red_chain``), the CSR
adjacency of the red block that every exact solve of the red set reads
too, so an instance builds its red block once.  Each estimate computes the
red degrees with the shortcuts added, ``degrees + shortcut_counts(...)``,
from which its count table fills its probabilities and the spectral radius
its matrix values.  The bounded-step expectation reads the red chain's
adjacency and divides by those degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import InvalidParameter
from .exact import _chain_to_blue
from .graph import augmented_view, shortcut_counts

__all__ = [
    "EstimatorConfig",
    "Estimate",
    "truncation_length",
    "sample_count",
    "spectral_radius",
    "estimate_mean_hitting",
    "empirical_hitting",
    "expected_bounded_steps",
]

_SPECTRAL_CAP = 1.0 - 1e-9
# power iteration stops at this relative change of the radius, or after the cap
_SPECTRAL_TOL = 1e-6
_SPECTRAL_MAX_ITER = 10000
# cells, one per (pair, category), that one split call's temporaries hold
_CELLS = 1 << 15
# the EstimatorConfig fields that guarantee mode derives and so rejects
_OVERRIDES = ("spectral_bound", "walk_length", "samples_per_node", "subsample_fraction")


def truncation_length(mean_red_degree: float, epsilon: float, spectral_bound: float) -> int:
    """Walk bound that keeps the truncated tail below epsilon relative error.

    Monotone nondecreasing in ``spectral_bound``: a safer (larger) bound on
    the spectral radius never shortens the walks.
    """
    if not 0 < epsilon < 1:
        raise InvalidParameter(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0 <= spectral_bound < 1:
        raise InvalidParameter(
            f"spectral bound must lie in [0, 1), got {spectral_bound}"
        )
    if mean_red_degree < 1:
        raise InvalidParameter(f"mean red degree must be >= 1, got {mean_red_degree}")
    if spectral_bound == 0:
        return 1
    raw = (
        math.log(mean_red_degree / (epsilon * (1.0 - spectral_bound)))
        / math.log(1.0 / spectral_bound)
        - 1.0
    )
    return max(1, math.ceil(raw))


def sample_count(walk_length: int, epsilon: float, delta: float, node_count: int) -> int:
    """Per-node trial count from Hoeffding's bound on [0, walk_length] values.

    This is the count an experiment-mode estimate draws; a guarantee-mode
    estimate draws ``estimate_mean_hitting``'s t_1 instead.
    """
    if walk_length < 1:
        raise InvalidParameter(f"walk length must be >= 1, got {walk_length}")
    if epsilon <= 0:
        raise InvalidParameter(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise InvalidParameter(f"delta must lie in (0, 1), got {delta}")
    if node_count < 1:
        raise InvalidParameter(f"node count must be >= 1, got {node_count}")
    return math.ceil(
        (walk_length ** 2 / epsilon ** 2) * math.log(2.0 * node_count / delta)
    )


def _sample_std(trials, total, total_sq):
    """Sample std (ddof 1) of ``trials`` integers from their exact integer
    sum and sum of squares, rounded once."""
    return math.sqrt(Fraction(trials * total_sq - total * total, trials * (trials - 1)))


def spectral_radius(instance, shortcuts=None) -> float:
    """Spectral radius of the degree-normalized red-red adjacency block.

    M = D^{-1/2} A D^{-1/2}, from the red block's entries and degrees D
    counting the shortcuts.  Power iteration on the squared matrix, so both
    extreme eigenvalues are captured, from a fixed random unit vector.  The
    entries and that vector are built once per instance
    (``graph._RedBlock``); each call computes only the degrees and M's
    values.  Each product with M is one ``np.bincount`` over the entries,
    which sums each row in CSR order, as a sparse CSR product does.
    Returns 0 when the red subgraph has no edges.  The result is capped just
    below 1; weak chaining to the blue group keeps the true value strictly
    below 1 on valid instances.
    """
    degrees = instance.degrees + shortcut_counts(instance, shortcuts)
    block = instance._red_block
    rows, cols = block.rows, block.cols
    if not rows.size:
        return 0.0
    reds = instance.red_ids
    r = reds.size
    d = degrees[reds].astype(float)
    inv_sqrt = 1.0 / np.sqrt(d)
    vals = inv_sqrt[rows] * inv_sqrt[cols]

    v = block.start
    est = 0.0
    for _ in range(_SPECTRAL_MAX_ITER):
        half = np.bincount(rows, vals * v[cols], minlength=r)
        w = np.bincount(rows, vals * half[cols], minlength=r)
        # the formula np.linalg.norm uses on a 1-D float vector, so the
        # same bits without its call overhead
        nrm = math.sqrt(w @ w)
        if nrm <= 0.0:
            return 0.0
        new = math.sqrt(max(float(v @ w), 0.0))
        v = w / nrm
        if abs(new - est) <= _SPECTRAL_TOL * max(new, 1e-12):
            est = new
            break
        est = new
    return min(est, _SPECTRAL_CAP)


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the sampled estimator.

    Unset fields are resolved per call: the spectral bound from power
    iteration on the degree-normalized red-red block, the red degrees
    counting the shortcuts; walk length and trial count from the
    formulas; and the subsample fraction 0.1.  With ``guarantee`` set,
    every walk knob comes from the proof in ``estimate_mean_hitting``, and
    setting ``spectral_bound``, ``walk_length``, ``samples_per_node`` or
    ``subsample_fraction`` raises InvalidParameter.  That check, and the
    check that epsilon and delta lie in (0, 1), run where the config is
    built, so a config no estimate uses is checked too.  ``seed`` keys the
    one generator that all of an estimate's walks draw from, and the
    start-node subsample.
    """

    epsilon: float = 0.1
    delta: float = 0.1
    spectral_bound: float | None = None
    walk_length: int | None = None
    samples_per_node: int | None = None
    subsample_fraction: float | None = None
    seed: int | tuple = 0
    guarantee: bool = False

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise InvalidParameter(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise InvalidParameter(f"delta must lie in (0, 1), got {self.delta}")
        knobs = [name for name in _OVERRIDES if getattr(self, name) is not None]
        if self.guarantee and knobs:
            raise InvalidParameter("guarantee mode derives every walk knob from "
                                   f"its proof; unset {', '.join(knobs)}")

    def entropy(self) -> tuple:
        if isinstance(self.seed, tuple):
            ent = tuple(int(x) for x in self.seed)
        else:
            ent = (int(self.seed),)
        if any(x < 0 for x in ent):
            raise InvalidParameter("seed entries must be nonnegative")
        return ent

    def reseeded(self, *extra) -> "EstimatorConfig":
        return replace(self, seed=self.entropy() + tuple(int(x) for x in extra))


@dataclass(frozen=True)
class Estimate:
    """Result of one sampled evaluation, with the resolved knobs attached.

    ``samples_per_node`` walks per sampled node give ``per_node_means``,
    and ``walk_steps`` is the exact number of steps they took, the sum of
    min(T, walk_length) over all of them.  An estimate is ``degenerate``
    when its walks were cut at one step, so every walk counts exactly 1.
    """

    value: float
    walk_length: int
    samples_per_node: int
    spectral_bound: float
    subsample_fraction: float
    sampled_nodes: np.ndarray
    per_node_means: np.ndarray
    config: EstimatorConfig
    walk_steps: int

    @property
    def degenerate(self) -> bool:
        return self.walk_length == 1


def _merged(keys, counts):
    """The keys in the arrays ``keys``, each once and ascending, with the
    sum of its entries in the matching arrays ``counts``; there must be at
    least one key."""
    key, count = np.concatenate(keys), np.concatenate(counts)
    order = key.argsort()
    key, count = key[order], count[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    first = first.nonzero()[0]
    return key[first], np.add.reduceat(count, first)


def _stage(view, starts, trials, limit, rng):
    """``trials`` absorbing walks from each of ``starts``, cut at ``limit``
    steps, walked as occupancy counts.

    Returns (total, total_sq, live), three lists with one int per start:
    the sum and the sum of squares of its walks' step counts, each walk
    counting the step at its first blue node or ``limit`` if it is not
    absorbed by then, and the number of its walks that take step ``limit``
    (all of them for a ``limit`` of 0).  A walk live at step s adds 1 to its
    sum and 2s − 1 to its sum of squares, so the sums need only each
    start's live count per step.  The state is how many of each start's
    walks stand on each red node: one int64 count per occupied (start,
    node) pair, keyed row·m + i for the node's row in the count table
    ``view`` (``graph.AugmentedView``) and start i of m, and sorted, so that
    the pairs on one bucket of the table are one slice.  Each step but the
    last splits every count over its row's categories with broadcast
    ``rng.multinomial`` calls, each over consecutive pairs of one bucket
    and at most ``_CELLS`` cells, whose draws are those of one
    ``rng.multinomial`` per pair in key order; drops what is absorbed, and
    what stood on a row with no bucket; and sums what lands on each pair,
    merging what it holds as it goes.  So a step costs O(occupied pairs ×
    row width) time and O(occupied pairs + ``_CELLS``) memory, the pairs
    of this step and the next, whatever ``trials`` is.  The sums are exact:
    int64 while they cannot overflow, Python ints otherwise.  A ``limit``
    of at most 1 draws nothing.
    """
    m = len(starts)
    exact = np.int64 if int(trials) * int(limit) ** 2 < 1 << 63 else object
    total = np.zeros(m, dtype=exact)
    total_sq = np.zeros(m, dtype=exact)
    live = np.full(m, trials, dtype=exact)
    key = np.sort(view.row[np.searchsorted(view.red_ids, starts)] * m + np.arange(m))
    rows, start = np.divmod(key, m)
    count = np.full(m, trials, dtype=np.int64)
    for step in range(1, limit + 1):
        total += live
        total_sq += (2 * step - 1) * live
        if step == limit:
            break
        # what is held is merged whenever it passes twice the pairs it
        # was last merged to, plus one call's cells, so that it stays
        # O(occupied pairs + _CELLS)
        keys, counts, held, bound = [], [], 0, 2 * count.size + _CELLS
        for lo, pvals, targets in view.buckets:
            a, b = rows.searchsorted((lo, lo + len(pvals)))
            span = max(1, _CELLS // pvals.shape[1])
            # numpy's broadcast multinomial draws pair after pair, so these
            # calls make the draws of one call over [a, b)
            for c in range(a, b, span):
                e = min(c + span, b)
                at = rows[c:e] - lo
                # category 0 absorbs; the padding's counts are 0
                split = rng.multinomial(count[c:e], pvals.take(at, axis=0))[:, 1:]
                into = targets.take(at, axis=0)[:, 1:] * m
                into += start[c:e, None]
                moved = split > 0
                keys.append(into[moved])
                counts.append(split[moved])
                held += keys[-1].size
                if held > bound:
                    keys, counts = ([part] for part in _merged(keys, counts))
                    held = keys[0].size
                    bound = 2 * held + _CELLS
        if not held:
            live = np.zeros(m, dtype=exact)
            break
        key, count = _merged(keys, counts)
        rows, start = np.divmod(key, m)
        live = np.zeros(m, dtype=np.int64)
        np.add.at(live, start, count)
        live = live.astype(exact, copy=False)
    return total.tolist(), total_sq.tolist(), live.tolist()


def _guarantee_knobs(instance, shortcuts, view, epsilon, delta):
    """Guarantee mode's (λ, ℓ, t) for ``instance`` with ``shortcuts`` and its
    count table ``view``: the computed spectral radius, the walk length at
    epsilon/2, and Hoeffding's count t_1 at epsilon/2 and delta/|R|, every
    red node a start (``estimate_mean_hitting``)."""
    lam = spectral_radius(instance, shortcuts)
    a = epsilon / 2.0
    # the red rows' slot count is their degrees' sum, counting the shortcuts
    ell = truncation_length(view.slots / view.red_ids.size, a, lam)
    trials = math.ceil(ell ** 2 * math.log(2.0 * view.red_ids.size / delta) / (2.0 * a ** 2))
    return lam, ell, trials


def estimate_mean_hitting(instance, shortcuts=None, config: EstimatorConfig | None = None) -> Estimate:
    """Estimate the mean red-to-blue hitting time with bounded walks.

    Deterministic for a fixed (instance, shortcuts, config): the start-node
    subsample draws from a generator keyed by (seed, 1), and every walk from
    one keyed by (seed, 0), in one ``_stage`` call over the sampled nodes in
    ascending order.  The walks run on the count
    table ``augmented_view(instance, shortcuts)``, where a shortcut absorbs
    the walk.

    The walks' law.  ``_stage`` moves counts, not walks: each step splits
    the c walks on red node v, of degree d with r red neighbours, by one
    multinomial draw of c over its red neighbours, 1/d each, and
    absorption, (d − r)/d.  Given the counts, walks step independently, so
    the counts, and every sum taken from them, have the law of t
    independent walks per start node on the uniform-neighbour chain, up to
    the float rounding of those probabilities in the chain of binomial draws
    numpy's multinomial makes.  Exact integer draws per walk would avoid
    that rounding, but cost a draw per walk and step; the kernel that
    reproduced ``rng.integers(0, deg)`` walk by walk, bit for bit, was
    dropped on purpose for one whose steps cost what the occupied (start,
    node) pairs cost, not what t does.  The proof below takes the stage's
    sums as sums of independent draws of X.

    The guarantee.  Guarantee mode takes no overrides: an ``EstimatorConfig``
    that sets any of ``spectral_bound``, ``walk_length``,
    ``samples_per_node`` and ``subsample_fraction`` raises InvalidParameter
    when it is built.  It samples every red node, m = |R| of them, and
    takes the walk length ℓ from ``truncation_length`` at a = epsilon/2 and
    the ``spectral_radius``.  A walk from red node u counts X = min(T, ℓ)
    steps, with mean μ_u (``expected_bounded_steps``).  With probability at
    least 1 − δ, every per-node mean lies within a of its μ_u, and so the
    estimate within a of their mean.  The truncation's share of the error
    is ``truncation_length``'s.

    Each node draws t_1 = ⌈ℓ²·ln(2m/δ)/(2a²)⌉ walks.  Hoeffding's
    inequality for t values in [0, ℓ], P(|X̄ − μ| ≥ s) ≤ 2·exp(−2ts²/ℓ²),
    puts a node beyond a with probability at most δ/m once t ≥ t_1, and a
    union bound over the m start nodes gives the statement.  Experiment
    mode draws ``sample_count``'s count at its epsilon, or the override.
    """
    config = config or EstimatorConfig()
    view = augmented_view(instance, shortcuts)
    entropy = config.entropy()
    reds = instance.red_ids
    if config.guarantee:
        lam, ell, trials = _guarantee_knobs(instance, shortcuts, view,
                                            config.epsilon, config.delta)
        frac, sampled = 1.0, reds
    else:
        if config.spectral_bound is None:
            lam = spectral_radius(instance, shortcuts)
        elif not 0 <= config.spectral_bound < 1:
            raise InvalidParameter("spectral bound must lie in [0, 1)")
        else:
            lam = config.spectral_bound
        ell = truncation_length(view.slots / reds.size, config.epsilon, lam)
        if config.walk_length is not None:
            if config.walk_length < 1:
                raise InvalidParameter("walk length must be >= 1")
            ell = int(config.walk_length)
        trials = sample_count(ell, config.epsilon, config.delta, instance.n)
        if config.samples_per_node is not None:
            if config.samples_per_node < 1:
                raise InvalidParameter("samples per node must be >= 1")
            trials = int(config.samples_per_node)
        frac = 0.1 if config.subsample_fraction is None else float(config.subsample_fraction)
        if not 0 < frac <= 1:
            raise InvalidParameter("subsample fraction must lie in (0, 1]")
        if frac >= 1.0:
            sampled = reds
        else:
            size = max(1, int(frac * reds.size))
            sub_rng = np.random.default_rng(np.random.SeedSequence(entropy + (1,)))
            sampled = np.sort(sub_rng.choice(reds, size=size, replace=False))

    rng = np.random.default_rng(np.random.SeedSequence(entropy + (0,)))
    totals, _, _ = _stage(view, sampled, trials, ell, rng)
    # integer sums below 2**53 divided once: the bits of steps.mean()
    per_node = np.array([t / trials for t in totals])
    walk_steps = sum(totals)

    return Estimate(
        value=float(per_node.mean()),
        walk_length=ell,
        samples_per_node=trials,
        spectral_bound=float(lam),
        subsample_fraction=frac,
        sampled_nodes=sampled,
        per_node_means=per_node,
        config=config,
        walk_steps=walk_steps,
    )


def empirical_hitting(instance, nodes=None, trials: int = 10000, seed: int = 0,
                      max_steps: int = 1_000_000):
    """Unbounded absorbing-walk sample means and standard deviations.

    A plain Monte-Carlo oracle for cross-checking the exact solver on small
    instances, on the estimator's walk kernel and a count table without
    shortcuts.  Every walk comes from one generator keyed by (seed, 0),
    walked by ``_stage`` over ``nodes`` in the order given.  ``max_steps``
    is a budget, not a truncation: a walk still red after it raises
    RuntimeError.  Returns (means, stds) aligned with ``nodes`` (default:
    all red nodes); the stds use ``ddof=1``, from the kernel's exact
    integer sums.  Fewer than two trials, or a start node that is blue or
    out of range, raises InvalidParameter.
    """
    trials = int(trials)  # a Python int keeps the std's integer formula exact
    if trials < 2:
        raise InvalidParameter(f"trials must be >= 2, got {trials}")
    if nodes is None:
        nodes = instance.red_ids
    nodes = np.asarray(list(nodes), dtype=np.int64)
    for u in nodes:
        if not 0 <= u < instance.n or not instance.is_red[u]:
            raise InvalidParameter(f"start node {u} is not a red node")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0)))
    # a walk that takes step max_steps + 1 is still red after the budget
    totals, squares, over = _stage(augmented_view(instance), nodes, trials,
                                   max_steps + 1, rng)
    if any(over):
        raise RuntimeError("absorbing walk exceeded the step budget")
    means = np.array([t / trials for t in totals])
    stds = np.array([_sample_std(trials, t, q) for t, q in zip(totals, squares)])
    return means, stds


def expected_bounded_steps(instance, shortcuts=None, length: int = 1) -> np.ndarray:
    """Exact expectation of the bounded step count, one entry per red node.

    The bounded walk records min(T, length) where T is the true absorption
    step count, so its expectation is the sum of the first ``length``
    survival probabilities.  Those come from repeated sparse matvecs with
    the red chain's adjacency, built once per instance and shared with the
    exact solves (``exact._chain_to_blue``), each divided by the degrees
    with the shortcuts added, computed per call; no sampling is involved.
    This is the quantity the walk estimator is unbiased for, and it never
    exceeds the exact hitting time.
    Shortcuts only add to the red degrees, so no count table is built.
    """
    if length < 0:
        raise InvalidParameter(f"length must be >= 0, got {length}")
    block, d = _chain_to_blue(instance,
                              instance.degrees + shortcut_counts(instance, shortcuts))
    survive = np.ones(d.size)
    total = np.zeros(d.size)
    for _ in range(length):
        total += survive
        survive = block.adjacency @ survive / d
    return total
