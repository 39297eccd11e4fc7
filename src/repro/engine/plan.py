"""The fusing planner: many compressed-domain reductions, one sweep per plan.

:func:`plan` compiles a set of reduction expressions (:mod:`repro.engine.expr`)
into a :class:`Plan` whose execution decodes every chunk of every source
**once**, however many reductions consume it.  Planning happens in three
steps:

1. **Collect** — each requested reduction is checked (arity, options) and
   decomposed into the fold *terms* its row of the declarative
   :data:`repro.core.ops.folds.REDUCTION_SPECS` lists: ``mean(x)`` needs
   ``dc(x)``; ``dot(x, y)`` needs ``product(x, y)``;
   ``cosine_similarity(x, y)`` needs ``product(x, y)``, ``square(x)`` and
   ``square(y)``; ``variance(x)`` needs ``centered_square(x)``;
   ``covariance(x, y)`` needs ``centered_product(x, y)``.  The centered folds
   carry each block's DC coefficient next to its AC sum, so the centering
   mean is taken at finalize time and never needs a sweep of its own.
2. **Deduplicate** — terms are keyed by ``(fold name, operand nodes)``, so the
   dot and the cosine similarity of the same pair share one product sum, the
   l2 norm and the cosine share one square sum, and variance and standard
   deviation of the same source share one centered-square sum.  Structural
   nodes (``add``/``scale``/…) deduplicate the same way through their
   structural keys.
3. **Schedule** — the terms are grouped by connected source set into
   :class:`SweepGroup` sweeps, so each aligned chunk tuple is decoded once.
   Consecutive tuples are stacked into *fold steps*
   (:mod:`repro.streaming.steps`), and each step feeds every partial that
   wants it.  The partials fold each step's
   kept ``(n_blocks, kept)`` index matrix directly — no step materialises the
   blocked coefficient array — and a row sum two partials of one step share
   (``square`` and ``centered_square`` of a source both need ``Σ i²``) is
   taken once (:func:`repro.core.ops.folds.run_terms`).  A structural
   ``add``/``subtract`` node only ``dc`` terms read is re-binned to its
   block maxima and DC column alone (:func:`_dc_only_slots`), all the mean
   reads of it.

**One-sweep guarantee**: every source is decoded once per chunk — a store
source's ``chunks_read`` grows by its ``n_chunks`` per execution — so a
single-shot generator of chunks is as good a source as a store.

**Bit-identity guarantee**: every fused scalar equals the corresponding
sequential :mod:`repro.streaming.ops` call bit for bit — the per-block partial
sums are block-local, so a block has the same sums whichever fold step it
arrives in, and the correctly rounded sum :func:`repro.core.ops.folds.total`
(bit-identical to ``math.fsum``) does not depend on how they are grouped.

Every sweep reads its chunks through the one prefetching reader
(:func:`repro.streaming.sources.aligned_chunks`), so the caller's chunk cache,
retry policy, decompression backend and read counters apply to every plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from ..core import ops as core_ops
from ..core.ops import folds
from ..core.ops.coefficients import fold_step
from ..core.ops.linear import rebinned_dc
from ..streaming.prefetch import ChunkPrefetcher
from ..streaming.sharded import PARTIAL_FOLDS, ShardedStore
from ..streaming.sources import STORE_TYPES, aligned_chunks, check_stores
from ..streaming.steps import fold_steps
from .expr import ArrayExpr, Expr, Reduction, Source

__all__ = ["Plan", "SweepGroup", "plan", "evaluate"]


# ------------------------------------------------------------------ chunk programs
def _node_inputs(entry: tuple) -> tuple:
    """The node slots one program entry reads (its structural operands)."""
    kind = entry[0]
    if kind == "source":
        return ()
    if kind in ("add", "subtract"):
        return entry[1:3]
    return (entry[1],)  # scale, negate


def _needed_slots(program: tuple, terms: tuple) -> set[int]:
    """Transitive closure of node slots the given terms read."""
    needed: set[int] = set()
    stack = [slot for _, slots in terms for slot in slots]
    while stack:
        slot = stack.pop()
        if slot in needed:
            continue
        needed.add(slot)
        stack.extend(_node_inputs(program[slot]))
    return needed


def _dc_only_slots(program: tuple, terms) -> frozenset:
    """The ``add``/``subtract`` slots only ``dc`` terms read, fixed at plan time.

    The mean (Algorithm 7) reads a block's maximum and DC index alone, so a
    re-binning node whose every reader is a ``dc`` fold is re-binned to
    those (:func:`repro.core.ops.linear.rebinned_dc`) and never bins its
    other columns.  A node any other fold or any structural node reads is
    re-binned in full.
    """
    readers: dict[int, set] = {}
    for name, slots in terms:
        for slot in slots:
            readers.setdefault(slot, set()).add(name)
    for entry in program:
        for slot in _node_inputs(entry):
            readers.setdefault(slot, set()).add(entry[0])
    return frozenset(slot for slot, entry in enumerate(program)
                     if entry[0] in ("add", "subtract") and readers.get(slot) == {"dc"})


def _evaluate_step(program: tuple, values: dict, terms: tuple,
                   dc_only: frozenset) -> list[folds.FoldState]:
    """One fused fold step: structural nodes, then every term's partial.

    ``values`` arrives holding the source arrays of this step (slot →
    :class:`CompressedArray`); structural slots are filled by the in-memory
    :mod:`repro.core.ops` operations in slot (topological) order — a
    ``dc_only`` slot re-binned only to its DC column — and
    :func:`repro.core.ops.folds.run_terms` runs the partials, the same
    recipe :func:`repro.core.ops.folds.evaluate` runs in memory.  All of it
    is one :func:`~repro.core.ops.coefficients.fold_step`, so a structural
    ``subtract`` and a ``diff_square`` of the same chunks take one kept
    difference.
    """
    with fold_step():
        for slot in sorted(_needed_slots(program, terms)):
            entry = program[slot]
            kind = entry[0]
            if slot in dc_only:
                values[slot] = rebinned_dc(kind, values[entry[1]], values[entry[2]])
            elif kind == "add":
                values[slot] = core_ops.add(values[entry[1]], values[entry[2]])
            elif kind == "subtract":
                values[slot] = core_ops.subtract(values[entry[1]], values[entry[2]])
            elif kind == "scale":
                values[slot] = core_ops.multiply_scalar(values[entry[1]], entry[2])
            elif kind == "negate":
                values[slot] = core_ops.negate(values[entry[1]])
            elif slot not in values:  # pragma: no cover - sources are seeded
                raise ValueError(f"source chunk for slot {slot} was not decoded")
        return folds.run_terms(values, terms)


# ------------------------------------------------------------------ the plan
@dataclass(frozen=True)
class SweepGroup:
    """One aligned sweep: terms over one connected source set.

    Terms that share no source decode independently — fusing ``mean(a)`` with
    ``mean(b)`` must not force ``a`` and ``b`` into one lockstep iteration
    (they may be shaped or chunked differently).  The planner therefore
    partitions the plan's terms into connected components over their source
    sets; geometry checks (`check_stores`) and chunk alignment apply *within*
    a group only, and each group's sources are decoded exactly once per chunk
    during its sweep.  ``terms`` are ``(fold name, operand slots)`` keys;
    ``source_slots`` are the node slots of the leaf sources they read, and
    ``source_indices`` those sources' indices into :attr:`Plan.sources`.
    """

    terms: tuple
    source_slots: tuple
    source_indices: tuple


class Plan:
    """A planned, introspectable fusion of reduction expressions.

    Build with :func:`plan`; run with :meth:`execute`.  The plan is reusable —
    executing twice re-sweeps the sources (stores re-read from disk; plain
    chunk sequences re-iterated).

    Attributes
    ----------
    sources:
        The deduplicated leaf sources, in first-appearance order.
    groups:
        The :class:`SweepGroup` sweeps — one aligned chunk iteration per
        connected source set; their terms, ``(fold name, operand slots)``
        keys, keep a deterministic collection order.
    last_execution:
        After :meth:`execute`: a dict of per-mode group counts
        (``interpreted_groups`` swept chunks; ``incremental_groups`` were
        answered entirely from a sharded store's persisted fold partials,
        decoding nothing) and the readahead statistics :meth:`execute`
        describes.  ``None`` before the first execution.
    """

    #: Every plan is one sweep.  Only the benchmark tracer
    #: (``perfbench/tracing.py``) still reads this; delete it when that
    #: file next changes.
    n_passes = 1

    def __init__(self, outputs: dict, program: tuple, sources: list,
                 groups: tuple, shape: str):
        self._outputs = outputs
        self._program = program
        self._dc_only = _dc_only_slots(
            program, (term for group in groups for term in group.terms))
        self.sources = tuple(sources)
        self.groups = groups
        self._shape = shape
        self.last_execution: dict | None = None

    # -------------------------------------------------------------- introspection
    def describe(self) -> str:
        """Human-readable plan: sources, each group's fused terms, outputs."""
        lines = [f"plan: {len(self.groups)} sweep group(s) over "
                 f"{len(self.sources)} source(s), {len(self._outputs)} output(s)"]
        for index, source in enumerate(self.sources):
            label = type(source).__name__
            if isinstance(source, STORE_TYPES):
                label = f"{type(source).__name__}({source.path})"
            lines.append(f"  source s{index}: {label}")
        for group in self.groups:
            terms = ", ".join(f"{name}{slots}" for name, slots in group.terms)
            decoded = ", ".join(f"s{i}" for i in group.source_indices)
            lines.append(f"  decode [{decoded}] once per chunk; fold {terms}")
        for slot in sorted(self._dc_only):
            kind, *operands = self._program[slot]
            lines.append(f"  re-bin {kind}{tuple(operands)} (slot {slot}) to its "
                         "DC column: only dc reads it")
        for key, (op, slots, _) in self._outputs.items():
            lines.append(f"  output {key!r}: {op}{slots}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Plan(outputs={list(self._outputs)}, groups={len(self.groups)}, "
                f"sources={len(self.sources)})")

    # -------------------------------------------------------------- validation
    def _validate_sources(self) -> None:
        """Upfront checks: per-group geometry and DC availability.

        Geometry (shape and chunking) must match only *within* a sweep group —
        unrelated reductions fuse across differently shaped or chunked sources.
        DC-requiring folds (``FoldSpec.requires_dc``) fail fast when a store
        source's pruning mask dropped the first coefficient, instead of deep in
        the first sweep.
        """
        for group in self.groups:
            check_stores([self.sources[index] for index in group.source_indices])
            for name, slots in group.terms:
                if not folds.FOLD_SPECS[name].requires_dc:
                    continue
                for slot in sorted(_needed_slots(self._program, ((name, slots),))):
                    if self._program[slot][0] != "source":
                        continue
                    source = self.sources[self._program[slot][1]]
                    if (isinstance(source, STORE_TYPES)
                            and not source.settings.first_coefficient_kept):
                        raise ValueError(
                            f"{name} requires the first coefficient of each "
                            "block to be unpruned"
                        )

    # -------------------------------------------------------------- execution
    def _serve_from_partials(self, terms: tuple, fresh: dict) -> dict:
        """The states of the terms persisted shard partials can answer.

        A term is servable — none of its chunks decoded — when it is a
        leaf-source fold a :class:`ShardedStore` persists
        (:data:`~repro.streaming.sharded.PARTIAL_FOLDS`): ``dc(s)``,
        ``square(s)`` and ``centered_square(s)``, or ``product(s, s)`` and
        ``centered_product(s, s)`` with both operands the same slot (per-block
        arithmetic identical to ``square`` and ``centered_square``, served
        from the same arrays relabelled), and the slot maps straight to a
        sharded source with fresh partials
        (:meth:`ShardedStore.partials_fresh`, probed once per source per
        execution: ``fresh`` maps source index → probe result).  Structural
        operands, non-sharded sources, other folds and stale shards are left
        to the sweep.  Served states are bit-identical to swept ones: the
        persisted arrays sum exactly to the per-block float64 values a sweep
        computes, and the finalizers read those values only through the
        correctly rounded sum, which does not depend on their grouping.
        """
        states: dict = {}
        for term in terms:
            name, slots = term
            if name not in PARTIAL_FOLDS or len(set(slots)) != 1:
                continue
            node = self._program[slots[0]]
            source = self.sources[node[1]] if node[0] == "source" else None
            if not isinstance(source, ShardedStore):
                continue
            if node[1] not in fresh:
                fresh[node[1]] = source.partials_fresh()
            if fresh[node[1]]:
                state = source._persisted_state(name)
                if state is not None:
                    states[term] = state
        return states

    def _sweep_group(self, group: SweepGroup, run_stats: dict,
                     serial: bool) -> list[list]:
        """One aligned sweep of a group; per-term lists of fold-step states.

        Consecutive aligned chunk tuples are stacked into fold steps
        (:func:`repro.streaming.steps.fold_steps`), and the structural nodes
        and every term's partial run once per step.
        """
        sources = tuple(self.sources[index] for index in group.source_indices)
        slots = group.source_slots
        collected: list[list] = [[] for _ in group.terms]
        # ``serial`` is the reference loop: one read_chunk, one pread, per chunk
        readers = tuple(
            source if not isinstance(source, STORE_TYPES)
            else map(source.read_chunk, range(source.n_chunks)) if serial
            else ChunkPrefetcher(source)
            for source in sources
        )
        prefetchers = [reader for reader in readers
                       if isinstance(reader, ChunkPrefetcher)]
        iterator = aligned_chunks(readers)

        def fetch():
            """The next aligned chunk tuple; the blocking wait is I/O time."""
            fetch_start = time.perf_counter()
            chunks = next(iterator, None)
            run_stats["io_seconds"] += time.perf_counter() - fetch_start
            return chunks

        try:
            for step in fold_steps(iter(fetch, None)):
                values = dict(zip(slots, step))
                step = None  # the evaluation owns the step now
                states = _evaluate_step(self._program, values, group.terms,
                                        self._dc_only)
                values = None  # drop the step's intermediates before the next
                for bucket, state in zip(collected, states):
                    bucket.append(state)
        finally:
            # closing the aligned iterator shuts any prefetch pools down
            # promptly, even when a fold error aborts the sweep
            iterator.close()
            run_stats["readahead_sweeps"] += sum(
                prefetcher.readahead for prefetcher in prefetchers)
        run_stats["interpreted_groups"] += 1
        return collected

    def execute(self, *, prefetch=True):
        """Run the plan's sweep groups and finalize the requested scalars.

        Returns a dict keyed like the request, a list for a sequence request,
        or the bare scalar for a single-expression request.

        Each :class:`SweepGroup` runs its own aligned sweep over its connected
        source set, in fold steps (:mod:`repro.streaming.steps`): peak memory
        is one decoded chunk plus one step buffer of at most the budget per
        source, plus the step's structural intermediates.  Terms persisted
        shard partials answer are served first; a group they answer entirely
        counts into ``incremental_groups`` and decodes nothing, otherwise the
        rest of its terms sweep (``interpreted_groups``) over just the
        sources they read.

        ``prefetch`` switches how every store sweep reads its chunks
        (``docs/performance.md``): ``True`` (the default) reads each store
        through its own :class:`~repro.streaming.ChunkPrefetcher`, which
        reads coalesced spans inline and hands the rest of a sweep to a
        readahead pool only once a span's read blocks longer than consuming
        it took; ``False`` is the serial reference loop, one ``read_chunk``
        per chunk.  Results are bit-identical either way; any other value
        raises ``ValueError`` before a sweep starts.
        :attr:`last_execution` also reports ``readahead_sweeps``, the number
        of store sweeps that engaged the pool, and ``io_seconds``, the wall
        time sweeps spent blocked waiting on chunk fetches — once readahead
        engages, that approaches zero even though the same records are read.
        """
        if prefetch not in (True, False):
            raise ValueError(f"prefetch is a switch (True or False), "
                             f"got {prefetch!r}")
        self._validate_sources()
        run_stats = {
            "interpreted_groups": 0,
            "incremental_groups": 0,
            "io_seconds": 0.0,
            "readahead_sweeps": 0,
        }
        states: dict = {}
        fresh: dict = {}  # source index → its one freshness probe
        for group in self.groups:
            served = self._serve_from_partials(group.terms, fresh)
            states.update(served)
            rest = tuple(term for term in group.terms if term not in served)
            if not rest:
                run_stats["incremental_groups"] += 1
                continue
            # the unserved terms sweep over just the sources they read
            sweeps = _group_terms(self._program, rest) if served else (group,)
            for sweep in sweeps:
                collected = self._sweep_group(sweep, run_stats, not prefetch)
                for term, bucket in zip(sweep.terms, collected):
                    combined = folds.combine_all(bucket)
                    if combined is None:
                        raise ValueError("cannot reduce an empty chunk stream")
                    states[term] = combined
        self.last_execution = run_stats
        # one scope for every finalizer: each state's exact total is taken
        # once, however many outputs read it
        with fold_step():
            results = {key: folds.REDUCTION_SPECS[op].finalize(slots, states, options)
                       for key, (op, slots, options) in self._outputs.items()}
        if self._shape == "single":
            return next(iter(results.values()))
        if self._shape == "sequence":
            return list(results.values())
        return results


# ------------------------------------------------------------------ compilation
def _normalize_request(request) -> tuple[dict, str]:
    """Coerce the request into an ordered ``key -> Reduction`` mapping + shape."""
    if isinstance(request, Expr):
        return {"result": request}, "single"
    if isinstance(request, Mapping):
        return dict(request), "mapping"
    if isinstance(request, (list, tuple)):
        return {index: expression for index, expression in enumerate(request)}, \
            "sequence"
    raise TypeError(
        f"plan() takes an expression, a mapping or a sequence of expressions, "
        f"got {type(request).__name__}"
    )


def plan(request) -> Plan:
    """Compile reduction expressions into a fused, introspectable :class:`Plan`.

    ``request`` may be a single :class:`~repro.engine.expr.Reduction`, a
    mapping of names to reductions, or a sequence of reductions;
    :meth:`Plan.execute` returns results in the matching shape.  Raises
    ``TypeError`` for array-valued expressions (materialise those with
    :mod:`repro.streaming.ops`) and ``ValueError`` for an empty request, an
    unknown reduction, a wrong operand count or an option its
    :class:`~repro.core.ops.folds.ReductionSpec` does not accept.
    """
    requested, shape = _normalize_request(request)
    if not requested:
        raise ValueError("cannot plan an empty set of expressions")

    program: list[tuple] = []
    sources: list = []
    slot_by_key: dict = {}
    source_slot_by_id: dict[int, int] = {}

    def intern(node: ArrayExpr) -> int:
        """Intern one array node (and its operands) into the chunk program."""
        key = node.key
        if key in slot_by_key:
            return slot_by_key[key]
        if isinstance(node, Source):
            source_index = source_slot_by_id.get(id(node.wrapped))
            if source_index is None:
                source_index = len(sources)
                sources.append(node.wrapped)
                source_slot_by_id[id(node.wrapped)] = source_index
            entry: tuple = ("source", source_index)
        else:
            operand_slots = tuple(intern(operand) for operand in node.operands)
            if node.kind == "scale":
                entry = ("scale", operand_slots[0], node.factor)
            elif node.kind == "negate":
                entry = ("negate", operand_slots[0])
            else:
                entry = (node.kind,) + operand_slots
        program.append(entry)
        slot = len(program) - 1
        slot_by_key[key] = slot
        return slot

    terms: dict = {}
    outputs: dict = {}
    for key, expression in requested.items():
        if not isinstance(expression, Reduction):
            hint = (" (array-valued expressions are materialised by "
                    "repro.streaming.ops, not planned)") \
                if isinstance(expression, ArrayExpr) else ""
            raise TypeError(
                f"plan() fuses scalar reductions; output {key!r} is "
                f"{type(expression).__name__}{hint}"
            )
        options = dict(expression.options)
        spec = folds.reduction_spec(expression.op, len(expression.operands), options)
        operand_slots = tuple(intern(operand) for operand in expression.operands)
        for term in spec.terms_over(operand_slots):
            terms.setdefault(term, None)
        outputs[key] = (expression.op, operand_slots, options)

    frozen_program = tuple(program)
    return Plan(outputs, frozen_program, sources,
                _group_terms(frozen_program, tuple(terms)), shape)


def _group_terms(program: tuple, terms: tuple) -> tuple:
    """Partition the plan's terms into connected components over their sources.

    Terms sharing any source must fold from one aligned sweep (the shared
    chunk is decoded once for all of them); terms over disjoint sources sweep
    independently, so unrelated reductions fuse even when their sources have
    different shapes or chunkings.  Groups and their terms keep first-seen
    order, so execution stays deterministic.
    """
    term_sources = {
        term: tuple(sorted(
            slot for slot in _needed_slots(program, (term,))
            if program[slot][0] == "source"
        ))
        for term in terms
    }
    parent: dict[int, int] = {}

    def find(slot: int) -> int:
        """Union-find root with path compression."""
        root = parent.setdefault(slot, slot)
        while root != parent[root]:
            root = parent[root]
        while parent[slot] != root:
            parent[slot], slot = root, parent[slot]
        return root

    for slots in term_sources.values():
        first = find(slots[0])
        for slot in slots[1:]:
            parent[find(slot)] = first

    grouped: dict[int, list] = {}
    for term in terms:
        grouped.setdefault(find(term_sources[term][0]), []).append(term)
    groups = []
    for members in grouped.values():
        source_slots = tuple(sorted(
            {slot for term in members for slot in term_sources[term]}
        ))
        source_indices = tuple(program[slot][1] for slot in source_slots)
        groups.append(SweepGroup(tuple(members), source_slots, source_indices))
    return tuple(groups)


def evaluate(request):
    """Compile and run in one call: ``plan(request).execute()``."""
    return plan(request).execute()
