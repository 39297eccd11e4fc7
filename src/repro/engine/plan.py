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
3. **Schedule** — every term goes into the plan's single pass, grouped by
   source so each aligned chunk tuple is decoded once and feeds every partial
   that wants it; decoded chunks shared by two or more coefficient-touching
   folds get a primed ``coefficients_cache`` (one dense materialisation,
   bitwise-identical copies per fold).

**Pass-count guarantee**: ``plan.n_passes`` is always 1; every source is
decoded once per chunk (``plan.decode_passes`` is 1 for each source), so a
single-shot generator of chunks is as good a source as a store.

**Bit-identity guarantee**: every fused scalar equals the corresponding
sequential :mod:`repro.streaming.ops` call bit for bit — the per-block partial
sums are computed by the same partials on the same chunk bits, and
the correctly rounded sum :func:`repro.core.ops.folds.total` (bit-identical to
``math.fsum``) finalizes the same per-chunk vectors in the same chunk order.

**Compiled execution**: ``Plan.execute(backend=...)`` routes lowered pass
groups through one compiled fused-pass kernel per plan signature
(:mod:`repro.engine.compile`) — ``gemm`` vectorizes the whole step over the
flattened kept-coefficient matrices, ``numba`` JIT-compiles a generated
per-block loop.  The ``reference`` default keeps the interpreted, bit-exact
path above; compiled means stay bit-identical and summing folds agree within
the backend's ``fused_fold_tolerance`` (see ``docs/engine.md``).

Every sweep reads its chunks through the one prefetching reader
(:func:`repro.streaming.sources.aligned_chunks`), so the caller's chunk cache,
retry policy, codec override and read counters apply to every plan.
"""

from __future__ import annotations

import time
from typing import Mapping

from ..core import ops as core_ops
from ..core.ops import folds
from ..kernels import DEFAULT_BACKEND
from ..reliability import faults
from ..streaming.prefetch import resolve_depth
from ..streaming.sharded import ShardedStore
from ..streaming.sources import (STORE_TYPES, aligned_chunks, check_stores,
                                 require_pyblaz)
from . import compile as plan_compile
from .expr import ArrayExpr, Expr, Reduction, Source

__all__ = ["Plan", "PlanPass", "PassGroup", "plan", "evaluate"]


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


def _evaluate_chunk_terms(program: tuple, values: dict,
                          terms: tuple) -> list[folds.FoldState]:
    """One fused chunk step: structural nodes, shared caches, every term's partial.

    ``values`` arrives holding the decoded source chunks for this step (slot →
    :class:`CompressedArray`); structural slots are filled by the in-memory
    :mod:`repro.core.ops` operations in slot (topological) order.  Each chunk
    is offered to :func:`repro.core.ops.folds.shared_coefficients` as soon as
    it exists — the same caching rule :func:`repro.core.ops.folds.evaluate`
    runs in memory, with ``add``/``subtract`` operands counted as consumers.
    """
    needed = sorted(_needed_slots(program, terms))
    structural_uses = [operand for slot in needed
                       if program[slot][0] in ("add", "subtract")
                       for operand in program[slot][1:3]]
    with folds.shared_coefficients(terms, structural_uses) as offer:
        for slot in needed:
            entry = program[slot]
            kind = entry[0]
            if kind == "add":
                values[slot] = core_ops.add(values[entry[1]], values[entry[2]])
            elif kind == "subtract":
                values[slot] = core_ops.subtract(values[entry[1]], values[entry[2]])
            elif kind == "scale":
                values[slot] = core_ops.multiply_scalar(values[entry[1]], entry[2])
            elif kind == "negate":
                values[slot] = core_ops.negate(values[entry[1]])
            elif slot not in values:  # pragma: no cover - sources are seeded
                raise ValueError(f"source chunk for slot {slot} was not decoded")
            offer(slot, values[slot])
        return folds.run_terms(values, terms)


# ------------------------------------------------------------------ the plan
class PassGroup:
    """One aligned sweep within a pass: terms over one connected source set.

    Terms that share no source decode independently — fusing ``mean(a)`` with
    ``mean(b)`` must not force ``a`` and ``b`` into one lockstep iteration
    (they may be shaped or chunked differently).  The planner therefore
    partitions each pass's terms into connected components over their source
    sets; geometry checks (`check_stores`) and chunk alignment apply *within*
    a group only.
    """

    def __init__(self, terms: tuple, source_slots: tuple, source_indices: tuple):
        self.terms = terms
        self.source_slots = source_slots
        self.source_indices = source_indices

    def __repr__(self) -> str:
        names = ", ".join(f"{name}{slots}" for name, slots in self.terms)
        return f"PassGroup(sources={self.source_indices}, terms=[{names}])"


class PlanPass:
    """The plan's sweep: every term folded during it, grouped by source set.

    Attributes
    ----------
    index:
        1-based pass number (always 1: every plan is a single sweep).
    terms:
        ``(fold name, operand slots)`` keys folded during this pass, in a
        deterministic collection order.
    groups:
        The :class:`PassGroup` sweeps — one aligned chunk iteration per
        connected source set; each group's sources are decoded exactly once
        per chunk during its sweep.
    source_slots:
        Node slots of every leaf source this pass decodes (union over groups,
        aligned with ``source_indices``).
    source_indices:
        Indices into :attr:`Plan.sources` of the sources this pass decodes.
    """

    def __init__(self, index: int, terms: tuple, groups: tuple):
        self.index = index
        self.terms = terms
        self.groups = groups
        self.source_slots = tuple(slot for group in groups
                                  for slot in group.source_slots)
        self.source_indices = tuple(source for group in groups
                                    for source in group.source_indices)

    def __repr__(self) -> str:
        names = ", ".join(f"{name}{slots}" for name, slots in self.terms)
        return f"PlanPass({self.index}, sources={self.source_indices}, terms=[{names}])"


class Plan:
    """A compiled, introspectable fusion of reduction expressions.

    Build with :func:`plan`; run with :meth:`execute`.  The plan is reusable —
    executing twice re-sweeps the sources (stores re-read from disk; plain
    chunk sequences re-iterated).

    Attributes
    ----------
    sources:
        The deduplicated leaf sources, in first-appearance order.
    passes:
        The scheduled :class:`PlanPass` sweep (length = :attr:`n_passes` = 1).
    default_backend:
        Kernel backend :meth:`execute` uses when called without ``backend=``
        (``None`` → resolve from source settings, else ``reference``).
    last_execution:
        After :meth:`execute`: a dict recording the resolved ``backend``, any
        ``fallback_reason`` (backend unavailable at resolve time, or a
        compiled kernel failing at runtime mid-sweep), per-mode group counts
        (``compiled_groups``/``interpreted_groups``/``incremental_groups`` —
        the last counts sweep groups answered entirely from a sharded store's
        persisted fold partials, decoding nothing), the number of
        ``runtime_fallbacks`` (compiled groups that degraded to the
        interpreter mid-run — the interpreted path resumed the same decoded
        chunks, so the scalars are still correct) and the JIT
        ``compile_seconds`` spent this run (0.0 on warm kernel-cache hits).
        ``None`` before the first execution.
    """

    def __init__(self, outputs: dict, program: tuple, sources: list,
                 passes: list[PlanPass], shape: str,
                 default_backend: str | None = None):
        self._outputs = outputs
        self._program = program
        self.sources = tuple(sources)
        self.passes = tuple(passes)
        self._shape = shape
        self.default_backend = default_backend
        self.last_execution: dict | None = None

    # -------------------------------------------------------------- introspection
    @property
    def n_passes(self) -> int:
        """Number of fused sweeps: always 1 (every fold is one-pass)."""
        return len(self.passes)

    @property
    def output_keys(self) -> tuple:
        """Keys of the requested outputs, in request order."""
        return tuple(self._outputs)

    @property
    def decode_passes(self) -> tuple[int, ...]:
        """Per source (aligned with :attr:`sources`): how many passes decode it."""
        counts = [0] * len(self.sources)
        for pass_ in self.passes:
            for source_index in pass_.source_indices:
                counts[source_index] += 1
        return tuple(counts)

    def describe(self) -> str:
        """Human-readable plan: backend, sources, per-pass fused terms, outputs.

        The backend line reflects the *executing* backend: what the last
        :meth:`execute` actually ran (including any availability fallback), or
        what the next default execution would resolve to before the first run.
        """
        executed = self.last_execution
        if executed is not None:
            backend = executed["backend"]
        else:
            backend, _ = plan_compile.resolve_backend(self.default_backend,
                                                      self.sources)
        lines = [f"plan: {self.n_passes} pass(es) over {len(self.sources)} source(s), "
                 f"{len(self._outputs)} output(s), backend={backend}"]
        for index, source in enumerate(self.sources):
            label = type(source).__name__
            if isinstance(source, STORE_TYPES):
                label = f"{type(source).__name__}({source.path})"
            lines.append(f"  source s{index}: {label}")
        for pass_ in self.passes:
            lines.append(f"  pass {pass_.index}: {len(pass_.terms)} term(s) in "
                         f"{len(pass_.groups)} group(s)")
            for group in pass_.groups:
                terms = ", ".join(f"{name}{slots}" for name, slots in group.terms)
                decoded = ", ".join(f"s{i}" for i in group.source_indices)
                lines.append(f"    decode [{decoded}] once per chunk; "
                             f"fold {terms}")
        for key, (op, slots, _) in self._outputs.items():
            lines.append(f"  output {key!r}: {op}{slots}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"Plan(outputs={list(self._outputs)}, passes={self.n_passes}, "
                f"sources={len(self.sources)})")

    # -------------------------------------------------------------- validation
    def _validate_sources(self) -> None:
        """Upfront checks: pyblaz stores, per-group geometry, DC availability.

        Geometry (shape and chunking) must match only *within* a sweep group —
        unrelated reductions fuse across differently shaped or chunked sources.
        DC-requiring folds (``FoldSpec.requires_dc``) fail fast when a store
        source's pruning mask dropped the first coefficient, instead of deep in
        the first sweep.
        """
        for source in self.sources:
            if isinstance(source, STORE_TYPES):
                require_pyblaz(source)
        for pass_ in self.passes:
            for group in pass_.groups:
                check_stores([self.sources[index]
                              for index in group.source_indices])
            for name, slots in pass_.terms:
                if not folds.FOLD_SPECS[name].requires_dc:
                    continue
                for slot in sorted(_needed_slots(self._program, ((name, slots),))):
                    if self._program[slot][0] != "source":
                        continue
                    source = self.sources[self._program[slot][1]]
                    settings = (source.settings
                                if isinstance(source, STORE_TYPES) else None)
                    if settings is not None and not settings.first_coefficient_kept:
                        raise ValueError(
                            f"{name} requires the first coefficient of each "
                            "block to be unpruned"
                        )

    # -------------------------------------------------------------- execution
    def _serve_from_partials(self, terms: tuple) -> dict:
        """The states of the terms persisted shard partials can answer.

        A term is servable — none of its chunks decoded — when it is a
        leaf-source fold a :class:`ShardedStore` persists: ``dc(s)``,
        ``square(s)``, or ``product(s, s)`` with both operands the same slot
        (per-block arithmetic identical to ``square``, served from the same
        vectors relabeled), and the slot maps straight to a sharded source
        with fresh partials (:meth:`ShardedStore.fold_state` applies the
        staleness checks).  Structural operands, non-sharded sources, other
        folds (the centered folds' AC sums are not persisted) and stale
        shards are left to the sweep.  Served states are bit-identical to
        swept ones: the persisted vectors are the sweep's own per-chunk
        partials, concatenated in chunk order, so the correctly rounded sum
        :func:`~repro.core.ops.folds.total` sees the same float64 values in
        the same order.
        """
        states: dict = {}
        for term in terms:
            name, slots = term
            if name in ("dc", "square") and len(slots) == 1:
                fold, rename = name, None
            elif name == "product" and slots[0] == slots[1]:
                fold, rename = "square", "product"
            else:
                continue
            node = self._program[slots[0]]
            source = self.sources[node[1]] if node[0] == "source" else None
            if isinstance(source, ShardedStore):
                state = source.fold_state(fold, rename=rename)
                if state is not None:
                    states[term] = state
        return states

    def _run_pass(self, pass_: PlanPass, backend: str, run_stats: dict,
                  prefetch: int | None = None) -> dict:
        """Execute the pass; return the combined state keyed by term.

        Each :class:`PassGroup` runs its own aligned sweep over its connected
        source set: chunk tuples stream through one at a time, so peak memory
        is one chunk per decoded source plus any structural intermediates.
        Terms persisted shard partials answer are served first; a group they
        answer entirely counts as an ``incremental_groups`` group and decodes
        nothing, otherwise the rest of its terms sweep.

        Under a non-default ``backend``, each group that *lowers*
        (:func:`repro.engine.compile.lower_terms` — all-leaf-source terms
        only) runs its chunk steps through one compiled fused-pass kernel,
        fetched once per group from the signature-keyed cache; groups that do
        not lower, and backends that decline, interpret exactly as the
        default path.  ``run_stats`` accumulates the per-group mode counts
        and JIT compile seconds reported via :attr:`last_execution`.

        ``prefetch`` passes through to the aligned iterator
        (:func:`repro.streaming.sources.aligned_chunks`): store sources read
        ahead through the pipelined prefetcher, and the time this sweep still
        spends *blocked* waiting on chunks accumulates into
        ``run_stats["io_seconds"]`` — with readahead working, that approaches
        zero even though the same records were read.
        """
        state_by_term: dict = {}
        for group in pass_.groups:
            served = self._serve_from_partials(group.terms)
            state_by_term.update(served)
            rest = tuple(term for term in group.terms if term not in served)
            if not rest:
                run_stats["incremental_groups"] += 1
                continue
            # the unserved terms sweep over just the sources they read
            sweeps = _group_terms(self._program, rest) if served else (group,)
            for sweep in sweeps:
                collected = self._sweep_group(sweep, backend, run_stats, prefetch)
                for term, bucket in zip(sweep.terms, collected):
                    combined = folds.combine_all(bucket)
                    if combined is None:
                        raise ValueError("cannot reduce an empty chunk stream")
                    state_by_term[term] = combined
        return state_by_term

    def _sweep_group(self, group: PassGroup, backend: str, run_stats: dict,
                     prefetch: int | None) -> list[list]:
        """One aligned chunk sweep of a group; per-term lists of chunk states.

        The group's compiled kernel (if it lowers) is resolved from the first
        chunk's settings; a kernel failing at runtime degrades the rest of the
        group to the interpreter, which resumes the same decoded chunks.
        """
        sources = tuple(self.sources[index] for index in group.source_indices)
        slots = group.source_slots
        lowering = None
        if backend != DEFAULT_BACKEND:
            lowering = plan_compile.lower_terms(self._program, group.terms, slots)
        kernel = None
        resolved = False
        collected: list[list] = [[] for _ in group.terms]
        run_stats["prefetch_depth"] = max(
            [run_stats["prefetch_depth"]]
            + [resolve_depth(prefetch, source.n_chunks)
               for source in sources if isinstance(source, STORE_TYPES)]
        )
        iterator = aligned_chunks(sources, prefetch=prefetch)
        sentinel = object()
        try:
            while True:
                fetch_start = time.perf_counter()
                chunks = next(iterator, sentinel)
                run_stats["io_seconds"] += time.perf_counter() - fetch_start
                if chunks is sentinel:
                    break
                if lowering is not None and not resolved:
                    resolved = True
                    signature = plan_compile.signature_for(lowering,
                                                           chunks[0].settings)
                    if signature is not None:
                        kernel, seconds = plan_compile.get_pass_kernel(
                            backend, signature
                        )
                        run_stats["compile_seconds"] += seconds
                states = None
                if kernel is not None:
                    try:
                        fault = faults.active_plan()
                        if fault is not None:
                            fault.check_compiled_kernel()
                        states = plan_compile.run_compiled_step(
                            kernel, lowering, chunks
                        )
                    except Exception as exc:
                        # degrade, don't fail: the decoded chunks are
                        # untouched, so the interpreted path below resumes
                        # this chunk and finishes the group bit-exactly
                        kernel = None
                        run_stats["runtime_fallbacks"] += 1
                        run_stats["fallback_reason"] = (
                            f"compiled {backend} kernel failed at runtime "
                            f"({exc}); interpreting the rest of this group"
                        )
                if states is None:
                    values = dict(zip(slots, chunks))
                    chunks = None  # the step owns the chunks now
                    states = _evaluate_chunk_terms(self._program, values,
                                                   group.terms)
                    values = None  # drop coefficients before the next decode
                chunks = None
                for bucket, state in zip(collected, states):
                    bucket.append(state)
        finally:
            # closing the aligned iterator shuts any prefetch pools down
            # promptly, even when a fold error aborts the sweep
            iterator.close()
        run_stats["compiled_groups" if kernel is not None
                  else "interpreted_groups"] += 1
        return collected

    def execute(self, *, backend=None, prefetch=None):
        """Run the plan's one sweep and finalize the requested scalars.

        Returns a dict keyed like the request, a list for a sequence request,
        or the bare scalar for a single-expression request.

        ``prefetch`` controls the pipelined chunk readahead of every sweep
        (``docs/performance.md``): ``None`` auto-enables it, ``0`` keeps the
        strictly serial read→decode loop, a positive integer sets the
        in-flight span window.  Results are bit-identical either way.
        :attr:`last_execution` reports ``prefetch_depth`` — the deepest
        readahead window a chunk sweep actually ran with (``0`` when every
        sweep read serially or no sweep ran) — and ``io_seconds``, the wall
        time sweeps spent blocked waiting on chunk fetches.

        ``backend`` selects the kernel backend executing the fused chunk
        steps (registry names — see ``repro backends``): the default
        ``reference`` path is bit-exact and identical to previous releases;
        fast backends (``gemm``, ``numba``) run lowered groups through one
        compiled kernel per pass signature within the backend's
        ``fused_fold_tolerance``, falling back per group to the interpreter
        when lowering is impossible and falling back entirely to
        ``reference`` when the backend is unavailable.  When omitted, the
        plan's :attr:`default_backend` (then the sources' settings consensus,
        then ``reference``) applies; unknown names raise
        :class:`repro.codecs.CodecError`.  :attr:`last_execution` records
        what actually ran.
        """
        self._validate_sources()
        resolve_depth(prefetch)  # reject a bad setting before any sweep starts
        requested = backend if backend is not None else self.default_backend
        resolved, fallback = plan_compile.resolve_backend(requested, self.sources)
        run_stats = {
            "backend": resolved,
            "requested_backend": requested,
            "fallback_reason": fallback,
            "compiled_groups": 0,
            "interpreted_groups": 0,
            "incremental_groups": 0,
            "runtime_fallbacks": 0,
            "compile_seconds": 0.0,
            "io_seconds": 0.0,
            "prefetch_depth": 0,
        }
        states: dict = {}
        for pass_ in self.passes:
            states.update(self._run_pass(pass_, resolved, run_stats, prefetch))
        self.last_execution = run_stats
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


def plan(request, *, backend: str | None = None) -> Plan:
    """Compile reduction expressions into a fused, introspectable :class:`Plan`.

    ``request`` may be a single :class:`~repro.engine.expr.Reduction`, a
    mapping of names to reductions, or a sequence of reductions;
    :meth:`Plan.execute` returns results in the matching shape.  ``backend``
    sets the plan's default kernel backend (see :meth:`Plan.execute`; unknown
    names raise :class:`repro.codecs.CodecError` here, at planning time).
    Raises ``TypeError`` for array-valued expressions (materialise those with
    :mod:`repro.streaming.ops`) and ``ValueError`` for an empty request, an
    unknown reduction, a wrong operand count or an option its
    :class:`~repro.core.ops.folds.ReductionSpec` does not accept.
    """
    if backend is not None:
        from ..kernels import get_backend_class
        get_backend_class(str(backend).lower())
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
    ordered = tuple(terms)
    sweep = PlanPass(1, ordered, _group_terms(frozen_program, ordered))
    return Plan(outputs, frozen_program, sources, [sweep], shape,
                default_backend=backend)


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
        groups.append(PassGroup(tuple(members), source_slots, source_indices))
    return tuple(groups)


def evaluate(request, *, backend=None, prefetch=None):
    """Compile and run in one call: ``plan(request).execute(...)``.

    ``backend`` and ``prefetch`` pass straight through to
    :meth:`Plan.execute` — ``None`` keeps the bit-exact ``reference`` default
    (or the sources' settings consensus) and the auto readahead depth.
    """
    return plan(request).execute(backend=backend, prefetch=prefetch)
