"""Lazy expression/plan engine: fuse many compressed-domain ops into one sweep.

The paper's headline capability is operating directly on compressed arrays;
:mod:`repro.streaming.ops` extended every Table I reduction out-of-core, but
each call sweeps the whole :class:`repro.streaming.CompressedStore` on its own
— an analysis asking for mean, variance, norm and cosine pays four-plus
decode passes where one would do.  This package turns those calls into a lazy
expression graph plus a fusing planner:

* :mod:`repro.engine.expr` — build expressions: ``expr.mean(x)``,
  ``expr.covariance(x, y)``, structural ``expr.add``/``expr.scale``/… that
  feed reductions without materialising intermediate stores.
* :mod:`repro.engine.plan` — compile any set of reductions into a
  :class:`Plan` that deduplicates shared fold partials (dot and cosine share
  the product sum; variance and standard deviation share the centered-square
  sum) and groups them by source so each chunk is decoded **once** — every
  plan, the centered statistics included, is a single fused sweep.
* :mod:`repro.engine.wire` — a stable JSON wire form for the expression graph
  (sources become catalog names), which is how the serving layer
  (:mod:`repro.serving`) ships reduction requests over the network.

Results are bit-identical to the sequential per-op calls (same partials, same
correctly rounded sum :func:`repro.core.ops.folds.total`), and every sweep
reads through the one prefetching chunk reader.  See ``docs/engine.md`` for
the API, the planning rules, the one-sweep guarantee and the fusion matrix.

Quickstart::

    from repro.engine import evaluate, expr, plan

    p = plan({"mean": expr.mean(store_a), "dot": expr.dot(store_a, store_b)})
    assert len(p.groups) == 1         # both folds share one sweep of store_a
    results = p.execute()             # {'mean': ..., 'dot': ...}
    single = evaluate(expr.l2_norm(store_a))   # bare scalar
"""

from . import expr, wire
from .plan import Plan, SweepGroup, evaluate, plan

__all__ = ["expr", "wire", "plan", "evaluate", "Plan", "SweepGroup"]
