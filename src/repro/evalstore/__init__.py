"""The evaluation store: campaigns as a compounding asset.

The paper's headline is that most AutoML energy re-searches
configurations whose outcomes are already known.  This package is the
fix applied to our own campaigns: every scored trial — config, digest,
validation score, charged budget, out-of-fold predictions — persists
into a content-addressed, shard-merge-safe repository
(:class:`EvalStore`), written through from the campaign executor.  On
top of the store sit three zero-refit query engines:

* :func:`whatif_ensemble` — replay Caruana selection over stored OOF
  predictions, bit-identical to a live fit on the same pool;
* :func:`mine_portfolio` / :func:`meta_database_from_store` — greedy
  submodular portfolios and warm-start knowledge mined across stored
  campaigns;
* :func:`trial_front` / :func:`ensemble_frontier` — the
  energy-vs-accuracy Pareto queries.

Surfaced on the CLI as ``repro store``, ``repro whatif`` and
``repro pareto``.
"""

from repro.evalstore.capture import (
    TrialCapture,
    active_capture,
    install_capture,
    uninstall_capture,
)
from repro.evalstore.mining import (
    meta_database_from_store,
    mine_portfolio,
    performance_matrix,
)
from repro.evalstore.pareto import (
    ParetoPoint,
    ensemble_frontier,
    pareto_front,
    trial_front,
    trial_points,
)
from repro.evalstore.records import (
    TRIAL_RECORD_VERSION,
    TrialRecord,
    config_digest,
    trial_key,
)
from repro.evalstore.store import EvalStore
from repro.evalstore.whatif import (
    WhatIfResult,
    select_pool,
    selection_joules,
    whatif_ensemble,
)

__all__ = [
    "TRIAL_RECORD_VERSION",
    "TrialRecord",
    "config_digest",
    "trial_key",
    "EvalStore",
    "TrialCapture",
    "active_capture",
    "install_capture",
    "uninstall_capture",
    "WhatIfResult",
    "select_pool",
    "selection_joules",
    "whatif_ensemble",
    "mine_portfolio",
    "meta_database_from_store",
    "performance_matrix",
    "ParetoPoint",
    "pareto_front",
    "trial_points",
    "trial_front",
    "ensemble_frontier",
]
