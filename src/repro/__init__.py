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
re-exported here; import everything else from its defining module
(``from repro.core.transition import TransitionManager``).
"""

from repro.bloom.config import optimal_config
from repro.bloom.counting import CountingBloomFilter
from repro.cache.cluster import CacheCluster
from repro.core.migration import migration_lower_bound
from repro.core.placement import theoretical_min_vnodes
from repro.core.retrieval import FetchPath, RetrievalEngine
from repro.core.router import (
    ConsistentRouter,
    ProteusRouter,
    make_router,
)
from repro.database.cluster import DatabaseCluster
from repro.experiments.testbed import ScenarioSpec, SimTestbed, Sizing
from repro.experiments.loadbalance import evaluate_load_balance
from repro.net.client import MemcachedClient
from repro.net.server import MemcachedServer
from repro.provisioning.controller import run_feedback_loop
from repro.provisioning.policies import load_proportional_schedule
from repro.web.frontend import WebServer
from repro.workload.wikipedia import generate_trace

__version__ = "1.0.0"

__all__ = [
    "CacheCluster",
    "ConsistentRouter",
    "CountingBloomFilter",
    "DatabaseCluster",
    "FetchPath",
    "MemcachedClient",
    "MemcachedServer",
    "ProteusRouter",
    "RetrievalEngine",
    "ScenarioSpec",
    "SimTestbed",
    "Sizing",
    "WebServer",
    "evaluate_load_balance",
    "generate_trace",
    "load_proportional_schedule",
    "make_router",
    "migration_lower_bound",
    "optimal_config",
    "run_feedback_loop",
    "theoretical_min_vnodes",
]
