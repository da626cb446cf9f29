# Convenience targets for the proteus-repro repository.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-e2e bench-history bench-ab figures examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# One-round routing/bloom microbenches, the two benches that run
# Algorithm 2 over more than one replica ring (crash ablation, and the
# testbed stresses with their failover timeline), plus the real-socket
# fault smoke (a server stopped mid-drain; every other fault test runs on
# tests/simnet's virtual network inside the test suite) and the hot-key
# storm, autopilot, overload, store-pressure and net-throughput ratchets:
# fast CI canary for the vectorized hot path, the degraded fetch path, the
# armor's load-flattening gate, the overload armor's goodput/recovery
# gate, the store's flat set-at-capacity cost, and the pipelined
# transport's RPS gate (speedup/availability gates still enforced;
# absolute numbers are noisy), and the batch-of-one fixed cost, engine and
# live page side by side (print-only).  The net-throughput ratchet runs
# last: its known failure on 2-core hosts must not keep the others from
# running.
# The path is exported here so a bare `make bench-smoke` runs: the plain
# fault-tolerance script sets no sys.path of its own.
bench-smoke: export PYTHONPATH := src:.$(if $(PYTHONPATH),:$(PYTHONPATH))
bench-smoke:
	PROTEUS_BENCH_ROUNDS=1 $(PYTHON) -m pytest \
		benchmarks/bench_routing_perf.py \
		benchmarks/bench_ablation_replication.py \
		benchmarks/bench_testbed_stress.py --benchmark-disable -q -s
	$(PYTHON) benchmarks/bench_fault_tolerance.py --rounds 1
	$(PYTHON) benchmarks/bench_hotkey_storm.py --check
	$(PYTHON) benchmarks/bench_autopilot.py --check
	$(PYTHON) benchmarks/bench_overload.py --check
	$(PYTHON) benchmarks/bench_store_pressure.py --check
	$(PYTHON) benchmarks/bench_batch_of_one.py
	$(PYTHON) benchmarks/bench_net_throughput.py --check

# Smoke run of the end-to-end page-fetch benchmark BENCHMARK.json
# declares (~30 s, nothing enforced; see benchmarks/e2e/README.md).
bench-e2e:
	python3 benchmarks/e2e/run.py --quick

# Full end-to-end run (~2 min) appended as one line to the committed
# trajectory: metrics, git sha and source line totals per run.
bench-history:
	python3 benchmarks/e2e/run.py --history BENCH_history.jsonl

# The A/B a performance claim rests on: PAIRS alternating runs of commit
# BASE and this tree, each side under its own benchmarks/e2e/run.py
# (~80 s per workload per pair); prints medians, quartiles and the k/N
# sign count and appends both sides to BENCH_history.jsonl.
#   make bench-ab BASE=<sha> [WORKLOAD=page64_hit PAIRS=10]
PAIRS ?= 10
bench-ab:
	python3 benchmarks/ab.py --base $(BASE) --pairs $(PAIRS) \
		$(if $(WORKLOAD),--workload $(WORKLOAD))

# Regenerate every paper figure as printed tables.
figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

clean:
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks
