# Convenience targets for the reproduction.

PYTHON ?= python3
# Trace file consumed by `make trace-report` (see docs/observability.md).
TRACE ?= trace.jsonl
# One run of the benchmark of record (see perfbench/README.md):
#   make perfbench W=knowledge_check SEED=1
W ?= knowledge_check
SEED ?= 1
PERFBENCH_SECONDS ?= 20
PERFBENCH_TRACE ?= 0

.PHONY: install test test-chaos bench perfbench examples quicktest lint lint-json flow-lint flow-json flow-report trace-report trace-diff audit-verify audit-chaos clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

quicktest:
	$(PYTHON) -m pytest tests/ -x -q -p no:randomly -k "not properties and not random_systems"

# Fault-tolerance suite: injected worker kills, raises, timeouts and
# checkpoint/resume.  Faulthandler prints stacks if anything hangs.
# See docs/robustness.md.
test-chaos:
	PYTHONPATH=src PYTHONFAULTHANDLER=1 $(PYTHON) -m pytest tests/robustness -q

# Both static-analysis tiers (see docs/static_analysis.md):
#   tier 1, reprolint  -- intra-file syntactic invariants, also run on tools/
#   tier 2, reproflow  -- whole-program dataflow (determinism, exactness
#                         taint, pool pickle-safety, effect contracts)
lint:
	$(PYTHON) -m tools.reprolint src/repro tools
	$(PYTHON) -m tools.reproflow src/repro

lint-json:
	$(PYTHON) -m tools.reprolint --json src/repro tools

flow-lint:
	$(PYTHON) -m tools.reproflow src/repro

flow-json:
	$(PYTHON) -m tools.reproflow --json src/repro

# Full repro-flow/1 artifact: callgraph, effect summaries, payload closure.
flow-report:
	$(PYTHON) -m tools.reproflow --report flow-report.json src/repro

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The benchmark of record: one run of workload $(W) with seed $(SEED).
# run.py exits 0 even when a job fails its check, so this target fails
# unless the last line of the output reports "correct": true.
perfbench:
	@mkdir -p .perfbench
	$(PYTHON) perfbench/run.py --workload $(W) --seed $(SEED) --seconds $(PERFBENCH_SECONDS) --trace $(PERFBENCH_TRACE) > .perfbench/result-$(W)-seed$(SEED).txt
	@cat .perfbench/result-$(W)-seed$(SEED).txt
	@tail -n 1 .perfbench/result-$(W)-seed$(SEED).txt | $(PYTHON) -c 'import json, sys; sys.exit(0 if json.loads(sys.stdin.read())["correct"] is True else "perfbench: a job failed its check")'

# Summarise a repro-trace/1 JSONL trace (see docs/observability.md).
trace-report:
	PYTHONPATH=src $(PYTHON) -m tools.tracereport $(TRACE)

# Diff two traces / derivations / audit bundles: counter deltas,
# hit-rate shift, timing ratios, first diverging record or derivation
# node and a pointer to it.  Usage: make trace-diff A=run1.jsonl B=run2.jsonl
trace-diff:
	PYTHONPATH=src $(PYTHON) -m tools.tracediff $(A) $(B)

# Verify a repro-audit/1 Merkle bundle without recomputing its sweep:
# hash chain, checkpoint cross-check, derivation replay (see
# docs/observability.md).  Usage: make audit-verify AUDIT=sweep.jsonl.audit
audit-verify:
	PYTHONPATH=src $(PYTHON) -m tools.verifyaudit $(AUDIT)

# The CI acceptance scenario end to end: chaos-kill an audited sweep,
# resume it, verifyaudit the merged bundle (exit 0 iff clean).
audit-chaos:
	$(PYTHON) benchmarks/audit_chaos_sweep.py --artifact-dir audit-artifacts

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s 2>&1 | tee bench_output.txt

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis .benchmarks build *.egg-info
	rm -f .reproflow-cache.json
