# Developer entry points.  `make smoke` is the per-PR gate: the tier-1
# suite plus a small parallel-runner experiment, so the --jobs path is
# exercised on every change.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test smoke bench bench-digests artifacts lint ci

test:
	$(PYTHON) -m pytest tests -x -q

# Static analysis gate: secpb-lint always runs (stdlib-only), including
# the whole-program semantic pass (SPB7xx-9xx: call-graph taint,
# artifact-IO reachability, exception flow); ruff and mypy run when
# installed and are skipped gracefully when not, so the target works in
# the hermetic container and in a dev venv alike.
lint:
	$(PYTHON) -m repro.lint src
	@if $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests; \
	else \
		echo "ruff not installed; skipping"; \
	fi
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/core/schemes.py src/repro/analysis/runner.py src/repro/lint; \
	else \
		echo "mypy not installed; skipping"; \
	fi

# The CI entry point: static analysis, the tier-1 suite, a module-order
# check (test_golden_output's pool and shm segments must be released
# before test_cli's chaos soak), the benchmark smoke (every bench/
# workload at a tiny size), the pinned bench digests, the quick
# parallel-runner smoke (which includes the observability smoke in
# benchmarks/test_obs_smoke.py, and compares table4's stdout at
# --jobs 1 and --jobs 2 byte for byte), the fault-campaign smoke, the
# instrumented-run smoke, the resume smoke (deadline checkpoint ->
# resume -> byte-identical report), and the chaos smoke (systematic
# crash-consistency sweep + seeded envfault soak; mirrors
# .github/workflows/ci.yml).  The quick smoke rewrites QUICK_RESULTS,
# what the fault plane fired among them; they must stay as committed.
QUICK_RESULTS := $(addprefix benchmarks/results/,chaos_systematic.txt \
	chaos_soak.txt fault_smoke.txt quick_smoke.txt)

ci: lint test
	$(PYTHON) -m pytest tests/test_golden_output.py tests/test_cli.py -q -p no:cacheprovider
	$(PYTHON) -m pytest bench/test_bench.py -q -p no:cacheprovider
	$(MAKE) --no-print-directory bench-digests | diff -u tests/data/bench_digests.txt -
	$(PYTHON) -m pytest benchmarks -m quick -q -p no:cacheprovider
	git diff --exit-code -- $(QUICK_RESULTS)
	work=$$(mktemp -d) && trap 'rm -rf "$$work"' EXIT && \
	$(PYTHON) -m repro experiment table4 --num-ops 2000 --jobs 1 > "$$work/jobs1.txt" && \
	$(PYTHON) -m repro experiment table4 --num-ops 2000 --jobs 2 > "$$work/jobs2.txt" && \
	cmp "$$work/jobs1.txt" "$$work/jobs2.txt"
	$(PYTHON) -m repro faultcampaign --crash-points 2 --num-stores 40 --jobs 2
	PYTHON="$(PYTHON)" sh tools/obs_smoke.sh
	PYTHON="$(PYTHON)" sh tools/resume_smoke.sh
	PYTHON="$(PYTHON)" sh tools/chaos_smoke.sh

smoke: test
	$(PYTHON) -m pytest benchmarks -m quick -q -p no:cacheprovider
	$(PYTHON) -m repro experiment table4 --num-ops 2000 --jobs 2

# Full paper-artifact harness (writes benchmarks/results/*.txt).
# SECPB_BENCH_JOBS controls sweep parallelism, e.g. `make bench JOBS=8`.
JOBS ?= 1
bench:
	SECPB_BENCH_JOBS=$(JOBS) $(PYTHON) -m pytest benchmarks --benchmark-only

artifacts: bench

# Results digest and paper_mae_pp of one bench unit per workload, for
# seeds 1 and 2.  tests/data/bench_digests.txt pins the lines: a change
# that must not move any result prints them unchanged (`make ci` diffs
# them), and a model change regenerates the file, as it regenerates the
# goldens:  make --no-print-directory bench-digests > tests/data/bench_digests.txt
BENCH_WORKLOADS := repro-serial repro-parallel simloop-stores simloop-loads
BENCH_DIGEST_LINE := import json, sys; u = json.load(sys.stdin); \
	print(u["workload"], "seed", u["seed"], u["digest"], \
	"paper_mae_pp", u["paper_mae_pp"])
bench-digests:
	@for seed in 1 2; do for workload in $(BENCH_WORKLOADS); do \
		out=$$($(PYTHON) bench/run.py --workload $$workload --seed $$seed \
			--seconds 1 --trace 0) || exit 1; \
		printf '%s\n' "$$out" | tail -n 2 | head -n 1 \
			| $(PYTHON) -c '$(BENCH_DIGEST_LINE)' || exit 1; \
	done; done
