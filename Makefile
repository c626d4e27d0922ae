# Developer entry points.  Every target sets PYTHONPATH=src so the repo works
# without installation; `make install` makes that unnecessary.

PYTHON ?= python
EXAMPLES := quickstart text_to_vis_pipeline chart_captioning fevisqa_assistant dataset_report calibrate_checkpoint trace_request

.PHONY: test test-nochaos test-fast test-decode test-streaming test-chaos bench bench-e2e bench-compare bench-pair bench-gates calibrate-demo trace-demo smoke ci install docs check-docs help

help:
	@echo "make test          - tier-1 verification: full test + benchmark suite (pytest -x -q)"
	@echo "make test-nochaos  - tier-1 minus the chaos suite (pytest -x -q -m 'not chaos'); make ci runs this plus make test-chaos, so the chaos suite runs once, under its watchdog"
	@echo "make test-fast     - tests/ only, without the process-killing chaos suite (pytest tests -m 'not chaos')"
	@echo "make test-decode   - the decode oracles (paged-vs-naive equivalence, arena forks/copy-on-write, array encoder and step float identity, resident self-attention K/V equals the gathered pages, precision, calibration) plus the suites of the module bodies decode shares with training (per-module array-vs-Tensor oracles, T5 and DataVisT5 training): the inner loop for nn changes"
	@echo "make test-streaming - streaming + corpus-QA equivalence suites only (chunk protocol, reassembly-equals-sync, differential retrieval, the shard worker's serve/stream handler)"
	@echo "make test-chaos    - sharded-tier chaos suite only, bounded by a 900s watchdog (pytest -m chaos)"
	@echo "make bench         - benchmarks/ only: paper tables I-XII, the design gates and the end-to-end smoke run, all at smoke scale"
	@echo "make bench-e2e     - the end-to-end benchmark: five workloads x three repeats -> benchmarks/e2e/out/result.json (fails if any output misses its oracle; see benchmarks/e2e/README.md)"
	@echo "make bench-compare PARENT=a.json CHANGE=b.json - paired comparison of two bench-e2e result files (better / worse / unresolved per workload and metric)"
	@echo "make bench-pair PARENT_SRC=dir [REPEATS=10] [SEED=101] - interleaved ABBA pairs of bench-e2e (--repeats 1 each) on another checkout's src/ and this one, merged into benchmarks/e2e/out/pair/{parent,change}.json, then bench-compare (tools/bench_pair.sh)"
	@echo "make bench-gates   - design gates at paper scale (benchmarks/test_design_gates.py): cached decode >= naive, continuous >= static batching, short-request p50 >= 1.5x better, calibrated int8 agreement >= 99% / speedup >= 1.5x / compression >= 6x in decode and >= 99% in serving; rewrites BENCH_quant_policy.json"
	@echo "make calibrate-demo - run the int8 calibration walkthrough (examples/calibrate_checkpoint.py)"
	@echo "make trace-demo    - stream one corpus_qa request with tracing on and print its span tree (examples/trace_request.py)"
	@echo "make smoke         - run every example end-to-end"
	@echo "make docs          - generate the API reference from docstrings into docs/api/ (ignored build output)"
	@echo "make check-docs    - docstring-coverage gate: fail if any public repro.* surface lacks a docstring"
	@echo "make ci            - what the CI workflow runs: test-nochaos + test-chaos (= tier-1, chaos bounded) + smoke + docs build + docstring gate"
	@echo "make install       - editable install (pip install -e .)"

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Tier-1 without the chaos suite: `make ci` pairs it with `make test-chaos`
# so the process-killing tests run exactly once, under the watchdog.
test-nochaos:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q -m "not chaos"

# The fast inner loop: unit/property suites only — no paper-table benchmarks
# (directory split) and no chaos suite (marker split; it kills real forked
# processes and dominates tests/ wall-clock).
test-fast:
	PYTHONPATH=src $(PYTHON) -m pytest tests -q -m "not chaos"

# The decode oracles: generate's paged drivers against the naive loops, the
# arena's page bookkeeping, the array encoder's and step's float identity, the
# resident self-attention K/V against the gathered pages, and
# the precision and calibration suites that decode through it.  Each module has
# one forward body for a Tensor (training) and an array (decode), so the
# per-module array-vs-Tensor oracles and the training suites run here too.
test-decode:
	PYTHONPATH=src $(PYTHON) -m pytest tests/nn/test_decode_equivalence.py tests/nn/test_paged_arena.py tests/nn/test_paged_step_arrays.py tests/nn/test_resident_kv.py tests/nn/test_precision.py tests/nn/test_calibration.py tests/nn/test_layers.py tests/nn/test_attention_transformer.py tests/core/test_model_training.py -q

# The streaming contract end to end: chunk wire protocol, reassembly-equals-
# sync properties, the retrieval index's differential determinism, and the
# shard worker's one serve handler, which streams chunk frames too.
test-streaming:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_serving_streaming.py tests/test_serving_protocol_roundtrip.py tests/datasets/test_corpus_index.py tests/test_serving_shard_worker.py -q

# The chaos suite SIGKILLs/SIGSTOPs live shard processes; if a gateway
# regression ever left a request future unresolved it would hang rather than
# fail, so the watchdog turns that hang into a hard failure.
test-chaos:
	PYTHONPATH=src timeout 900 $(PYTHON) -m pytest tests -q -m chaos

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks -q

# One measurement system (benchmarks/e2e/README.md).  run.py puts src/ on its
# own path and pins the BLAS thread counts, so it needs no PYTHONPATH.
bench-e2e:
	python3 benchmarks/e2e/run.py --all --repeats 3 --out benchmarks/e2e/out/result.json

bench-compare:
	python3 benchmarks/e2e/run.py compare $(PARENT) $(CHANGE)

# What a perf PR needs for its ten pairs: parent and change alternate which
# side runs first, so minutes-long host drift cancels instead of deciding.
REPEATS ?= 10
SEED ?= 101
bench-pair:
	tools/bench_pair.sh $(PARENT_SRC) $(REPEATS) $(SEED)

# The design gates no end-to-end metric carries, at the scale where the
# precision sweep trains and calibrates for real (tier-1 runs the same file
# at smoke scale).
bench-gates:
	REPRO_BENCH_SCALE=paper PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_design_gates.py -q

# The observability walkthrough (trace one streamed request, render the span
# tree and the merged metrics); `make smoke` also runs it.
trace-demo:
	PYTHONPATH=src $(PYTHON) examples/trace_request.py

# The full calibration workflow (fine-tune -> calibrate -> quantize ->
# register -> rebuild) at example scale; `make smoke` also runs it.
calibrate-demo:
	PYTHONPATH=src $(PYTHON) examples/calibrate_checkpoint.py

# Keep this the single source of truth for what CI executes, so local runs
# and .github/workflows/ci.yml can never drift apart.  `docs` doubles as the
# docs build check: a module that fails to import or document fails CI.  The
# pages it writes are build output (docs/api/ is ignored), not committed.
ci: test-nochaos test-chaos smoke docs check-docs

smoke:
	@set -e; for example in $(EXAMPLES); do \
		echo "== examples/$$example.py =="; \
		PYTHONPATH=src $(PYTHON) examples/$$example.py; \
	done

docs:
	PYTHONPATH=src $(PYTHON) tools/gen_api_docs.py --output docs/api

check-docs:
	$(PYTHON) tools/check_docstrings.py --root src/repro

# pip's editable path needs the `wheel` package; fully-offline images without
# it fall back to the legacy setuptools develop command.
install:
	$(PYTHON) -m pip install -e . --no-build-isolation || $(PYTHON) setup.py develop
