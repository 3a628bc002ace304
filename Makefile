GO ?= go

.PHONY: verify build test vet fmt-check lint race bench bench-verify faults trace-determinism check fuzz-smoke profile-smoke same-output

# Tier-1 verification: everything CI and reviewers gate on.
verify: vet build race lint fmt-check

vet:
	$(GO) vet ./...

# Every Go file in the tree, the perfbench module included, is gofmt
# clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# Build the repo's own analysis suite and run it through the standard
# vet driver. The six analyzers (wallclock, seedrand, detflow, hotpath,
# unitcheck, floateq) enforce the determinism, allocation and
# unit-safety invariants of DESIGN.md §9 and §14; wallclock, seedrand,
# detflow's map-ordered calls and hotpath are transitive, chained
# through per-package fact files the go command threads between units.
lint: bin/snicvet
	$(GO) vet -vettool=bin/snicvet ./...

bin/snicvet: FORCE
	$(GO) build -o bin/snicvet ./tools/snicvet

.PHONY: FORCE
FORCE:

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem .

# The repository benchmark's own tests (perfbench/): pass digests at the
# default and a non-default master seed, and BENCHMARK.json against the
# program's metric list. perfbench is a separate module that needs go
# 1.24, so the root `go test ./...` never runs them. About 40 s on 2 CPUs.
bench-verify:
	cd perfbench && $(GO) test .

# Self-profile determinism: profile.json holds only virtual-state
# counters, so -exp all must emit byte-identical profiles at -j 1 and
# -j $(nproc). A profile could differ only if two workers looked up one
# memo key at once and both simulated it; no experiment does. The stderr
# events/s line is wall-clock and deliberately NOT part of the
# comparison.
profile-smoke: bin/snicbench
	./bin/snicbench -exp all -q -j 1 -profile profile_j1.json > /dev/null
	./bin/snicbench -exp all -q -j $$(nproc) -profile profile_jN.json > /dev/null
	cmp profile_j1.json profile_jN.json
	rm -f profile_j1.json profile_jN.json
	@echo "profile smoke: OK"

# Byte-identical output against a base commit: builds cmd/snicbench at
# BASE (extracted with git archive) and in the working tree, then
# compares -exp all stdout and its -profile JSON, -exp all's metrics and
# manifests, the fig4 nat trace and metrics, the fleet manifest and
# metrics CSV, the pipeline and offload traces, metrics and manifests,
# the checked and untraced fig4, faults, pipeline, offload, strategies
# and fleet runs (their manifests come from the recorders' counts), the
# faults trace and metrics CSV, and the checked and traced pipeline run,
# by digest.
# A change that must not move any number runs this against its parent.
BASE ?= HEAD
same-output:
	bash tools/same-output.sh $(BASE)

# Regenerate the fault-scenario experiment family.
faults:
	$(GO) run ./cmd/snicbench -exp faults

# Checked execution: every experiment family under online invariant
# validation (request/byte conservation, causality, clock monotonicity,
# queue sanity), recorded as well: metrics and manifests go to a
# temporary directory, so the recorder's counts, the checker fan-out and
# the span audit as each span is recorded run on every family. Any
# broken law panics with a typed violation, so a clean exit is the
# assertion.
check: bin/snicbench
	tmp=$$(mktemp -d); \
	for e in fig4 fig5 table4 strategies faults fleet pipeline offload; do \
		echo "checked: $$e"; \
		./bin/snicbench -exp $$e -check -q -metrics "$$tmp/m.json" -manifest "$$tmp/r.json" > /dev/null || { rm -rf "$$tmp"; exit 1; }; \
	done; \
	rm -rf "$$tmp"
	@echo "checked execution: OK"

bin/snicbench: FORCE
	$(GO) build -o bin/snicbench ./cmd/snicbench

# Short-budget native fuzzing over the property layer: the engine
# scheduler, the fault-plan validator, the fleet dispatcher, the flow
# table, and the checked point, pipeline, offload and failover runs. FUZZTIME bounds each target's budget so the
# smoke fits CI; run with a bigger FUZZTIME locally to dig. The go
# command shrinks each new interesting input for up to a minute by
# default, which can take all of a short budget; 100 executions per
# input bound the shrinking. A failing input still fails the run and is
# still written to testdata/fuzz.
FUZZTIME ?= 20s
FUZZ = $(GO) test -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
fuzz-smoke:
	$(FUZZ) -fuzz '^FuzzEngineSchedule$$' ./internal/sim
	$(FUZZ) -fuzz '^FuzzPlanValidate$$' ./internal/fault
	$(FUZZ) -fuzz '^FuzzDispatch$$' ./internal/fleet
	$(FUZZ) -fuzz '^FuzzCheckedRun$$' ./internal/core
	$(FUZZ) -fuzz '^FuzzPipelineRun$$' ./internal/core
	$(FUZZ) -fuzz '^FuzzFlowTable$$' ./internal/flow
	$(FUZZ) -fuzz '^FuzzOffloadRun$$' ./internal/core
	$(FUZZ) -fuzz '^FuzzFaultedRun$$' ./internal/core

# Telemetry exports must be byte-identical at every parallelism: run
# each experiment sequentially and fully parallel and compare what it
# printed and wrote: the fig4 nat trace and metrics CSV, the fleet
# manifest, and the pipeline and offload traces, metrics JSON and
# manifests. Each file is deleted once it has been compared.
trace-determinism: bin/snicbench
	./bin/snicbench -exp fig4 -func nat -q -j 1 \
		-trace trace_j1.json -metrics metrics_j1.csv > /dev/null
	./bin/snicbench -exp fig4 -func nat -q -j $$(nproc) \
		-trace trace_jN.json -metrics metrics_jN.csv > /dev/null
	cmp trace_j1.json trace_jN.json
	cmp metrics_j1.csv metrics_jN.csv
	rm -f trace_j1.json trace_jN.json metrics_j1.csv metrics_jN.csv
	./bin/snicbench -exp fleet -q -j 1 \
		-manifest fleet_manifest_j1.json > fleet_j1.txt
	./bin/snicbench -exp fleet -q -j $$(nproc) \
		-manifest fleet_manifest_jN.json > fleet_jN.txt
	cmp fleet_j1.txt fleet_jN.txt
	cmp fleet_manifest_j1.json fleet_manifest_jN.json
	rm -f fleet_j1.txt fleet_jN.txt fleet_manifest_j1.json fleet_manifest_jN.json
	for e in pipeline offload; do \
		./bin/snicbench -exp $$e -q -j 1 -trace trace_j1.json \
			-metrics metrics_j1.json -manifest manifest_j1.json > $${e}_j1.txt && \
		./bin/snicbench -exp $$e -q -j $$(nproc) -trace trace_jN.json \
			-metrics metrics_jN.json -manifest manifest_jN.json > $${e}_jN.txt && \
		cmp $${e}_j1.txt $${e}_jN.txt && rm -f $${e}_j1.txt $${e}_jN.txt && \
		cmp trace_j1.json trace_jN.json && rm -f trace_j1.json trace_jN.json && \
		cmp metrics_j1.json metrics_jN.json && rm -f metrics_j1.json metrics_jN.json && \
		cmp manifest_j1.json manifest_jN.json && rm -f manifest_j1.json manifest_jN.json || exit 1; \
	done
	@echo "trace determinism: OK"
