GO ?= go

.PHONY: verify build test vet fmt-check lint lint-facts race bench bench-verify faults trace-determinism check fuzz-smoke profile-smoke same-output

# Tier-1 verification: everything CI and reviewers gate on.
verify: vet build race lint fmt-check

vet:
	$(GO) vet ./...

# Every Go file in the tree, the perfbench module included, is gofmt
# clean.
fmt-check:
	test -z "$$(gofmt -l .)"

# Build the repo's own analysis suite and run it through the standard
# vet driver. The seven analyzers (wallclock, seedrand, maporder,
# detflow, hotpath, unitcheck, floateq) enforce the determinism,
# allocation and unit-safety invariants of DESIGN.md §9 and §14;
# wallclock/seedrand/maporder violations are transitive, chained
# through per-package fact files the go command threads between units.
lint: bin/snicvet
	$(GO) vet -vettool=bin/snicvet ./...

# Same sweep with the propagated fact database dumped to stderr per
# package — which functions transitively read the wall clock, draw
# unseeded randomness, leak map order, or allocate, and via which call
# chain. SNICVET_FACTS is part of snicvet's -V=full hash, so this never
# serves a cached silent run.
lint-facts: bin/snicvet
	SNICVET_FACTS=1 $(GO) vet -vettool=bin/snicvet ./...

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
# BASE (checked out with git worktree) and in the working tree, then
# compares -exp all stdout and its -profile JSON, -exp all's metrics and
# manifests, the fig4 nat trace and metrics, the fleet manifest, the
# pipeline and offload traces, metrics and manifests, the checked
# faults, pipeline and strategies runs, and the faults trace, by digest.
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
# temporary directory, so the recorder, the checker fan-out and the
# span drop at Attach run on every family. Any broken law panics with a
# typed violation, so a clean exit is the assertion.
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
# smoke fits CI; run with a bigger FUZZTIME locally to dig.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEngineSchedule$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzPlanValidate$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzDispatch$$' -fuzztime $(FUZZTIME) ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzCheckedRun$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineRun$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFlowTable$$' -fuzztime $(FUZZTIME) ./internal/flow
	$(GO) test -run '^$$' -fuzz '^FuzzOffloadRun$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzFaultedRun$$' -fuzztime $(FUZZTIME) ./internal/core

# Telemetry exports must be byte-identical at every parallelism: run the
# same experiment sequentially and fully parallel and diff the traces.
trace-determinism:
	$(GO) run ./cmd/snicbench -exp fig4 -func nat -q -j 1 \
		-trace trace_j1.json -metrics metrics_j1.csv
	$(GO) run ./cmd/snicbench -exp fig4 -func nat -q -j $$(nproc) \
		-trace trace_jN.json -metrics metrics_jN.csv
	cmp trace_j1.json trace_jN.json
	cmp metrics_j1.csv metrics_jN.csv
	rm -f trace_j1.json trace_jN.json metrics_j1.csv metrics_jN.csv
	$(GO) run ./cmd/snicbench -exp fleet -q -j 1 \
		-manifest fleet_manifest_j1.json > fleet_j1.txt
	$(GO) run ./cmd/snicbench -exp fleet -q -j $$(nproc) \
		-manifest fleet_manifest_jN.json > fleet_jN.txt
	cmp fleet_j1.txt fleet_jN.txt
	cmp fleet_manifest_j1.json fleet_manifest_jN.json
	rm -f fleet_j1.txt fleet_jN.txt fleet_manifest_j1.json fleet_manifest_jN.json
	$(GO) run ./cmd/snicbench -exp pipeline -q -j 1 > pipeline_j1.txt
	$(GO) run ./cmd/snicbench -exp pipeline -q -j $$(nproc) > pipeline_jN.txt
	cmp pipeline_j1.txt pipeline_jN.txt
	rm -f pipeline_j1.txt pipeline_jN.txt
	$(GO) run ./cmd/snicbench -exp offload -q -j 1 > offload_j1.txt
	$(GO) run ./cmd/snicbench -exp offload -q -j $$(nproc) > offload_jN.txt
	cmp offload_j1.txt offload_jN.txt
	rm -f offload_j1.txt offload_jN.txt
	@echo "trace determinism: OK"
