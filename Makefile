GO ?= go

.PHONY: verify build test vet lint lint-facts race bench bench-compare bench-verify faults trace-determinism check fuzz-smoke profile-smoke

# Tier-1 verification: everything CI and reviewers gate on.
verify: vet build race lint

vet:
	$(GO) vet ./...

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

# Record sequential vs parallel wall-clock (and verify the two produce
# identical results) for Fig. 4, the S22 fleet simulation, the pipeline
# saturation walks and the flow-offload policy comparison, plus the
# simulator's events/sec and the enabled-telemetry overhead (budget: 15%).
bench-compare:
	$(GO) run ./cmd/benchcompare -out BENCH_parallel.json -fleet-out BENCH_fleet.json -pipeline-out BENCH_pipeline.json -offload-out BENCH_offload.json -events-out BENCH_events.json

# Self-profile determinism: profile.json holds only virtual-state
# counters, so two sequential runs of the same experiment must emit
# byte-identical profiles (at -j>1 racing cache misses make the
# aggregates scheduling-dependent, which is why the diff runs -j1); a
# final -j$(nproc) run just has to parse. The stderr events/s line is
# wall-clock and deliberately NOT part of the comparison.
profile-smoke: bin/snicbench
	./bin/snicbench -exp fig5 -q -j 1 -profile profile_a.json > /dev/null
	./bin/snicbench -exp fig5 -q -j 1 -profile profile_b.json > /dev/null
	cmp profile_a.json profile_b.json
	./bin/snicbench -exp fig4 -func nat -q -j $$(nproc) -profile profile_jN.json > /dev/null
	rm -f profile_a.json profile_b.json profile_jN.json
	@echo "profile smoke: OK"

# Regenerate the fault-scenario experiment family.
faults:
	$(GO) run ./cmd/snicbench -exp faults

# Checked execution: every experiment family under online invariant
# validation (request/byte conservation, causality, clock monotonicity,
# queue sanity). Any broken law panics with a typed violation, so a
# clean exit is the assertion.
check: bin/snicbench
	for e in fig4 fig5 table4 faults fleet pipeline offload; do \
		echo "checked: $$e"; \
		./bin/snicbench -exp $$e -check -q > /dev/null || exit 1; \
	done
	@echo "checked execution: OK"

bin/snicbench: FORCE
	$(GO) build -o bin/snicbench ./cmd/snicbench

# Short-budget native fuzzing over the property layer: the engine
# scheduler, the fault-plan validator, the fleet dispatcher and the
# checked end-to-end runner. FUZZTIME bounds each target's budget so the
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
