# Reproduction of "Concurrency Control and Recovery in Transactional
# Process Management" (Schuldt, Alonso, Schek — PODS 1999).

GO ?= go

.PHONY: build test test-short loc layers grammar docs-check bench-check experiments experiments-check race diff torture chaos fed serve coverage-floor bench fuzz-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Non-test lines of product code, in total and per package: the counter
# behind the ROADMAP's "net lines removed" metric, reported the same way
# in every PR.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | xargs echo total
	@for d in $$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		echo "$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d"; done

# Fault model at the edges (DESIGN.md §6m): the engines, the federation
# and the service reach faults only through injected hooks, so none of
# them may depend on the fault libraries or the batteries. The service
# runs one executor, the concurrent runtime (DESIGN.md §6i), so it may
# not depend on the federation either.
layers:
	@bad=$$($(GO) list -deps ./internal/scheduler ./internal/runtime ./internal/federation ./internal/serve | grep -E 'internal/(fault|chaos|battery)$$'); \
	if [ -n "$$bad" ]; then echo "product packages depend on:" $$bad >&2; exit 1; fi
	@if $(GO) list -deps ./internal/serve | grep -qE 'internal/federation$$'; then \
		echo "internal/serve depends on internal/federation" >&2; exit 1; fi

# One incarnation-id grammar (process.ID: Origin, Restart, Lineage): no
# product file outside internal/process prints a "+rN" suffix or splits
# an id at '+' (internal/fault keeps the oracle's own parser).
grammar:
	@bad=$$(grep -rnE --include='*.go' --exclude='*_test.go' "\"\+r\"|\+r%d|IndexByte\(.*'\+'" internal cmd | grep -vE '^internal/(process|fault)/'); \
	if [ -n "$$bad" ]; then echo "incarnation-id grammar outside internal/process:" >&2; echo "$$bad" >&2; exit 1; fi

# Every Test*/Benchmark*/Fuzz* name, pkg.Name and camelCase identifier
# that DESIGN.md, README.md or EXPERIMENTS.md quote in backticks occurs
# as a word in some .go file: a deleted or renamed name leaves the prose
# in the same PR.
docs-check:
	@$(GO) run ./scripts/docscheck

# The benchmark is its own module (bench/) compiled against this tree:
# a signature change in wal/serve/federation must break here, not in
# the benchmark driver.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# Everything the experiments print comes from the sequential engine's
# virtual clock, except the two values masked here: E9's count of random
# schedules that happen to be PRED and E14's wall-clock milliseconds. The
# rest is pinned byte for byte, so a change to the driver or the policy
# that moves any experiment shows up as a diff. After an intended change:
# `make -s experiments > cmd/tpsim/testdata/experiments.golden`.
experiments:
	@$(GO) run ./cmd/tpsim | sed -E 's/(random schedules, )[0-9]+/\1N/;s/[0-9.]+ms/Tms/g'

experiments-check:
	@$(MAKE) -s experiments | diff cmd/tpsim/testdata/experiments.golden -

race:
	$(GO) test -race ./...

# The differential battery: >= 50 seeded workloads through both the
# sequential engine and the concurrent runtime under the race detector.
diff:
	GOMAXPROCS=4 $(GO) test -race -run 'TestDifferential' ./internal/runtime -v

# The five seeded batteries (internal/battery) under the race detector,
# 200 seeds each. Reproduce one failure with the line it prints:
# `go test ./internal/battery -v -run 'TestBattery/<name>$$'
# -battery.seed=N [-battery.ckpt] [-battery.durable]`, or `tpsim battery
# <name> -seed=N [-ckpt] [-durable]`.
BATTERY = $(GO) test -race -v ./internal/battery -run

# Crash torture — as seeded, with fuzzy checkpointing and compaction
# forced onto every scenario, and with file-backed durable subsystem
# stores forced onto every scenario — and the exhaustive small sweep: a
# crash at every force-log of a run and of its recovery.
torture:
	$(BATTERY) 'TestBattery/torture$$' -battery.count=200
	$(BATTERY) 'TestBattery/torture$$' -battery.count=200 -battery.ckpt
	$(BATTERY) 'TestBattery/torture$$' -battery.count=200 -battery.durable
	$(BATTERY) TestRecoveryCrashSweep
	$(GO) test -race -run TestRuntimeKillRecover ./internal/runtime
	$(GO) test -race -run TestCheckpointConcurrentWithAppends ./internal/runtime

# Unreliable subsystems: flaky transport, the driver's typed re-invocation, ◁ failover.
chaos:
	GOMAXPROCS=4 $(BATTERY) 'TestBattery/chaos$$' -battery.count=200

# The cross-node differential battery (60 seeded workloads partitioned
# over 2–4 scheduler nodes vs the single-node sequential oracle), the
# federation torture battery (node kills mid-2PC, partition windows
# during cross-node resolution, crash + re-join) and the hub-kill
# battery. Plain `go test ./...` runs 30 and 20 seeds of the two. Both
# batteries run a second time on one P: with a single thread to share,
# a node's idle poll and the hub's quiescence check interleave at their
# tightest, which is where the idle handshake is exercised hardest.
fed:
	GOMAXPROCS=4 $(GO) test -race -run 'TestFedDifferential' -v ./internal/federation
	GOMAXPROCS=4 $(BATTERY) 'TestBattery/fed$$' -battery.count=200
	GOMAXPROCS=4 $(BATTERY) 'TestBattery/hub$$' -battery.count=60
	GOMAXPROCS=1 $(BATTERY) 'TestBattery/fed$$' -battery.count=200
	GOMAXPROCS=1 $(BATTERY) 'TestBattery/hub$$' -battery.count=60

# The serve crash battery: ingestion-service scenarios (crash between
# WAL ack and HTTP ack, kill -9 mid-drain, double crashes, overload
# shedding, budget exhaustion) against the real HTTP server.
serve:
	GOMAXPROCS=4 $(GO) test -race -v ./internal/serve
	GOMAXPROCS=4 $(BATTERY) 'TestRestartResumeDifferential|TestRestartPastPivotRunsOnce'
	GOMAXPROCS=4 $(BATTERY) 'TestBattery/serve$$' -battery.count=200

# Coverage floor for the recovery-critical packages.
coverage-floor:
	scripts/coverage-floor.sh 75

# Regenerate the committed throughput baseline.
bench:
	scripts/bench-json.sh 5x > BENCH_runtime.json
	@cat BENCH_runtime.json

# Short native-fuzzing smoke (CI runs 30s per target).
fuzz-smoke:
	$(GO) test -fuzz FuzzProcessValidate -fuzztime 30s -run '^$$' ./internal/process
	$(GO) test -fuzz FuzzScheduleReduce -fuzztime 30s -run '^$$' ./internal/schedule
	$(GO) test -fuzz FuzzWALReplay -fuzztime 30s -run '^$$' ./internal/wal
	$(GO) test -fuzz FuzzCheckpointDecode -fuzztime 30s -run '^$$' ./internal/wal
	$(GO) test -fuzz FuzzRecordDecode -fuzztime 30s -run '^$$' ./internal/wal
	$(GO) test -fuzz FuzzReplayView -fuzztime 30s -run '^$$' ./internal/wal
	$(GO) test -fuzz FuzzHeapPageDecode -fuzztime 30s -run '^$$' ./internal/store
	$(GO) test -fuzz FuzzFreeSpaceMap -fuzztime 30s -run '^$$' ./internal/store
	$(GO) test -fuzz FuzzWireDecode -fuzztime 30s -run '^$$' ./internal/federation
	$(GO) test -fuzz FuzzPolicyIncremental -fuzztime 30s -run '^$$' ./internal/scheduler/policy
	$(GO) test -fuzz FuzzLockBlockConflictsWithHeld -fuzztime 30s -run '^$$' ./internal/subsystem
	$(GO) test -fuzz FuzzFromRegistryMatchesPairwise -fuzztime 30s -run '^$$' ./internal/conflict
	$(GO) test -fuzz FuzzTableMatchesReference -fuzztime 30s -run '^$$' ./internal/conflict

ci: build layers grammar docs-check test bench-check experiments-check race diff torture chaos fed serve coverage-floor
