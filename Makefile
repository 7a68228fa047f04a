GO ?= go
GOFMT ?= gofmt

.PHONY: build test lockbench-test vet lint race chaos coldstart sessions membership fuzz bench bench-record bench-compare audit ci clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lockbench (the repository benchmark) is its own Go module, so the
# root `go test ./...` never reaches its tests.
lockbench-test:
	cd lockbench && $(GO) test ./...

vet:
	$(GO) vet ./...

# Static checks: go vet plus a gofmt drift check (fails listing any
# unformatted file).
lint: vet
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Full test suite under the race detector (includes the transport
# failure-path tests and the simulator chaos tests).
race:
	$(GO) test -race -count=1 ./...

# Just the fault-injection, crash-recovery and transport-failure
# coverage (includes the disk-loss restart chaos scenarios).
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestTCP' ./internal/transport/
	$(GO) test -race -count=1 ./internal/recovery/
	$(GO) test -race -count=1 -run 'TestTCPCrashRecovery|TestTCPRecoveryQuietWithoutCrash' .

# Durability coverage: the journal package (torn-tail, corrupt-frame,
# snapshot-rotation tests) and the full-cluster cold-start / restart
# rejoin acceptance tests over real TCP members.
coldstart:
	$(GO) test -race -count=1 ./internal/journal/
	$(GO) test -race -count=1 -run 'TestTCPColdStartFromJournals|TestTCPRestartSingleMemberRejoins' .

# Session/lease/admission stress under the race detector: the session
# tier's lifecycle and wait-queue tests, the lockserver bugfix
# regressions and lease acceptance tests, the simulator lease chaos,
# and the fencing tests (including fence-across-crash-recovery).
sessions:
	$(GO) test -race -count=1 ./internal/session/
	$(GO) test -race -count=1 -run 'TestSession|TestAdmission|TestLease|TestUpgradeHonors|TestCloseDrains|TestLongLine' ./internal/lockserver/
	$(GO) test -race -count=1 -run 'TestLease' ./internal/cluster/
	$(GO) test -race -count=1 -run 'TestFence' .

# Runtime-membership coverage under the race detector: the live TCP
# join/leave acceptance tests (grow, shrink, leaver killed mid-handoff),
# the simulator join/leave chaos and determinism tests, the tracked
# recovery-timer regressions, and the membership wire-kind golden/fuzz
# corpus rides in the proto package.
membership:
	$(GO) test -race -count=1 -run 'TestTCPMembership|TestTCPLeave|TestTCPLeaver|TestCloseWaitsForInflightRecoveryRetry|TestClosedMemberRunsNoTrackedCallbacks|TestCloseTimerStress' .
	$(GO) test -race -count=1 -run 'TestJoin|TestLeave|TestRootLeave|TestMembershipChaos' ./internal/cluster/
	$(GO) test -race -count=1 ./internal/proto/

# Short seeded fuzz passes over the journal replayer and the protocol
# engine (longer runs: go test -fuzz FuzzReplay ./internal/journal, or
# go test -fuzz FuzzEngine ./internal/hlock).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime 10s ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzEngine -fuzztime 10s ./internal/hlock/

# Microbenchmarks: protocol engine hot paths plus the observability
# overhead benches (histogram/counter/trace-record, including the
# nil-handle disabled paths, which must report 0 allocs/op).
bench:
	$(GO) test -run '^$$' -bench . -benchmem . ./internal/hlock ./internal/metrics ./internal/trace ./internal/proto

# The fresh snapshot bench-record writes (git-ignored, so a CI run never
# rewrites a committed baseline) and the baseline bench-compare gates it
# against: the highest-numbered committed BENCH_pr<N>.json, in numeric
# order (pr10 after pr9).
BENCH_NEW = bench-current.json
BENCH_BASELINE = $(shell git ls-files 'BENCH_pr*.json' | sort -V | tail -n 1)

# Record a benchmark snapshot — the paper's Figure 5/6/7 CSVs plus the
# microbenchmark output — into $(BENCH_NEW). To add a baseline, copy it
# to the next BENCH_pr<N>.json and commit it.
bench-record:
	$(GO) run ./cmd/benchrecord -o $(BENCH_NEW)

# Compare the fresh snapshot against the latest committed baseline and
# fail on any >10% regression in the gated families: engine
# microbenchmarks, the live-cluster member hot paths (with the latency
# SLO histograms active via telemetry tests), and the seeded simulator
# figure benchmarks.
bench-compare:
	@test -n "$(BENCH_BASELINE)" || { echo "no committed BENCH_pr*.json baseline"; exit 1; }
	$(GO) run ./cmd/benchcompare -old $(BENCH_BASELINE) -new $(BENCH_NEW) -threshold 0.10

# The online protocol auditor's invariant tests, under the race
# detector (they replay violating and healthy trace streams).
audit:
	$(GO) test -race -count=1 ./internal/audit/

# What CI runs: build, go vet + gofmt drift, the plain test pass (which
# includes the codec allocation assertions compiled out under -race),
# lockbench's own tests, the full suite under -race (tier-1), the auditor invariants, the
# chaos/crash-recovery pass, the durability pass (journal + cold-start
# chaos + journal fuzz), the session/lease stress pass, the runtime
# membership pass (join/leave acceptance + determinism), and the
# microbenchmark regression gate against the latest committed baseline.
ci: build lint test lockbench-test race audit chaos coldstart sessions membership fuzz bench-record bench-compare

clean:
	$(GO) clean ./...
