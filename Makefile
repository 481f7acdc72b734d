# Convenience targets for the reskit repository.

GO ?= go

.PHONY: all build vet test race fuzz chaos dist-soak stream-soak bench benchsuite benchcheck obs-demo advise-demo figures report clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short native-fuzzing pass over the untrusted-input surfaces (trace
# logs, law construction, checkpoint snapshots, the run engine's resume
# path, stopping rules, the distrun coordinator's requests, and advisor
# queries together with the differential check of the advisor's five
# wire codecs against encoding/json); run with a longer FUZZTIME to dig
# deeper (the nightly workflow uses 10m per target).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzTraceFit -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzTruncate -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzTryEmpirical -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) ./internal/ckpt/
	$(GO) test -run='^$$' -fuzz=FuzzResumeSnapshot -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -run='^$$' -fuzz=FuzzCoordinatorRequests -fuzztime=$(FUZZTIME) ./internal/distrun/
	$(GO) test -run='^$$' -fuzz=FuzzParseStop -fuzztime=$(FUZZTIME) ./internal/stats/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeQuery -fuzztime=$(FUZZTIME) ./internal/advisor/

# Chaos soak under the race detector: deterministic fault injection into
# the durability stack (snapshot writes dying ENOSPC/EIO-style, job
# attempts erroring and hanging) plus the engine retry/keep-going/resume
# machinery, asserting every surviving run bit-identical to an
# undisturbed one. COUNT repeats the soak for longer campaigns.
COUNT ?= 1
chaos:
	$(GO) test -race -count=$(COUNT) -run 'Chaos|Injector|JobPlane' ./internal/chaos/
	$(GO) test -race -count=$(COUNT) -run 'Fault|Injected|Writer|Retr|KeepGoing|Timeout|Snapshot' \
		./internal/atomicio/ ./internal/ckpt/ ./internal/engine/

# Distributed-runner soak under the race detector: worker fleets of
# 1/4/8 against one coordinator with >=5% fault rates on every protocol
# path (dropped requests, dropped responses, duplicated submissions,
# hung and erroring jobs), a worker killed mid-run and replaced, and a
# coordinator kill+resume — every fleet's aggregate must be
# bit-identical to an undisturbed local run — plus the distrun CLI's
# own tests (coordinator and workers end to end, the fault sweep, the
# pinned fingerprints, an interrupt before the first commit). -short
# trims the job count for CI; drop it (or raise COUNT) for longer
# campaigns.
dist-soak:
	$(GO) test -race -short -count=$(COUNT) -run 'TestDist|TestNetPlane' \
		./internal/distrun/ ./internal/chaos/ ./cmd/distrun/

# Streaming-campaign soak under the race detector: the engine-level
# stream invariants (worker invariance, stop-frontier determinism,
# kill+resume bit-identity) plus the CLI acceptance soak — an -until-ci
# run SIGINTed mid-stream and resumed with 1/4/8 workers must stop at
# the same trial count with bit-identical aggregates.
stream-soak:
	$(GO) test -race -count=$(COUNT) -run 'TestRunStream|TestCampaignStream|TestStream' \
		./internal/engine/ ./internal/sim/ ./cmd/simulate/

bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# Refresh BENCH_suite.json: every simulate mode (preempt, workflow,
# campaign) under normal- and gamma-law workloads at production trial
# counts (10^6-10^7), worker sweep 1/4/8, min-of-5 timing, aggregates
# checked bit-identical across the sweep. Takes a few minutes.
benchsuite:
	$(GO) run ./cmd/bench -out BENCH_suite.json

# Perf-regression gate: re-run the suite scaled down and fail on drift
# against the committed BENCH_suite.json. The ns/trial gate is host-
# dependent, so CI loosens it via BENCH_DRIFT_PCT; the allocs/trial and
# bit-identity gates are machine-independent and always tight.
BENCHCHECK_SCALE ?= 0.02
benchcheck:
	$(GO) run ./cmd/bench -check -scale $(BENCHCHECK_SCALE)

# Observability demo: a fault-injected campaign with live progress, a
# JSONL event trace (1 trial in 200), a metrics snapshot, and a live
# expvar/pprof endpoint on 127.0.0.1:6060 while it runs.
obs-demo:
	mkdir -p out
	$(GO) run ./cmd/simulate -campaign -R 29 -task 'norm:3,0.5@[0,inf]' \
		-ckpt 'norm:5,0.4@[0,inf]' -recovery 1.5 -totalwork 500 \
		-trials 2000 -mtbf 100 -progress -listen 127.0.0.1:6060 \
		-trace out/trace.jsonl -tracesample 200 -metrics out/metrics.json
	@echo "metrics -> out/metrics.json, trace -> out/trace.jsonl"

# Advisor smoke test: serve the policy API on an ephemeral port, answer
# a batch over HTTP, and require every answer identical to the one-shot
# CLI path (plus live /metrics and persisted artifacts). Needs curl+jq.
advise-demo:
	GO="$(GO)" bash scripts/advise_demo.sh

figures:
	$(GO) run ./cmd/figures -out out/figures -extended

report:
	$(GO) run ./cmd/report -extended -out REPORT.md

clean:
	rm -rf out REPORT.md test_output.txt bench_output.txt
