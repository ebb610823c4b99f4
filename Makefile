# Developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short test-race vet fmt fuzz-smoke saturation-smoke shard-parity experiments experiments-quick report cover sweep-resume-demo serve serve-smoke bench-smoke chaos chaos-smoke dist-chaos-smoke ladder-dshard ladder-sim ladder-durable dist-demo policylab-demo clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The concurrency-sensitive packages (parallel routing, sharded engine,
# fault injection) under the race detector.
test-race:
	$(GO) test -race ./internal/sim/... ./internal/shard/... ./internal/fault/...

# Bit-identity of the sharded engine: the whole shard package — per-step
# state-hash parity across grids, seeds, workloads and policies, livelock
# parity, checkpoint resume across grids, panic recovery — under the race
# detector. Blocking in CI.
shard-parity:
	$(GO) test -race -count=1 ./internal/shard/

vet:
	$(GO) vet ./...

# Short fuzz pass over the untrusted-input parsers (CI runs this on every
# push; `go test -fuzz` with a longer -fuzztime digs deeper locally). The
# line-log framer and the WAL decoder on it are fuzzed because they parse
# whatever a crash left on disk: torn writes, truncation, bit rot. The halo frame reader and wire decoders
# are fuzzed because they parse whatever a peer (or a corrupting link) sends
# over TCP, and the binary checkpoint decoder because it parses whatever a
# CRC-valid file claims to be a snapshot, shard part or manifest. The routing
# kernel is fuzzed against its pre-kernel oracle: every shipped priority
# policy on random nodes, with and without dead arcs, at every validation
# level.
fuzz-smoke:
	$(GO) test -fuzz FuzzFrame -fuzztime 15s ./internal/frame/
	$(GO) test -fuzz FuzzWAL -fuzztime 15s ./internal/server/store/
	$(GO) test -fuzz FuzzHaloFrame -fuzztime 15s ./internal/dshard/
	$(GO) test -fuzz FuzzReadBinary -fuzztime 15s ./internal/checkpoint/
	$(GO) test -fuzz FuzzParseWorkloadSpec -fuzztime 15s ./internal/spec/
	$(GO) test -fuzz FuzzParseArrivalSpec -fuzztime 15s ./internal/spec/
	$(GO) test -fuzz FuzzParsePolicySpec -fuzztime 15s ./internal/spec/
	$(GO) test -fuzz FuzzReadTrace -fuzztime 15s ./internal/policylab/
	$(GO) test -fuzz FuzzRouteNode -fuzztime 15s ./internal/sim/

# Saturation smoke: the dynamic-traffic stack (renewal sources, the
# adversary, injector checkpointing, single and sharded engines) under the
# race detector, plus short Bernoulli, adversary and Poisson (the
# event-indexed generator) sweeps through the real CLI path.
saturation-smoke:
	$(GO) test -race -run 'TestInjector|TestAdversary|TestDynamic' ./internal/traffic/
	$(GO) run ./cmd/sweep -n 8 -trials 2 -workload none \
		-arrivals 'bernoulli:rate=0.05,until=60' -max-steps 5000
	$(GO) run ./cmd/sweep -n 8 -trials 2 -workload none \
		-arrivals 'adversary:rho=3,sigma=8,until=60' -max-steps 5000
	$(GO) run ./cmd/sweep -n 8 -trials 2 -workload none \
		-arrivals 'poisson:rate=0.01,until=60' -max-steps 5000

fmt:
	gofmt -w .

experiments:
	$(GO) run ./cmd/experiments

experiments-quick:
	$(GO) run ./cmd/experiments -quick

# Rewrite results/REPORT.md (every table plus Figures 1-6); go test
# ./cmd/experiments fails until the committed file matches a regeneration.
report:
	$(GO) run ./cmd/experiments -out results

# Demonstrate crash-safe sweeps: start a journaled grid, kill it partway
# through with SIGTERM, then finish it with -resume. The resumed run reruns
# only the cells missing from the journal.
sweep-resume-demo:
	rm -f /tmp/sweep-demo.jsonl
	@echo "--- starting sweep, killing it after 3 seconds ---"
	-$(GO) run ./cmd/sweep -n 32 -k 2048,3000 -policy restricted,random,dest-order \
		-workload uniform,hotspot -trials 20 -journal /tmp/sweep-demo.jsonl & \
		pid=$$!; sleep 3; kill -TERM $$pid; wait $$pid || true
	@echo "--- journal after the kill ---"
	cat /tmp/sweep-demo.jsonl
	@echo "--- resuming ---"
	$(GO) run ./cmd/sweep -n 32 -k 2048,3000 -policy restricted,random,dest-order \
		-workload uniform,hotspot -trials 20 -journal /tmp/sweep-demo.jsonl -resume

# Run the simulation service locally with the durable job store: jobs
# survive kill -9 (the WAL replays on restart and interrupted runs resume
# from their periodic checkpoints); SIGINT/SIGTERM still drains gracefully.
serve:
	$(GO) run ./cmd/hotpotatod -addr :8080 \
		-checkpoint-dir /tmp/hotpotato-checkpoints -checkpoint-every 200 \
		-wal /tmp/hotpotato-jobs.wal

# CI smoke for the service: boot hotpotatod on a small queue, drive it with
# the example load generator (submit with backpressure retries, follow one
# NDJSON stream, poll every job to completion, scrape /metrics), then
# SIGTERM the daemon and require a clean drain and exit code 0.
serve-smoke:
	$(GO) build -o /tmp/hotpotatod-smoke ./cmd/hotpotatod
	rm -rf /tmp/hotpotato-smoke-ckpt /tmp/hotpotato-smoke.wal
	/tmp/hotpotatod-smoke -addr 127.0.0.1:18098 -workers 1 -queue 2 \
		-checkpoint-dir /tmp/hotpotato-smoke-ckpt -wal /tmp/hotpotato-smoke.wal & \
	pid=$$!; sleep 1; \
	$(GO) run ./examples/service -addr http://127.0.0.1:18098 \
		-submitters 4 -jobs 2 || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# Chaos harness: repeatedly SIGKILL a real hotpotatod mid-work and prove
# recovery from the WAL — zero lost jobs, recovered runs bit-identical to
# uninterrupted ones. `chaos` runs a longer bounded session locally;
# `chaos-smoke` is the CI-sized pass (also exercises the in-process
# Kill()-based harness in internal/server).
chaos:
	HOTPOTATOD_CHAOS_CYCLES=15 $(GO) test -run TestChaosSIGKILLRecovery \
		-v -count=1 -timeout 10m ./cmd/hotpotatod/
	DSHARD_CHAOS_KILLS=8 $(GO) test -run 'TestDistChaosSIGKILL|TestDistWorkersDoNotOutliveRun' \
		-v -count=1 -timeout 10m ./internal/dshard/ ./cmd/hotpotato/

chaos-smoke:
	HOTPOTATOD_CHAOS_CYCLES=6 $(GO) test -run 'TestChaos' -count=1 -timeout 5m \
		./cmd/hotpotatod/ ./internal/server/

# Distributed chaos: a coordinator drives real worker processes over TCP
# while the harness SIGKILLs them mid-step; the finished run must be
# bit-identical (every Result field plus the final state hash) to the same
# problem on the in-process sharded engine with no kills. Runs the whole
# dshard suite (transport faults, corrupt frames, kill/rejoin, cross-grid
# resume, the process-level harness) and the hotpotato command's (-dist on
# child worker processes, external workers, hotpotato worker) under the race
# detector, then the parity, transport-fault and kill/rejoin tests twice
# more — one reply cache serves a whole step, so the schedule gets a second
# roll. Blocking in CI.
dist-chaos-smoke:
	DSHARD_CHAOS_KILLS=5 $(GO) test -race -count=1 -timeout 10m \
		./internal/dshard/ ./cmd/hotpotato/
	$(GO) test -race -count=2 -timeout 10m \
		-run 'TestDistributedParity|TestDistributedTransportFaults|TestDistributedKillRejoin' ./internal/dshard/

# The dshard rung of the cost ladder: one traced pass of the repo benchmark
# on dense_torus.dshard, printing only the distributed rungs and the
# in-process shard rungs they are read against.
ladder-dshard:
	$(GO) run ./bench --workload dense_torus.dshard --seconds 5 --trace 1 | awk '$$2 ~ /^(dshard|shard)\./'

# Benchmark smoke: one 2-second pass of every workload of BENCHMARK.json
# through the real harness. Every workload must report "correct":true (one
# result line each), and no hotpotatod the harness started may outlive it:
# a daemon left running is what makes a later measurement on the machine
# meaningless. The pattern's [h] keeps pgrep from matching this recipe's
# own shell.
bench-smoke:
	$(GO) run ./bench -seconds 2 > /tmp/hotpotato-bench-smoke.out
	test "$$(grep -c '^{"correct":true' /tmp/hotpotato-bench-smoke.out)" -eq "$$(grep -c '"why":' BENCHMARK.json)"
	! pgrep -f 'bench/out/[h]otpotatod'

# The kernel rung of the cost ladder: one traced pass on each single-engine
# workload — dense_torus.sim (every node busy) and sparse_arrivals.sim
# (under 1% busy) — printing the routing-kernel, single-engine and
# in-process shard rungs.
ladder-sim:
	for w in dense_torus.sim sparse_arrivals.sim; do \
		$(GO) run ./bench --workload $$w --seconds 5 --trace 1 | awk '$$2 ~ /^(sim|routing|shard)\./'; \
	done

# The durability rung of the cost ladder: one traced pass on
# durable_jobs.daemon (jobs resumed from a t=8 checkpoint, saving every 8
# steps), printing the checkpoint codec, snapshot/restore, server, WAL store
# and daemon rungs.
ladder-durable:
	$(GO) run ./bench --workload durable_jobs.daemon --seconds 5 --trace 1 \
		| awk '$$2 ~ /^(checkpoint|server|store|daemon)\./ || $$2 == "sim.snapshot_ms" || $$2 == "sim.restore_ms"'

# Distributed demo: a coordinator waits on a unix socket for two external
# workers started by this recipe; one is SIGKILLed mid-run, a replacement
# dials in, and the run recovers from the last coordinated checkpoint and
# finishes — same summary and state hash as an uninterrupted run, and at
# least one recovery.
dist-demo:
	$(GO) build -o /tmp/hp-dist ./cmd/hotpotato
	rm -rf /tmp/hp-dist.sock /tmp/hp-dist.shards
	@echo "--- distributed run; kill -9 one worker after 2 seconds, then start a replacement ---"
	/tmp/hp-dist -n 24 -workload permutation -policy random -shards 2x2 -dist 2 \
		-listen /tmp/hp-dist.sock -token demo -checkpoint /tmp/hp-dist.shards -checkpoint-every 8 \
		> /tmp/hp-dist.out & \
	coord=$$!; worker="/tmp/hp-dist worker -addr /tmp/hp-dist.sock -token demo -step-delay 50ms"; \
	$$worker & victim=$$!; $$worker & \
	sleep 2; kill -9 $$victim; $$worker & \
	wait $$coord; status=$$?; cat /tmp/hp-dist.out; test $$status -eq 0
	grep -Eq '^recoveries: +[1-9]' /tmp/hp-dist.out
	/tmp/hp-dist -n 24 -workload permutation -policy random > /tmp/hp-dist.want
	summary='^(steps|delivered|deflections|max load|state hash):'; \
	grep -E "$$summary" /tmp/hp-dist.want > /tmp/hp-dist.want.sum; \
	grep -E "$$summary" /tmp/hp-dist.out | diff /tmp/hp-dist.want.sum -

# Policy-lab demo: record a conflict trace (with a mid-run checkpoint) on
# the (rho,sigma) column adversary, then replay the checkpointed window
# under alternative priority orders and print the divergence table.
policylab-demo:
	$(GO) run ./cmd/policylab trace -n 12 -policy restricted -workload none \
		-arrivals 'adversary:rho=3,sigma=6,until=200' -seed 7 \
		-o /tmp/policylab-conflicts.jsonl -checkpoint /tmp/policylab-mid.ckpt -checkpoint-at 100
	@echo "--- counterfactual replay from the checkpoint ---"
	$(GO) run ./cmd/policylab counterfactual -checkpoint /tmp/policylab-mid.ckpt \
		-policy restricted -arrivals 'adversary:rho=3,sigma=6,until=200' \
		-alt "oldest,nearest,weighted:age=1,restrict=2" -steps 120

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt
