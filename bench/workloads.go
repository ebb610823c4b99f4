package main

import (
	"fmt"

	"hotpotato/internal/server"
	"hotpotato/internal/spec"
)

// A family is one problem instance, described the way every surface of the
// repo accepts it (a hotpotatod job spec). The sizes are fixed here and in
// BENCHMARK.json; they are small enough that one run holds hundreds of
// complete operations, because the acceptance check compares medians of
// short runs and a 3 s operation gives it a handful of samples.
type family struct {
	name string
	// spec is the job without its seed; workload and arrivals are given in
	// the flag syntax and parsed once.
	spec     server.JobSpec
	workload string
	arrivals string
	// seeds is how many distinct job seeds one run cycles through.
	seeds int
	// construct puts mesh and workload construction on the clock of a
	// library operation (the sweep user's cost); otherwise the mesh is
	// shared and packets are generated off the clock.
	construct bool
	// resumeAt > 0 makes every job a resume_from of a checkpoint taken at
	// that step; ckptEvery is the daemon's -checkpoint-every.
	resumeAt  int
	ckptEvery int
	// openRate is the open loop's fixed rate in jobs per second: a
	// constant, about 40-50% of the closed-loop capacity measured on the
	// 2-core box when the benchmark was defined. Never derived at run time.
	openRate float64
}

type surface string

const (
	surfSim    surface = "sim"
	surfShard  surface = "shard"
	surfDshard surface = "dshard"
	surfDaemon surface = "daemon"
)

// A workload is a family driven through one surface. The driver's contract
// reports every end-to-end metric on every workload, so the cells the issue
// drew as (workload, surface metric) are workloads of their own here:
// dense_torus x dshard_hops_per_s is hops_per_s on dense_torus.dshard.
type workload struct {
	name string
	fam  *family
	surf surface
}

// Grid, worker and client counts are 2 whatever the machine has, so results
// from different machines describe the same experiment.
const (
	gridP, gridQ = 2, 1
	distWorkers  = 2
	clients      = 2
	daemonQueue  = 64
)

func mustFamily(f family) *family {
	ws, err := spec.ParseWorkloadSpec(f.workload)
	if err != nil {
		panic(err)
	}
	if f.arrivals != "" {
		if ws.Arrivals, err = spec.ParseArrivalSpec(f.arrivals); err != nil {
			panic(err)
		}
	}
	f.spec.Workload = ws
	return &f
}

func families() []*family {
	return []*family{
		// The routing kernel does nearly all the work: two packets per node
		// on a torus, no validation, no livelock hashing, no I/O.
		mustFamily(family{
			name:     "dense_torus",
			spec:     server.JobSpec{Side: 64, Torus: true, Policy: "fixed", Validation: "off", NoLivelockDetect: true},
			workload: "full-load:per-node=2",
			seeds:    1,
			openRate: 12,
		}),
		// The opposite regime: under 1% of nodes hold a packet, so the
		// per-step cost is injection and whatever scans idle nodes.
		mustFamily(family{
			name:     "sparse_arrivals",
			spec:     server.JobSpec{Side: 128, Policy: "restricted-det", Validation: "off", NoLivelockDetect: true},
			workload: "none",
			arrivals: "poisson:rate=0.0001,until=400",
			seeds:    1,
			openRate: 10,
		}),
		// The engine runs well under a millisecond per job, so admission,
		// WAL fsyncs, HTTP and construction dominate.
		mustFamily(family{
			name:      "small_jobs",
			spec:      server.JobSpec{Side: 16, K: 256, Policy: "restricted-det", Validation: "greedy"},
			workload:  "uniform",
			seeds:     64,
			construct: true,
			openRate:  250,
		}),
		// Every job restores a checkpoint and writes periodic ones: the
		// checkpoint layer read and written on one path.
		mustFamily(family{
			name:      "durable_jobs",
			spec:      server.JobSpec{Side: 32, Torus: true, Policy: "fixed"},
			workload:  "full-load:per-node=2",
			seeds:     8,
			resumeAt:  8,
			ckptEvery: 8,
			openRate:  40,
		}),
	}
}

func workloads() []workload {
	fam := map[string]*family{}
	for _, f := range families() {
		fam[f.name] = f
	}
	mk := func(f string, s surface) workload {
		return workload{name: fmt.Sprintf("%s.%s", f, s), fam: fam[f], surf: s}
	}
	// Five of the issue's cells. The other surfaces of each family run in
	// its traced pass and report sim.hops_per_s, shard.hops_per_s and
	// dshard.hops_per_s per layer. Two things set the number: the driver's
	// time cap buys about 2 500 s of measurement, and the machine this was
	// defined on runs the same code a third slower for seconds at a time,
	// so a run much shorter than 20 s does not repeat. shard.Engine, two
	// goroutines meeting at a barrier every 0.4 ms, feels that most — its
	// run-to-run spread sat at the contract's ceiling for a bound — and is
	// the rung left to the traced run (README, "Noise calibration").
	return []workload{
		mk("dense_torus", surfSim),
		mk("dense_torus", surfDshard),
		mk("sparse_arrivals", surfSim),
		mk("small_jobs", surfDaemon),
		mk("durable_jobs", surfDaemon),
	}
}

// A metric is one named number the harness prints; BENCHMARK.json lists the
// same names with direction and bound, and bench_test.go holds the two
// lists to each other.
type metric struct {
	name, unit string
}

// hops_per_s and op_ms_p50 are quartiles over ten windows of the run, not
// whole-run medians; quietQuartiles says why. The whole-run median and p90
// are reported per layer, as harness.op_ms_p50_all and harness.op_ms_p90_all.
func endToEndMetrics() []metric {
	return []metric{
		{"setup_s", "s"},
		{"hops_per_s", "hops/s"},
		{"op_ms_p50", "ms"},
	}
}
