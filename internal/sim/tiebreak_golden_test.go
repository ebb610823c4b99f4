package sim_test

import (
	"math/rand"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/traffic"
)

// tieBreakSteps is how many steps of each golden run are pinned.
const tieBreakSteps = 8

// tieBreakGolden pins the per-step StateHash sequence of randomized-policy
// runs. The values were recorded at the last commit that still had
// Options.Workers, from a Workers: 2 engine — the per-(seed, step, node)
// tie-break stream. They prove the stream every engine draws from today is
// exactly that one, not merely one with the same distribution.
var tieBreakGolden = map[string][tieBreakSteps]uint64{
	"mesh8/greedy-random/batch": {
		0x21b716df2cbadd60,
		0x2eaa5e5dd73ac2c7,
		0xb775b034620f1f2d,
		0x685fa0deb058ac71,
		0x4241370b1c9db092,
		0x328c19c37974843a,
		0xb4b29441d6b940d1,
		0x1abf93cdfe1c1f6c,
	},
	"torus8/restricted/batch": {
		0xd42c40fe2c40a50d,
		0x915e027101ca9f49,
		0xedf2e0282db80a08,
		0x9411ea8a7fa21588,
		0x45894f9e0765edf3,
		0x3ebe91c31e0ac30e,
		0xc7d38d0b1739275e,
		0x4bf69aac77917750,
	},
	"mesh8/restricted/poisson": {
		0x03ef3ed76d354750,
		0xc2db60fe1c1b5a0a,
		0xc2678b7a64248119,
		0xac19b45d3b8a2628,
		0x670bdb9cc04e63c5,
		0xb3667baf8df732f8,
		0x51166d460b92fba9,
		0x2abd7fb9f07c653a,
	},
	"torus8/greedy-random/poisson": {
		0x024545ea3f617ede,
		0x391ee2c47fd0510c,
		0x00301ac946baa205,
		0x874b994fdcc1d880,
		0xd4d45b514979873e,
		0xafa97c8015e418e5,
		0x409bb362d3c2565b,
		0xb2fd39af552b32d3,
	},
}

// goldenPackets is a fixed instance: up to k packets at capacity-respecting
// sources with uniform destinations.
func goldenPackets(m *mesh.Mesh, k int, seed int64) []*sim.Packet {
	rng := rand.New(rand.NewSource(seed))
	used := make(map[mesh.NodeID]int)
	var packets []*sim.Packet
	for i := 0; len(packets) < k && i < 4*k; i++ {
		src := mesh.NodeID(rng.Intn(m.Size()))
		if used[src] >= m.Degree(src) {
			continue
		}
		used[src]++
		packets = append(packets, sim.NewPacket(len(packets), src, mesh.NodeID(rng.Intn(m.Size()))))
	}
	return packets
}

func TestTieBreakStreamGolden(t *testing.T) {
	cases := []struct {
		name   string
		mesh   *mesh.Mesh
		policy func() sim.Policy
		inject bool
	}{
		{"mesh8/greedy-random/batch", mesh.MustNew(2, 8), routing.NewRandomGreedy, false},
		{"torus8/restricted/batch", mesh.MustNewTorus(2, 8), core.NewRestrictedPriority, false},
		{"mesh8/restricted/poisson", mesh.MustNew(2, 8), core.NewRestrictedPriority, true},
		{"torus8/greedy-random/poisson", mesh.MustNewTorus(2, 8), routing.NewRandomGreedy, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, err := sim.New(tc.mesh, tc.policy(), goldenPackets(tc.mesh, 96, 17), sim.Options{
				Seed: 23, Validation: sim.ValidateGreedy, MaxSteps: 1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if tc.inject {
				gen, err := traffic.NewPoisson(0.15, 0)
				if err != nil {
					t.Fatal(err)
				}
				src, err := traffic.NewSource(gen)
				if err != nil {
					t.Fatal(err)
				}
				e.SetInjector(src)
			}
			want, ok := tieBreakGolden[tc.name]
			if !ok {
				t.Fatalf("no golden sequence for %s", tc.name)
			}
			for step := 0; step < tieBreakSteps; step++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if e.Live() == 0 {
					t.Fatalf("step %d: network drained; the golden run must stay contended", step)
				}
				if got := e.StateHash(); got != want[step] {
					t.Fatalf("step %d: state hash %#016x, golden %#016x — tie-breaks no longer come from NodeSeed(seed, t, node)",
						step, got, want[step])
				}
			}
		})
	}
}
