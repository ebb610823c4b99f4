package sim_test

import (
	"fmt"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/fault"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/traffic"
)

type faultGolden struct {
	hashes [tieBreakSteps]uint64
	result sim.Result
}

// faultRunGolden pins fault runs bit for bit: the per-step StateHash of the
// first steps and the final Result of link-flap and node-crash schedules
// under both packet fates, on mesh and torus, for a deterministic and a
// randomized policy, with a Poisson injector. The values were recorded at the
// last commit whose Overlay answered connectivity by arithmetic over the
// failure set; they prove that routing against the overlay's masked table
// computes exactly the same runs.
var faultRunGolden = map[string]faultGolden{
	"flap/drop/mesh8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0xd312c8babb7a6624,
			0x473b8b3fd734d315,
			0x51e707db2707aa43,
			0x3d589938dfdd158e,
			0xc2daa4f2bd4b2891,
			0x3a861e9dfdecab97,
			0x35378ddd13abe588,
			0x673abf8c5f96abd2,
		},
		result: sim.Result{Steps: 57, Delivered: 208, Total: 218, TotalDeflections: 438, TotalHops: 1945, MaxNodeLoad: 4, Dropped: 10, DroppedStranded: 10, LinkFailures: 202, Reroutes: 329},
	},
	"flap/drop/mesh8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0x742f355c4cbe9a2c,
			0x924dd2161581e492,
			0x18635611df17c74c,
			0x45875083643891e2,
			0xfd6c1bf813a873cc,
			0xf45b6772e1eab5be,
			0x57bf95e0d9767b83,
			0x2916bb81024418bc,
		},
		result: sim.Result{Steps: 40, Delivered: 211, Total: 218, TotalDeflections: 307, TotalHops: 1687, MaxNodeLoad: 4, Dropped: 7, DroppedStranded: 7, LinkFailures: 145, Reroutes: 215},
	},
	"flap/drop/torus8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0xd5e77a20c8ece709,
			0x0089de69dcca0ca8,
			0x608cc3197e1b76f8,
			0xd8fe40312e6bd86d,
			0xebb2948c6ba31d99,
			0x5c33f64806f3da3e,
			0x5cd3461b2295e643,
			0xcacdc5ca41a94ec2,
		},
		result: sim.Result{Steps: 34, Delivered: 213, Total: 218, TotalDeflections: 199, TotalHops: 1223, MaxNodeLoad: 4, Dropped: 5, DroppedStranded: 5, LinkFailures: 146, Reroutes: 153},
	},
	"flap/drop/torus8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0xb05c700d48962a61,
			0x19369bb08e608847,
			0xcc67e4a00f2cd8dc,
			0x98e83db981478352,
			0xa3b497b2996fe037,
			0xe22352d916c184c8,
			0x5dc068074ef2c6bf,
			0x499017e74a32299d,
		},
		result: sim.Result{Steps: 26, Delivered: 213, Total: 218, TotalDeflections: 173, TotalHops: 1176, MaxNodeLoad: 4, Dropped: 5, DroppedStranded: 5, LinkFailures: 118, Reroutes: 126},
	},
	"flap/absorb/mesh8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0xd312c8babb7a6624,
			0x473b8b3fd734d315,
			0x51e707db2707aa43,
			0x3d589938dfdd158e,
			0xc2daa4f2bd4b2891,
			0x3a861e9dfdecab97,
			0x35378ddd13abe588,
			0x673abf8c5f96abd2,
		},
		result: sim.Result{Steps: 57, Delivered: 208, Total: 218, TotalDeflections: 438, TotalHops: 1945, MaxNodeLoad: 4, Dropped: 10, DroppedStranded: 10, LinkFailures: 202, Reroutes: 329},
	},
	"flap/absorb/mesh8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0x742f355c4cbe9a2c,
			0x924dd2161581e492,
			0x18635611df17c74c,
			0x45875083643891e2,
			0xfd6c1bf813a873cc,
			0xf45b6772e1eab5be,
			0x57bf95e0d9767b83,
			0x2916bb81024418bc,
		},
		result: sim.Result{Steps: 40, Delivered: 211, Total: 218, TotalDeflections: 307, TotalHops: 1687, MaxNodeLoad: 4, Dropped: 7, DroppedStranded: 7, LinkFailures: 145, Reroutes: 215},
	},
	"flap/absorb/torus8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0xd5e77a20c8ece709,
			0x0089de69dcca0ca8,
			0x608cc3197e1b76f8,
			0xd8fe40312e6bd86d,
			0xebb2948c6ba31d99,
			0x5c33f64806f3da3e,
			0x5cd3461b2295e643,
			0xcacdc5ca41a94ec2,
		},
		result: sim.Result{Steps: 34, Delivered: 213, Total: 218, TotalDeflections: 199, TotalHops: 1223, MaxNodeLoad: 4, Dropped: 5, DroppedStranded: 5, LinkFailures: 146, Reroutes: 153},
	},
	"flap/absorb/torus8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0xb05c700d48962a61,
			0x19369bb08e608847,
			0xcc67e4a00f2cd8dc,
			0x98e83db981478352,
			0xa3b497b2996fe037,
			0xe22352d916c184c8,
			0x5dc068074ef2c6bf,
			0x499017e74a32299d,
		},
		result: sim.Result{Steps: 26, Delivered: 213, Total: 218, TotalDeflections: 173, TotalHops: 1176, MaxNodeLoad: 4, Dropped: 5, DroppedStranded: 5, LinkFailures: 118, Reroutes: 126},
	},
	"crash/drop/mesh8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0x4316753ec7709b68,
			0xdc692a7bc207ce22,
			0x3526d37d6f3610b0,
			0xddebbd80ed6cb9c2,
			0xc5987ae20db03ded,
			0x2552f3b6b48ff0d9,
			0xd3631da64a70e7c8,
			0x8b27a0a716e2fd28,
		},
		result: sim.Result{Steps: 26, Delivered: 177, Total: 218, TotalDeflections: 82, TotalHops: 1120, MaxNodeLoad: 4, Dropped: 41, DroppedCrash: 11, DroppedUnreachable: 18, DroppedStranded: 2, DroppedInject: 10, NodeFailures: 30, Reroutes: 27},
	},
	"crash/drop/mesh8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0xeeea71c575229008,
			0x6a381718bbea6a3c,
			0xaa6cd4c813914c59,
			0x1f545fb05fdb930c,
			0xfc9583de9c81b4b7,
			0x82926928be1575c2,
			0x2604c6188bfec15f,
			0xbe87506454d546f1,
		},
		result: sim.Result{Steps: 26, Delivered: 175, Total: 218, TotalDeflections: 87, TotalHops: 1129, MaxNodeLoad: 4, Dropped: 43, DroppedCrash: 13, DroppedUnreachable: 18, DroppedStranded: 2, DroppedInject: 10, NodeFailures: 30, Reroutes: 29},
	},
	"crash/drop/torus8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0x1f1ddda45efddf09,
			0x6bd4e62ddd2f5c4e,
			0xd7e53df105a31a63,
			0x047cab274c05afac,
			0xeca3f19a0e47becf,
			0x6126a74fa60b9570,
			0xb52a990c9f579a9f,
			0x2769646926535573,
		},
		result: sim.Result{Steps: 20, Delivered: 187, Total: 218, TotalDeflections: 48, TotalHops: 850, MaxNodeLoad: 4, Dropped: 31, DroppedCrash: 12, DroppedUnreachable: 9, DroppedInject: 10, NodeFailures: 24, Reroutes: 16},
	},
	"crash/drop/torus8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0x7398647b4f6e838f,
			0xd605424303a2125a,
			0x768a23a13163388f,
			0x736d9c44d86715fb,
			0x51105f29974cbc76,
			0x527cc514c61a3f67,
			0x90e0ae2e741b6645,
			0xdd1648accab7032f,
		},
		result: sim.Result{Steps: 20, Delivered: 184, Total: 218, TotalDeflections: 35, TotalHops: 807, MaxNodeLoad: 4, Dropped: 34, DroppedCrash: 14, DroppedUnreachable: 10, DroppedInject: 10, NodeFailures: 24, Reroutes: 8},
	},
	"crash/absorb/mesh8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0x4316753ec7709b68,
			0xdc692a7bc207ce22,
			0x3526d37d6f3610b0,
			0xddebbd80ed6cb9c2,
			0xc5987ae20db03ded,
			0x2552f3b6b48ff0d9,
			0xd3631da64a70e7c8,
			0x8b27a0a716e2fd28,
		},
		result: sim.Result{Steps: 26, Delivered: 177, Total: 218, TotalDeflections: 82, TotalHops: 1120, MaxNodeLoad: 4, Dropped: 30, Absorbed: 11, DroppedUnreachable: 18, DroppedStranded: 2, DroppedInject: 10, NodeFailures: 30, Reroutes: 27},
	},
	"crash/absorb/mesh8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0xeeea71c575229008,
			0x6a381718bbea6a3c,
			0xaa6cd4c813914c59,
			0x1f545fb05fdb930c,
			0xfc9583de9c81b4b7,
			0x82926928be1575c2,
			0x2604c6188bfec15f,
			0xbe87506454d546f1,
		},
		result: sim.Result{Steps: 26, Delivered: 175, Total: 218, TotalDeflections: 87, TotalHops: 1129, MaxNodeLoad: 4, Dropped: 30, Absorbed: 13, DroppedUnreachable: 18, DroppedStranded: 2, DroppedInject: 10, NodeFailures: 30, Reroutes: 29},
	},
	"crash/absorb/torus8/restricted-det": {
		hashes: [tieBreakSteps]uint64{
			0x1f1ddda45efddf09,
			0x6bd4e62ddd2f5c4e,
			0xd7e53df105a31a63,
			0x047cab274c05afac,
			0xeca3f19a0e47becf,
			0x6126a74fa60b9570,
			0xb52a990c9f579a9f,
			0x2769646926535573,
		},
		result: sim.Result{Steps: 20, Delivered: 187, Total: 218, TotalDeflections: 48, TotalHops: 850, MaxNodeLoad: 4, Dropped: 19, Absorbed: 12, DroppedUnreachable: 9, DroppedInject: 10, NodeFailures: 24, Reroutes: 16},
	},
	"crash/absorb/torus8/greedy-random": {
		hashes: [tieBreakSteps]uint64{
			0x7398647b4f6e838f,
			0xd605424303a2125a,
			0x768a23a13163388f,
			0x736d9c44d86715fb,
			0x51105f29974cbc76,
			0x527cc514c61a3f67,
			0x90e0ae2e741b6645,
			0xdd1648accab7032f,
		},
		result: sim.Result{Steps: 20, Delivered: 184, Total: 218, TotalDeflections: 35, TotalHops: 807, MaxNodeLoad: 4, Dropped: 20, Absorbed: 14, DroppedUnreachable: 10, DroppedInject: 10, NodeFailures: 24, Reroutes: 8},
	},
}

func TestFaultRunGolden(t *testing.T) {
	models := []struct {
		name string
		new  func() sim.FaultModel
	}{
		{"flap", func() sim.FaultModel {
			f, err := fault.NewLinkFlaps(0.04, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{"crash", func() sim.FaultModel {
			f, err := fault.NewNodeCrashes(0.02, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
	nets := []struct {
		name string
		mesh *mesh.Mesh
	}{
		{"mesh8", mesh.MustNew(2, 8)},
		{"torus8", mesh.MustNewTorus(2, 8)},
	}
	policies := []struct {
		name string
		new  func() sim.Policy
	}{
		{"restricted-det", core.NewRestrictedPriorityDeterministic},
		{"greedy-random", routing.NewRandomGreedy},
	}
	for _, model := range models {
		for _, fate := range []sim.PacketFate{sim.FateDrop, sim.FateAbsorb} {
			for _, net := range nets {
				for _, pol := range policies {
					name := fmt.Sprintf("%s/%s/%s/%s", model.name, fate, net.name, pol.name)
					t.Run(name, func(t *testing.T) {
						e, err := sim.New(net.mesh, pol.new(), goldenPackets(net.mesh, 96, 17), sim.Options{
							Seed: 23, Validation: sim.ValidateGreedy, MaxSteps: 1000,
						})
						if err != nil {
							t.Fatal(err)
						}
						e.SetFaults(model.new(), fate)
						gen, err := traffic.NewPoisson(0.15, 12)
						if err != nil {
							t.Fatal(err)
						}
						src, err := traffic.NewSource(gen)
						if err != nil {
							t.Fatal(err)
						}
						e.SetInjector(src)
						want, ok := faultRunGolden[name]
						if !ok {
							t.Fatalf("no golden run for %s", name)
						}
						for step := 0; step < tieBreakSteps; step++ {
							if err := e.Step(); err != nil {
								t.Fatal(err)
							}
							if e.Live() == 0 {
								t.Fatalf("step %d: network drained; the golden run must stay contended", step)
							}
							if got := e.StateHash(); got != want.hashes[step] {
								t.Fatalf("step %d: state hash %#016x, golden %#016x — the fault run diverged from the failure-set definition",
									step, got, want.hashes[step])
							}
						}
						res, err := e.Run()
						if err != nil {
							t.Fatal(err)
						}
						if *res != want.result {
							t.Fatalf("final result diverged:\n got  %+v\n want %+v", *res, want.result)
						}
					})
				}
			}
		}
	}
}
