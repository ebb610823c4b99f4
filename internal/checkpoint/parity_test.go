package checkpoint_test

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// parityCase builds the same engine every time it is called: the snapshotted
// run and each restore target must be configured identically.
type parityCase struct {
	name     string
	side     int // mesh side; 0 = 8
	arrivals string
	fault    *spec.FaultConfig
	livelock bool // needs a deterministic policy: the detector is off for randomized ones
	k        int
	// check asserts the captured snapshot really exercises the feature the
	// case is named after.
	check func(t *testing.T, s *sim.Snapshot)
}

func (pc parityCase) build(t testing.TB, withPackets bool) *sim.Engine {
	t.Helper()
	side := pc.side
	if side == 0 {
		side = 8
	}
	m := mesh.MustNew(2, side)
	var packets []*sim.Packet
	if withPackets && pc.k > 0 {
		var err error
		packets, err = spec.BuildWorkload(spec.WorkloadSpec{Name: "uniform"}, m, pc.k, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
	}
	policy := "random"
	if pc.livelock {
		policy = "restricted-det"
	}
	pol, err := spec.NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(m, pol, packets, sim.Options{Seed: 6, Validation: sim.ValidateGreedy, MaxSteps: 4000, DetectLivelock: pc.livelock})
	if err != nil {
		t.Fatal(err)
	}
	if pc.fault != nil {
		model, err := spec.NewFaults(m, *pc.fault)
		if err != nil {
			t.Fatal(err)
		}
		fate, err := spec.ParseFate(pc.fault.Fate)
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaults(model, fate)
	}
	if pc.arrivals != "" {
		as, err := spec.ParseArrivalSpec(pc.arrivals)
		if err != nil {
			t.Fatal(err)
		}
		src, err := spec.BuildArrivals(as, m)
		if err != nil {
			t.Fatal(err)
		}
		e.SetInjector(src)
	}
	return e
}

func stepN(t testing.TB, e *sim.Engine, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFormatParity: for a batch run, Poisson arrivals caught mid-burst, a
// fault overlay that has already dropped packets, and a livelock detector
// with history, both encodings reproduce the snapshot field for field, and
// engines restored from either continue in lockstep with the original. The
// engine's own encoder writes Snapshot().AppendBinary's bytes at every step,
// and the file a periodic save writes with it (SaveValue of the engine)
// resumes to the uninterrupted run's state hash and Result.
func TestFormatParity(t *testing.T) {
	cases := []parityCase{
		{name: "batch", k: 128, check: func(t *testing.T, s *sim.Snapshot) {
			if len(s.Packets) != 128 || len(s.Queues) == 0 {
				t.Fatalf("batch snapshot has %d packets, %d queues", len(s.Packets), len(s.Queues))
			}
		}},
		{name: "poisson mid-burst", arrivals: "poisson:rate=0.4,until=80", check: func(t *testing.T, s *sim.Snapshot) {
			if !s.HasInjector || len(s.InjectorState) == 0 {
				t.Fatal("no injector state captured")
			}
		}},
		{name: "faults with drops", k: 96, fault: &spec.FaultConfig{Rate: 0.02, Repair: 0.1, CrashRate: 0.01, Fate: "drop"}, check: func(t *testing.T, s *sim.Snapshot) {
			if !s.HasFaults || s.Dropped == 0 || s.OverlayDigest == 0 {
				t.Fatalf("fault snapshot: has_faults=%v dropped=%d", s.HasFaults, s.Dropped)
			}
		}},
		{name: "livelock history", k: 128, livelock: true, check: func(t *testing.T, s *sim.Snapshot) {
			if len(s.Seen) == 0 {
				t.Fatal("no Seen entries captured")
			}
		}},
	}
	for _, pc := range cases {
		t.Run(pc.name, func(t *testing.T) {
			orig := pc.build(t, true)
			stepN(t, orig, 5)
			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			pc.check(t, snap)
			path := filepath.Join(t.TempDir(), "engine.hpck")
			if err := checkpoint.SaveValue(path, orig, checkpoint.Binary); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				sameBytes(t, orig)
				stepN(t, orig, 1)
			}

			for _, format := range []checkpoint.Format{checkpoint.JSON, checkpoint.Binary} {
				var buf bytes.Buffer
				if err := checkpoint.Write(&buf, snap, format); err != nil {
					t.Fatal(err)
				}
				got, err := checkpoint.Read(&buf)
				if err != nil {
					t.Fatalf("%c: %v", format, err)
				}
				if !reflect.DeepEqual(got, snap) {
					t.Fatalf("%c round trip changed the snapshot:\ngot  %+v\nwant %+v", format, got, snap)
				}
				e := pc.build(t, false)
				if err := e.Restore(got); err != nil {
					t.Fatalf("%c: %v", format, err)
				}
				stepN(t, e, 20)
				if e.StateHash() != orig.StateHash() || e.Progress() != orig.Progress() {
					t.Fatalf("%c: restored run diverged after 20 steps: hash %#x vs %#x, progress %+v vs %+v",
						format, e.StateHash(), orig.StateHash(), e.Progress(), orig.Progress())
				}
			}

			got, err := checkpoint.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, snap) {
				t.Fatalf("the engine-written file decodes to\n%+v\nthe snapshot of its state is\n%+v", got, snap)
			}
			resumed := pc.build(t, false)
			if err := resumed.Restore(got); err != nil {
				t.Fatal(err)
			}
			want, err := orig.Run()
			if err != nil {
				t.Fatal(err)
			}
			res, err := resumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			if *res != *want || resumed.StateHash() != orig.StateHash() {
				t.Fatalf("resumed from the engine-written file: %+v hash %#x, uninterrupted %+v hash %#x",
					*res, resumed.StateHash(), *want, orig.StateHash())
			}
		})
	}
}

// sameBytes checks that the engine encoder writes what encoding a Snapshot
// of the same state writes.
func sameBytes(t *testing.T, e *sim.Engine) {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d: Engine.AppendBinary wrote %d bytes, Snapshot().AppendBinary %d, not the same", e.Time(), len(got), len(want))
	}
}
