package sim

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"hotpotato/internal/mesh"
)

// panicPolicy panics inside Route once the trigger node is reached.
type panicPolicy struct {
	trigger mesh.NodeID
}

func (p panicPolicy) Name() string        { return "test-panic" }
func (p panicPolicy) Deterministic() bool { return true }
func (p panicPolicy) Clone() Policy       { return p }
func (p panicPolicy) Route(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
	if ns.Node == p.trigger {
		panic("boom")
	}
	for i := range ns.Packets {
		out[i] = ns.Info(i).Good()[0]
	}
}

// TestPolicyPanicSurfacesAsError: a panicking policy must not crash the
// process; Step returns ErrPolicyPanic instead.
func TestPolicyPanicSurfacesAsError(t *testing.T) {
	m := mesh.MustNew(2, 6)
	src := m.ID([]int{1, 1})
	e, err := New(m, panicPolicy{trigger: src}, []*Packet{NewPacket(0, src, m.ID([]int{4, 4}))}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Step()
	if !errors.Is(err, ErrPolicyPanic) {
		t.Fatalf("Step err = %v, want ErrPolicyPanic", err)
	}
}

// TestMaxWallTime: a run that would spin to a huge step budget stops at the
// wall-clock deadline and reports it.
func TestMaxWallTime(t *testing.T) {
	m := mesh.MustNew(1, 4)
	// The swap fixture loops forever; without livelock detection only the
	// budget stops it — here the wall clock is the budget.
	pol := &testPolicy{
		name: "test-swap",
		det:  true,
		route: func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			for i, p := range ns.Packets {
				if p.Node == 1 {
					out[i] = mesh.DirPlus(0)
				} else {
					out[i] = mesh.DirMinus(0)
				}
			}
		},
	}
	e, err := New(m, pol, []*Packet{NewPacket(0, 1, 0), NewPacket(1, 2, 3)}, Options{
		MaxSteps:    1 << 30,
		MaxWallTime: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineExceeded {
		t.Fatalf("DeadlineExceeded not set: %+v", res)
	}
	if res.HitMaxSteps || res.Livelocked {
		t.Errorf("wrong termination cause: %+v", res)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("run took %v despite a 30ms wall budget", took)
	}
}

// TestMaxWallTimeNotSetOnFastRun: a run that finishes before the deadline
// must not report it.
func TestMaxWallTimeNotSetOnFastRun(t *testing.T) {
	m := mesh.MustNew(2, 4)
	e, err := New(m, firstGoodPolicy(), []*Packet{NewPacket(0, 0, 5)}, Options{
		MaxWallTime: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineExceeded || res.Delivered != 1 {
		t.Fatalf("unexpected result %+v", res)
	}
}

// overflowInjector ignores InjectionCapacity and floods one node.
type overflowInjector struct{ node mesh.NodeID }

func (o overflowInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet {
	if t > 0 {
		return nil
	}
	var ps []*Packet
	for i := 0; i <= e.Mesh().Degree(o.node); i++ {
		dst := mesh.NodeID(0)
		if o.node == dst {
			dst = 1
		}
		ps = append(ps, NewPacket(e.NextPacketID(), o.node, dst))
	}
	return ps
}
func (overflowInjector) Exhausted(t int) bool { return t > 0 }

// TestInjectorOverCapacityRejected: exceeding the intact mesh's out-degree
// is an injector bug and a hard error (distinct from fault-reduced capacity,
// which drops gracefully — see TestFaultReducedCapacityInjectionDrops).
func TestInjectorOverCapacityRejected(t *testing.T) {
	m := mesh.MustNew(2, 4)
	e, err := New(m, firstGoodPolicy(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(overflowInjector{node: m.ID([]int{1, 1})})
	_, err = e.Run()
	if !errors.Is(err, ErrBadInjection) {
		t.Fatalf("over-capacity injection: err = %v, want ErrBadInjection", err)
	}
}

// nilInjector returns a nil packet among valid ones.
type nilInjector struct{}

func (nilInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet {
	if t > 0 {
		return nil
	}
	return []*Packet{NewPacket(e.NextPacketID(), 0, 5), nil}
}
func (nilInjector) Exhausted(t int) bool { return t > 0 }

// TestInjectorNilPacketRejected: nil packets from an injector are a hard
// error, not a crash later in the step.
func TestInjectorNilPacketRejected(t *testing.T) {
	m := mesh.MustNew(2, 4)
	e, err := New(m, firstGoodPolicy(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(nilInjector{})
	_, err = e.Run()
	if !errors.Is(err, ErrBadInjection) {
		t.Fatalf("nil injected packet: err = %v, want ErrBadInjection", err)
	}
}

// noopInjector never injects and never exhausts.
type noopInjector struct{}

func (noopInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet { return nil }
func (noopInjector) Exhausted(t int) bool                                   { return false }

// TestSetInjectorDisablesLivelockDetection: with an injector installed the
// configuration is not closed, so the detector must stay quiet even for a
// deterministic policy in a genuine loop.
func TestSetInjectorDisablesLivelockDetection(t *testing.T) {
	m := mesh.MustNew(1, 4)
	pol := &testPolicy{
		name: "test-swap",
		det:  true,
		route: func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			for i, p := range ns.Packets {
				if p.Node == 1 {
					out[i] = mesh.DirPlus(0)
				} else {
					out[i] = mesh.DirMinus(0)
				}
			}
		},
	}
	e, err := New(m, pol, []*Packet{NewPacket(0, 1, 0), NewPacket(1, 2, 3)}, Options{
		Validation:     ValidateBasic,
		DetectLivelock: true,
		MaxSteps:       300,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(noopInjector{})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelocked {
		t.Error("livelock reported with an injector installed")
	}
	if !res.HitMaxSteps {
		t.Errorf("expected HitMaxSteps: %+v", res)
	}
}
