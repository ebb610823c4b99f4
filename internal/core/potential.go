package core

import (
	"fmt"
	"math"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// Tracker maintains the paper's potential function over a running engine
// and checks, at every step, every local and global inequality the analysis
// rests on. Register it with sim.Engine.AddObserver before the first step.
//
// The per-packet potential is phi_p(t) = dist_p(t) + C_p(t) with the spare
// potential C_p following the exact rules of Section 4.2 (Figure 6):
//
//  1. C_p(0) = 2n.
//  2. If after step t the packet is not restricted, or is restricted of
//     type B, C_p = 2n.
//  3. If after step t the packet is restricted of type A:
//     (a) if p deflected no type-A packet in step t, C_p drops by 2;
//     (b) if p deflected the type-A packet q, p inherits C_q - 2 and q
//     resets to 2n (the "switch").
//  4. Arrived packets have C_p = 0.
//
// The same rules are applied verbatim in any dimension (restricted packets
// are those with exactly one good direction). For d = 2 this is exactly the
// paper's function and every check must pass for any algorithm preferring
// restricted packets; for d >= 3 the paper omits the (thesis-only) exact
// construction, so violation counts are reported as measurements rather
// than asserted (see DESIGN.md).
type Tracker struct {
	mesh     *mesh.Mesh
	tab      *mesh.Tables // the mesh's table: every per-move geometry query reads it
	packets  []*sim.Packet
	spare0   int
	burn     int
	burnAll  bool
	m        int // a priori bound M on phi_p
	distOnly bool

	c   map[*sim.Packet]int
	phi int64 // current global potential

	phiHist []int64 // Phi(0), Phi(1), ...
	fHist   []int
	series  []StepStats
	record  bool

	load    []int32
	touched []mesh.NodeID

	v          Violations
	minPhi     int
	minC       int
	selfCheckN int
}

// StepStats is the per-step time series the tracker records.
type StepStats struct {
	// Time is the step index t the stats describe (configuration at the
	// beginning of step t, transitions during it).
	Time int
	// PhiBefore and PhiAfter are Phi(t) and Phi(t+1).
	PhiBefore, PhiAfter int64
	// Good and Bad are G(t) and B(t): packets in good/bad nodes
	// (Definition 9; a node is bad if it holds more than d packets).
	Good, Bad int
	// BadNodes is the number of bad nodes.
	BadNodes int
	// SurfaceArcs is F(t), the number of surface arcs (Definition 11).
	SurfaceArcs int
	// Advanced and Deflected count packet moves of each kind.
	Advanced, Deflected int
}

// Violations aggregates every inequality breach observed. All fields stay
// zero for Section-4 class algorithms on 2-dimensional meshes.
type Violations struct {
	// Property8 counts node-steps where the potential loss of a node fell
	// short of Property 8 (>= l for l <= d packets, >= 2d-l otherwise).
	Property8 int
	// Corollary10 counts steps with Phi(t+1) > Phi(t) - G(t).
	Corollary10 int
	// Lemma12 counts steps with Phi(t+2) > Phi(t) - F(t).
	Lemma12 int
	// Lemma14 counts steps with F(t) < (2d)^{1/d} * B(t)^{(d-1)/d}.
	Lemma14 int
	// Lemma15 counts steps with
	// Phi(t) - Phi(t+2) < (2d)^{1/d} * (Phi(t)/2M)^{(d-1)/d}.
	Lemma15 int
	// PhiRange counts packet-steps with phi_p outside [0, M].
	PhiRange int
	// PhiZeroLive counts packet-steps where a live packet had phi_p = 0.
	PhiZeroLive int
	// TypeADeflector counts deflections of a type-A packet whose deflector
	// was itself type A, contradicting the property claimed in Section 4.1
	// (the deflector of a type-A packet must be type B).
	TypeADeflector int
	// SwitchAmbiguous counts deflected type-A packets that shared their
	// good arc with another deflected type-A packet in the same node (the
	// paper argues this cannot happen; the switch is applied to the first).
	SwitchAmbiguous int
	// Conservation counts self-check failures of the incremental Phi
	// bookkeeping against a from-scratch recomputation (an implementation
	// invariant, not a paper claim; always expected to be zero).
	Conservation int
}

// Any reports whether any violation was observed.
func (v Violations) Any() bool {
	return v.Property8+v.Corollary10+v.Lemma12+v.Lemma14+v.Lemma15+
		v.PhiRange+v.PhiZeroLive+v.TypeADeflector+v.SwitchAmbiguous+v.Conservation > 0
}

// String summarizes the nonzero counters.
func (v Violations) String() string {
	if !v.Any() {
		return "no violations"
	}
	return fmt.Sprintf("property8=%d cor10=%d lemma12=%d lemma14=%d lemma15=%d phiRange=%d phiZeroLive=%d typeADeflector=%d switchAmbiguous=%d conservation=%d",
		v.Property8, v.Corollary10, v.Lemma12, v.Lemma14, v.Lemma15,
		v.PhiRange, v.PhiZeroLive, v.TypeADeflector, v.SwitchAmbiguous, v.Conservation)
}

// TrackerOptions configures a Tracker.
type TrackerOptions struct {
	// RecordSeries keeps the full per-step StepStats series in memory.
	RecordSeries bool
	// SelfCheckEvery recomputes Phi from scratch every that many steps and
	// counts mismatches as Conservation violations. 0 disables.
	SelfCheckEvery int
	// DistanceOnly ablates the spare potential: phi_p = dist_p, C_p = 0.
	// This naive potential does NOT satisfy Property 8 (a deflection gains
	// distance with nothing to pay for it) — the tracker then *measures*
	// the failures, demonstrating why the paper's Figure-6 spare-potential
	// construction is needed.
	DistanceOnly bool
	// Spare0 overrides the initial/reset spare potential (default 2n, the
	// paper's value). Used by the Section-5 reconstruction experiments.
	Spare0 int
	// Burn overrides the spare units a type-A packet throws per advancing
	// step (default 2, the paper's value).
	Burn int
	// BurnAll switches to the class-based d-dimensional variant sketched
	// in Section 5: EVERY advancing packet burns Burn spare units (not
	// only restricted type-A ones), and every deflected packet resets to
	// Spare0. The restricted switch rule is disabled in this mode (the
	// thesis construction replaces it with a compensation scheme the paper
	// does not spell out).
	BurnAll bool
}

// NewTracker builds a tracker for the given problem. It must see every step
// of the engine from the start (register it before stepping).
func NewTracker(m *mesh.Mesh, packets []*sim.Packet, opts TrackerOptions) *Tracker {
	spare0 := 2 * m.Side()
	if opts.Spare0 > 0 {
		spare0 = opts.Spare0
	}
	if opts.DistanceOnly {
		spare0 = 0
	}
	burn := 2
	if opts.Burn > 0 {
		burn = opts.Burn
	}
	tr := &Tracker{
		mesh:       m,
		tab:        m.Tables(),
		packets:    packets,
		spare0:     spare0,
		burn:       burn,
		burnAll:    opts.BurnAll,
		m:          spare0 + m.Diameter(),
		distOnly:   opts.DistanceOnly,
		c:          make(map[*sim.Packet]int, len(packets)),
		load:       make([]int32, m.Size()),
		record:     opts.RecordSeries,
		selfCheckN: opts.SelfCheckEvery,
		minPhi:     math.MaxInt,
		minC:       math.MaxInt,
	}
	for _, p := range packets {
		if p.Arrived() {
			tr.c[p] = 0
			continue
		}
		tr.c[p] = tr.spare0
		tr.phi += int64(tr.tab.Dist(p.Node, p.Dst) + tr.spare0)
	}
	tr.phiHist = append(tr.phiHist, tr.phi)
	return tr
}

// M returns the a priori bound on the potential of a single packet
// (4n in two dimensions).
func (tr *Tracker) M() int { return tr.m }

// Phi returns the current global potential.
func (tr *Tracker) Phi() int64 { return tr.phi }

// Phi0 returns the initial potential Phi(0).
func (tr *Tracker) Phi0() int64 { return tr.phiHist[0] }

// PhiHistory returns Phi(0), Phi(1), ..., one entry per completed step plus
// the initial value.
func (tr *Tracker) PhiHistory() []int64 { return tr.phiHist }

// Series returns the recorded per-step statistics (empty unless
// RecordSeries was set).
func (tr *Tracker) Series() []StepStats { return tr.series }

// Violations returns the accumulated violation counters.
func (tr *Tracker) Violations() Violations { return tr.v }

// MinPhi returns the smallest per-packet potential observed on a live
// packet (math.MaxInt if no step ran).
func (tr *Tracker) MinPhi() int { return tr.minPhi }

// MinSpare returns the smallest spare potential C_p observed on a live
// packet (math.MaxInt if no step ran).
func (tr *Tracker) MinSpare() int { return tr.minC }

// OnStep implements sim.Observer.
func (tr *Tracker) OnStep(rec *sim.StepRecord) {
	d := tr.mesh.Dim()
	stats := StepStats{Time: rec.Time, PhiBefore: tr.phi}

	// Pass 1: node loads at the beginning of the step, for B(t), G(t) and
	// the surface-arc count F(t).
	for i := range rec.Moves {
		node := rec.Moves[i].From
		if tr.load[node] == 0 {
			tr.touched = append(tr.touched, node)
		}
		tr.load[node]++
	}
	for _, node := range tr.touched {
		l := int(tr.load[node])
		if l > d {
			stats.Bad += l
			stats.BadNodes++
		} else {
			stats.Good += l
		}
	}
	stats.SurfaceArcs = tr.countSurfaceArcs(d)

	// Pass 2: apply the Figure-6 potential rules group by group (moves out
	// of one node are contiguous) and check Property 8 per node.
	for lo := 0; lo < len(rec.Moves); {
		hi := lo + 1
		for hi < len(rec.Moves) && rec.Moves[hi].From == rec.Moves[lo].From {
			hi++
		}
		tr.applyNode(rec.Moves[lo:hi], &stats)
		lo = hi
	}

	// Global checks.
	stats.PhiAfter = tr.phi
	tr.phiHist = append(tr.phiHist, tr.phi)
	tr.fHist = append(tr.fHist, stats.SurfaceArcs)
	t := rec.Time
	if tr.phiHist[t+1] > tr.phiHist[t]-int64(stats.Good) {
		tr.v.Corollary10++
	}
	if t >= 1 {
		// Check Lemma 12 and Lemma 15 for step t-1, now that Phi(t+1) is
		// known.
		phiT, phiT2 := tr.phiHist[t-1], tr.phiHist[t+1]
		if phiT2 > phiT-int64(tr.fHist[t-1]) {
			tr.v.Lemma12++
		}
		want := math.Pow(2*float64(d), 1/float64(d)) *
			math.Pow(float64(phiT)/(2*float64(tr.m)), float64(d-1)/float64(d))
		if float64(phiT-phiT2)+1e-9 < want {
			tr.v.Lemma15++
		}
	}
	if stats.Bad > 0 {
		want := math.Pow(2*float64(d), 1/float64(d)) *
			math.Pow(float64(stats.Bad), float64(d-1)/float64(d))
		if float64(stats.SurfaceArcs)+1e-9 < want {
			tr.v.Lemma14++
		}
	}

	// Reset load scratch.
	for _, node := range tr.touched {
		tr.load[node] = 0
	}
	tr.touched = tr.touched[:0]

	if tr.record {
		for i := range rec.Moves {
			if rec.Moves[i].Advanced {
				stats.Advanced++
			} else {
				stats.Deflected++
			}
		}
		tr.series = append(tr.series, stats)
	}
	if tr.selfCheckN > 0 && (t+1)%tr.selfCheckN == 0 {
		tr.selfCheck()
	}
}

// countSurfaceArcs computes F(t) per Definition 11: arcs out of bad nodes
// whose 2-neighbor in that direction is good or absent (arcs leading out of
// the mesh from a bad node count too).
func (tr *Tracker) countSurfaceArcs(d int) int {
	f := 0
	for _, node := range tr.touched {
		if int(tr.load[node]) <= d {
			continue
		}
		for dir := mesh.Dir(0); dir < mesh.Dir(2*d); dir++ {
			n2, ok := tr.tab.TwoNeighbor(node, dir)
			if !ok || int(tr.load[n2]) <= d {
				f++
			}
		}
	}
	return f
}

// applyNode processes the moves out of one node: computes the new spare
// potentials, accumulates the global potential change, and checks
// Property 8 for the node.
func (tr *Tracker) applyNode(group []sim.Move, stats *StepStats) {
	d := tr.mesh.Dim()
	node := group[0].From

	// Identify deflected type-A packets and index them by their unique good
	// arc so the switch rule can attribute them to their deflector. Type-A
	// packets are restricted, so the good arc is unique; two deflected
	// type-A packets sharing an arc is impossible per the paper (counted if
	// observed).
	var switchC [2 * mesh.MaxDim]int
	var switchSet [2 * mesh.MaxDim]bool
	for i := range group {
		mv := &group[i]
		if mv.Advanced || !mv.WasTypeA {
			continue
		}
		var buf [2 * mesh.MaxDim]mesh.Dir
		good := tr.tab.GoodDirs(mv.From, mv.Packet.Dst, buf[:0])
		if len(good) != 1 {
			continue // defensive: WasTypeA implies restricted
		}
		g := good[0]
		if switchSet[g] {
			tr.v.SwitchAmbiguous++
			continue
		}
		switchSet[g] = true
		switchC[g] = tr.c[mv.Packet]
	}

	var before, after int64
	for i := range group {
		mv := &group[i]
		p := mv.Packet
		cBefore := tr.c[p]
		before += int64(tr.tab.Dist(mv.From, p.Dst) + cBefore)

		var cAfter, phiAfter int
		switch {
		case mv.ArrivedNow:
			cAfter = 0
			phiAfter = 0
		case tr.distOnly:
			cAfter = 0
			phiAfter = tr.tab.Dist(mv.To, p.Dst)
			if phiAfter < tr.minPhi {
				tr.minPhi = phiAfter
			}
		case tr.burnAll:
			// Class-based Section-5 variant: every advancing packet burns,
			// every deflected packet resets.
			if mv.Advanced {
				cAfter = cBefore - tr.burn
			} else {
				cAfter = tr.spare0
			}
			phiAfter = tr.tab.Dist(mv.To, p.Dst) + cAfter
			if phiAfter < tr.minPhi {
				tr.minPhi = phiAfter
			}
			if cAfter < tr.minC {
				tr.minC = cAfter
			}
			if phiAfter < 0 || phiAfter > tr.m {
				tr.v.PhiRange++
			}
			if phiAfter == 0 {
				tr.v.PhiZeroLive++
			}
		default:
			distAfter := tr.tab.Dist(mv.To, p.Dst)
			restrictedAfter := tr.tab.GoodDirCount(mv.To, p.Dst) == 1
			typeAAfter := restrictedAfter && mv.WasRestricted && mv.Advanced
			if typeAAfter {
				if mv.Advanced && switchSet[mv.Dir] {
					// Rule 3(b): p advanced through the unique good arc of
					// a deflected type-A packet q; p inherits q's countdown.
					cAfter = switchC[mv.Dir] - tr.burn
					if mv.WasTypeA {
						// The deflector of a type-A packet must be type B
						// (Section 4.1, property 2).
						tr.v.TypeADeflector++
					}
				} else {
					cAfter = cBefore - tr.burn
				}
			} else {
				cAfter = tr.spare0
			}
			phiAfter = distAfter + cAfter
			if phiAfter < tr.minPhi {
				tr.minPhi = phiAfter
			}
			if cAfter < tr.minC {
				tr.minC = cAfter
			}
			if phiAfter < 0 || phiAfter > tr.m {
				tr.v.PhiRange++
			}
			if phiAfter == 0 {
				tr.v.PhiZeroLive++
			}
		}
		tr.c[p] = cAfter
		after += int64(phiAfter)
	}

	loss := before - after
	l := len(group)
	var need int64
	if l <= d {
		need = int64(l)
	} else {
		need = int64(2*d - l)
	}
	if loss < need {
		tr.v.Property8++
	}
	_ = node
	tr.phi -= loss
}

// selfCheck recomputes Phi from per-packet state and compares with the
// incrementally maintained value.
func (tr *Tracker) selfCheck() {
	var phi int64
	for _, p := range tr.packets {
		if p.Arrived() {
			continue
		}
		phi += int64(tr.tab.Dist(p.Node, p.Dst) + tr.c[p])
	}
	if phi != tr.phi {
		tr.v.Conservation++
		tr.phi = phi // resynchronize so one bug is counted once per check
	}
}
