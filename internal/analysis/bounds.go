// Package analysis ties the system together for reproduction: closed-form
// bound formulas from the paper and its related work, a trial runner that
// executes routing problems with potential tracking, and the experiment
// registry that regenerates every table and figure listed in DESIGN.md.
package analysis

import (
	"math"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// Theorem17Bound returns the generic potential-method bound of Theorem 17:
// (4d)^{1-1/d} * k^{1/d} * M steps for any algorithm admitting a potential
// function with Property 8 and per-packet bound M.
func Theorem17Bound(d, k int, m float64) float64 {
	df := float64(d)
	return math.Pow(4*df, 1-1/df) * math.Pow(float64(k), 1/df) * m
}

// Theorem20Bound returns the Section-4 bound for the two-dimensional mesh:
// 8*sqrt(2) * n * sqrt(k) steps for any greedy algorithm preferring
// restricted packets (Theorem 17 with d = 2 and M = 4n).
func Theorem20Bound(n, k int) float64 {
	return 8 * math.Sqrt2 * float64(n) * math.Sqrt(float64(k))
}

// Section5Bound returns the d-dimensional bound sketched in Section 5:
// 4^{d+1-1/d} * d^{1-1/d} * k^{1/d} * n^{d-1}.
func Section5Bound(d, n, k int) float64 {
	df := float64(d)
	return math.Pow(4, df+1-1/df) * math.Pow(df, 1-1/df) *
		math.Pow(float64(k), 1/df) * math.Pow(float64(n), df-1)
}

// BatchBound returns the bound the paper proves for a run of k packets on
// the d-dimensional side-n network, with the result that proves it:
// Theorem 20 at d = 2, the Section-5 sketch above. The paper bounds a batch
// on a mesh only, so a torus or a run with continuous arrivals gets "", 0.
func BatchBound(d, n, k int, torus, arrivals bool) (string, float64) {
	switch {
	case torus || arrivals:
		return "", 0
	case d == 2:
		return "theorem 20", Theorem20Bound(n, k)
	default:
		return "section 5", Section5Bound(d, n, k)
	}
}

// FullPermutationBound returns the strengthened bound of the Section-4
// remark for one packet per node (k = n^2): 8n^2, obtained by splitting the
// problem into the two origin-parity classes (which never interact, since
// the parity of coordinate-sum plus time is invariant) and applying
// Theorem 20 with k = n^2/2 to each.
func FullPermutationBound(n int) float64 {
	return 8 * float64(n) * float64(n)
}

// FullLoadBound returns the remark's bound for four packets at every node
// (k = 4n^2): 16n^2, eight times the trivial lower bound.
func FullLoadBound(n int) float64 {
	return 16 * float64(n) * float64(n)
}

// BTSBound returns the [BTS]/[Fe]/[BRS] bound 2(k-1) + dmax for greedy
// routing of k packets with maximal source-destination distance dmax
// (Section 6.1). It is listed for comparison tables; the algorithms here
// are not the [BTS] algorithm, so it is a reference line, not a guarantee.
func BTSBound(k, dmax int) int {
	if k == 0 {
		return 0
	}
	return 2*(k-1) + dmax
}

// SingleTargetLowerBound returns the trivial lower bound for k packets all
// destined to one node: the last of k packets cannot arrive before
// max(dmax, ceil(k/indegree) + something); we report the simple
// dmax and k/indegree components combined as max(dmax, ceil(k/indeg)).
func SingleTargetLowerBound(m *mesh.Mesh, target mesh.NodeID, k, dmax int) int {
	if k == 0 {
		return 0
	}
	indeg := m.Degree(target)
	byCapacity := (k + indeg - 1) / indeg
	if dmax > byCapacity {
		return dmax
	}
	return byCapacity
}

// MaxDistLowerBound returns the universal lower bound: no algorithm routes
// faster than the largest source-destination distance.
func MaxDistLowerBound(m *mesh.Mesh, packets []*sim.Packet) int {
	lb := 0
	for _, p := range packets {
		if d := m.Dist(p.Src, p.Dst); d > lb {
			lb = d
		}
	}
	return lb
}
