package mesh

import (
	"fmt"
	"testing"
)

// subgridCases enumerates rectangle shapes worth exercising on an 8x8 base:
// interior and corner blocks, non-square slabs, degenerate 1xk and kx1
// strips, single cells, and the whole mesh.
var subgridCases = []struct {
	name         string
	x0, y0, w, h int
}{
	{"interior", 2, 3, 3, 2},
	{"corner-origin", 0, 0, 4, 4},
	{"corner-far", 4, 4, 4, 4},
	{"non-square-wide", 0, 2, 8, 3},
	{"non-square-tall", 5, 0, 2, 8},
	{"strip-1xk", 0, 3, 8, 1},
	{"strip-kx1", 3, 0, 1, 8},
	{"single-cell-interior", 4, 5, 1, 1},
	{"single-cell-corner", 7, 7, 1, 1},
	{"whole-mesh", 0, 0, 8, 8},
}

func subgridBases(t *testing.T) []*Mesh {
	t.Helper()
	return []*Mesh{MustNew(2, 8), MustNewTorus(2, 8), MustNewTorus(2, 9)}
}

// TestSubgridMatchesBase cross-checks the rectangle arithmetic of every
// shape against the base mesh: local and global ids round-trip in row-major
// order, exactly the nodes whose coordinates fall in the rectangle are
// owned, and DegreeLocal reads the base degree.
func TestSubgridMatchesBase(t *testing.T) {
	for _, m := range subgridBases(t) {
		for _, tc := range subgridCases {
			if tc.x0+tc.w > m.Side() || tc.y0+tc.h > m.Side() {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s", m, tc.name), func(t *testing.T) {
				g, err := m.Subgrid(tc.x0, tc.y0, tc.w, tc.h)
				if err != nil {
					t.Fatalf("Subgrid: %v", err)
				}
				if got := g.Len(); got != tc.w*tc.h {
					t.Fatalf("Len = %d, want %d", got, tc.w*tc.h)
				}
				checkSubgridAgainstBase(t, m, g)
			})
		}
	}
}

func checkSubgridAgainstBase(t *testing.T, m *Mesh, g *Subgrid) {
	t.Helper()
	x0, y0, w, h := g.Bounds()
	var cbuf [MaxDim]int
	prev := -1
	for local := 0; local < g.Len(); local++ {
		id := g.GlobalID(local)
		// Local row-major order must be monotone in global id within the
		// rectangle's rows; across a row boundary it jumps but stays
		// increasing because y dominates the id.
		if int(id) <= prev {
			t.Fatalf("GlobalID(%d) = %d not increasing (prev %d)", local, id, prev)
		}
		prev = int(id)
		if got := g.LocalID(id); got != local {
			t.Fatalf("LocalID(GlobalID(%d)) = %d", local, got)
		}
		if got, want := g.DegreeLocal(local), m.Degree(id); got != want {
			t.Fatalf("DegreeLocal(%d) = %d, base %d", local, got, want)
		}
	}
	owned := 0
	for id := NodeID(0); int(id) < m.Size(); id++ {
		c := m.Coord(id, cbuf[:])
		inside := c[0] >= x0 && c[0] < x0+w && c[1] >= y0 && c[1] < y0+h
		if g.Owns(id) != inside {
			t.Fatalf("Owns(%d) = %v for coord %v, rectangle [%d,%d)x[%d,%d)", id, !inside, c, x0, x0+w, y0, y0+h)
		}
		if inside {
			owned++
		}
	}
	if owned != g.Len() {
		t.Fatalf("%d nodes owned, Len %d", owned, g.Len())
	}
}

// TestSubgridBoundaryEdges pins the halo semantics down explicitly, through
// the shared table shards route against plus the rectangle's Owns: on a
// torus every rectangle-boundary arc wraps to the node on the far side of
// the *mesh* (not the far side of the rectangle), while on a mesh arcs at
// the true network edge are clipped (!ok) and arcs at an interior rectangle
// boundary lead into halo territory owned by a neighboring shard.
func TestSubgridBoundaryEdges(t *testing.T) {
	t.Run("torus-wraps", func(t *testing.T) {
		m := MustNewTorus(2, 8)
		// Left column of the mesh: the "-x" neighbor wraps to x=7.
		g, err := m.Subgrid(0, 2, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		to, ok := m.Tables().Neighbor(m.ID([]int{0, 3}), DirMinus(0))
		if !ok {
			t.Fatalf("torus boundary arc missing")
		}
		if want := m.ID([]int{7, 3}); to != want {
			t.Fatalf("wrap neighbor = %d, want %d", to, want)
		}
		if g.Owns(to) {
			t.Fatalf("wrapped neighbor reported as owned")
		}
	})
	t.Run("torus-wrap-into-self", func(t *testing.T) {
		// A full-width strip on a torus wraps into itself: the halo node is
		// owned by the same rectangle. The engine treats that as an internal
		// move, not a halo crossing.
		m := MustNewTorus(2, 8)
		g, err := m.Subgrid(0, 3, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		to, ok := m.Tables().Neighbor(m.ID([]int{0, 3}), DirMinus(0))
		if !ok || to != m.ID([]int{7, 3}) {
			t.Fatalf("self-wrap neighbor = %d, ok %v", to, ok)
		}
		if !g.Owns(to) {
			t.Fatalf("self-wrap neighbor must be owned")
		}
	})
	t.Run("mesh-clips", func(t *testing.T) {
		m := MustNew(2, 8)
		tab := m.Tables()
		// Rectangle touching the true mesh edge: edge arcs are clipped.
		g, err := m.Subgrid(0, 0, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		origin := m.ID([]int{0, 0})
		if _, ok := tab.Neighbor(origin, DirMinus(0)); ok {
			t.Fatalf("mesh edge arc -x not clipped")
		}
		if _, ok := tab.Neighbor(origin, DirMinus(1)); ok {
			t.Fatalf("mesh edge arc -y not clipped")
		}
		// Interior rectangle boundary: the arc exists and leads into the halo.
		to, ok := tab.Neighbor(m.ID([]int{2, 1}), DirPlus(0))
		if !ok || to != m.ID([]int{3, 1}) {
			t.Fatalf("interior boundary arc = %d, ok %v", to, ok)
		}
		if g.Owns(to) {
			t.Fatalf("halo neighbor reported as owned")
		}
	})
}

func TestSubgridErrors(t *testing.T) {
	m2 := MustNew(2, 8)
	for _, tc := range []struct{ x0, y0, w, h int }{
		{-1, 0, 2, 2}, {0, -1, 2, 2}, {0, 0, 0, 2}, {0, 0, 2, 0},
		{7, 0, 2, 2}, {0, 7, 2, 2}, {0, 0, 9, 1}, {0, 0, 1, 9},
	} {
		if _, err := m2.Subgrid(tc.x0, tc.y0, tc.w, tc.h); err == nil {
			t.Errorf("Subgrid(%d, %d, %d, %d): want error", tc.x0, tc.y0, tc.w, tc.h)
		}
	}
	m3 := MustNew(3, 4)
	if _, err := m3.Subgrid(0, 0, 2, 2); err == nil {
		t.Errorf("Subgrid on 3-dimensional mesh: want error")
	}
}

// TestSubgridStringer keeps the rendered form stable (it appears in shard
// error messages and logs).
func TestSubgridStringer(t *testing.T) {
	m := MustNew(2, 8)
	g, err := m.Subgrid(2, 0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.String(), "mesh(d=2, n=8)[2,5)x[0,4)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
