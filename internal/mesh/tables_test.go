package mesh

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// exhaustiveNodes is the largest mesh whose good-direction primitives are
// checked for every (from, dst) pair; larger ones sample 32 destinations per
// node.
const exhaustiveNodes = 4096

// checkTablesAgainstMesh exhaustively compares every table-served primitive
// against the arithmetic implementation on the base mesh.
func checkTablesAgainstMesh(t *testing.T, m *Mesh) {
	t.Helper()
	tab := m.Tables()
	if tab != m.Tables() {
		t.Fatal("Tables not cached")
	}
	var bufA, bufB [2 * MaxDim]Dir
	var cbufA, cbufB [MaxDim]int
	rng := rand.New(rand.NewSource(int64(m.size)))
	for id := 0; id < m.Size(); id++ {
		from := NodeID(id)
		if got, want := tab.Degree(from), m.Degree(from); got != want {
			t.Fatalf("%v: Degree(%d) = %d, want %d", m, from, got, want)
		}
		if got, want := tab.ParityClass(from), m.ParityClass(from); got != want {
			t.Fatalf("%v: ParityClass(%d) = %d, want %d", m, from, got, want)
		}
		if !slices.Equal(tab.Coord(from, cbufA[:]), m.Coord(from, cbufB[:])) {
			t.Fatalf("%v: Coord(%d) mismatch", m, from)
		}
		for a := 0; a < m.Dim(); a++ {
			if got, want := tab.CoordAxis(from, a), m.CoordAxis(from, a); got != want {
				t.Fatalf("%v: CoordAxis(%d, %d) = %d, want %d", m, from, a, got, want)
			}
		}
		for d := 0; d < m.DirCount(); d++ {
			dir := Dir(d)
			if got, want := tab.HasArc(from, dir), m.HasArc(from, dir); got != want {
				t.Fatalf("%v: HasArc(%d, %v) = %v, want %v", m, from, dir, got, want)
			}
			gn, gok := tab.Neighbor(from, dir)
			wn, wok := m.Neighbor(from, dir)
			if gn != wn || gok != wok {
				t.Fatalf("%v: Neighbor(%d, %v) = (%d, %v), want (%d, %v)", m, from, dir, gn, gok, wn, wok)
			}
			gn, gok = tab.TwoNeighbor(from, dir)
			wn, wok = m.TwoNeighbor(from, dir)
			if gn != wn || gok != wok {
				t.Fatalf("%v: TwoNeighbor(%d, %v) = (%d, %v), want (%d, %v)", m, from, dir, gn, gok, wn, wok)
			}
		}
		// Good-direction primitives against every destination, or a sample
		// of them on large meshes.
		dsts := m.Size()
		if dsts > exhaustiveNodes {
			dsts = 32
		}
		for s := 0; s < dsts; s++ {
			dst := NodeID(s)
			if m.Size() > exhaustiveNodes {
				dst = NodeID(rng.Intn(m.Size()))
			}
			checkGoodDirs(t, m, from, dst, &bufA, &bufB)
		}
	}
}

// checkGoodDirs compares the table's good-direction primitives and distance
// for one (from, dst) pair with the mesh's. The per-direction checks compare
// against the reference good set, computed once. (No t.Helper: it is called
// for millions of pairs, and the messages name the pair.)
func checkGoodDirs(t *testing.T, m *Mesh, from, dst NodeID, bufA, bufB *[2 * MaxDim]Dir) {
	tab := m.Tables()
	want := m.GoodDirs(from, dst, bufB[:0])
	if n := tab.GoodDirsInto(from, dst, bufA); !slices.Equal(bufA[:n], want) {
		t.Fatalf("%v: GoodDirsInto(%d, %d) = %v, want %v", m, from, dst, bufA[:n], want)
	}
	if got := tab.GoodDirs(from, dst, bufA[:0]); !slices.Equal(got, want) {
		t.Fatalf("%v: GoodDirs(%d, %d) = %v, want %v", m, from, dst, got, want)
	}
	if got := tab.GoodDirCount(from, dst); got != len(want) {
		t.Fatalf("%v: GoodDirCount(%d, %d) = %d, want %d", m, from, dst, got, len(want))
	}
	for d := Dir(0); int(d) < m.DirCount(); d++ {
		if got := tab.IsGoodDir(from, dst, d); got != slices.Contains(want, d) {
			t.Fatalf("%v: IsGoodDir(%d, %d, %v) = %v, want %v", m, from, dst, d, got, !got)
		}
	}
	if got, want := tab.Dist(from, dst), m.Dist(from, dst); got != want {
		t.Fatalf("%v: Dist(%d, %d) = %d, want %d", m, from, dst, got, want)
	}
}

// TestTablesMatchMeshPrimitives cross-checks the flat tables against the
// arithmetic mesh primitives on a spread of meshes and tori: odd sides, and
// even-side tori whose half-way offset on an axis makes both directions
// good. Dimensions 5 to MaxDim run at the smallest side New and NewTorus
// accept.
func TestTablesMatchMeshPrimitives(t *testing.T) {
	cases := []*Mesh{
		MustNew(1, 2), MustNew(1, 7),
		MustNew(2, 2), MustNew(2, 5), MustNew(2, 8),
		MustNew(3, 3), MustNew(3, 4),
		MustNew(4, 3),
		MustNewTorus(1, 3), MustNewTorus(1, 6),
		MustNewTorus(2, 3), MustNewTorus(2, 4), MustNewTorus(2, 7),
		MustNewTorus(3, 4), MustNewTorus(3, 5), MustNewTorus(4, 4), MustNewTorus(5, 4),
	}
	for dim := 5; dim <= MaxDim; dim++ {
		cases = append(cases, MustNew(dim, 2), MustNewTorus(dim, 3))
	}
	for _, m := range cases {
		checkTablesAgainstMesh(t, m)
	}
}

// TestGoodDirsEveryAxisTies puts the destination half-way round an even
// torus on every axis, so each axis contributes both directions and, at
// dimension MaxDim, GoodDirsInto fills all 2·MaxDim slots of its buffer — the
// case where its write-ahead slot is the buffer's last.
func TestGoodDirsEveryAxisTies(t *testing.T) {
	var bufA, bufB [2 * MaxDim]Dir
	for dim := 1; dim <= MaxDim; dim++ {
		for _, side := range []int{4, 6} {
			if side > 4 && dim > 5 {
				continue // 6^6 nodes and up: side 4 covers these dimensions
			}
			m := MustNewTorus(dim, side)
			rng := rand.New(rand.NewSource(int64(dim * side)))
			for k := 0; k < 64; k++ {
				from := NodeID(rng.Intn(m.Size()))
				c := m.Coord(from, nil)
				for a := range c {
					c[a] = (c[a] + side/2) % side
				}
				dst := m.ID(c)
				if n := m.Tables().GoodDirsInto(from, dst, &bufA); n != 2*dim {
					t.Fatalf("%v: %d good directions from %d to %d, want %d", m, n, from, dst, 2*dim)
				}
				checkGoodDirs(t, m, from, dst, &bufA, &bufB)
			}
		}
	}
}

// TestTablesFuzz drives randomized (dim, side, wrap) shapes through the
// same exhaustive cross-check.
func TestTablesFuzz(t *testing.T) {
	f := func(rawDim, rawSide uint8, wrap bool) bool {
		dim := int(rawDim)%3 + 1
		side := int(rawSide)%6 + 3
		var m *Mesh
		var err error
		if wrap {
			m, err = NewTorus(dim, side)
		} else {
			m, err = New(dim, side)
		}
		if err != nil {
			return false
		}
		checkTablesAgainstMesh(t, m)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// referenceTables builds the coordinate, degree and neighbour rows of m
// from the per-node definition — Coord, Degree and Neighbor, one node and
// direction at a time — which is what the odometer walk of buildTables
// must reproduce entry for entry.
func referenceTables(m *Mesh) (coord []int32, degree []int8, neighbor []NodeID) {
	var buf [MaxDim]int
	for id := 0; id < m.Size(); id++ {
		node := NodeID(id)
		for _, c := range m.Coord(node, buf[:]) {
			coord = append(coord, int32(c))
		}
		degree = append(degree, int8(m.Degree(node)))
		for d := 0; d < m.DirCount(); d++ {
			to, ok := m.Neighbor(node, Dir(d))
			if !ok {
				to = -1
			}
			neighbor = append(neighbor, to)
		}
	}
	return coord, degree, neighbor
}

// checkTableRows compares a freshly built table's rows with the per-node
// definition.
func checkTableRows(t testing.TB, m *Mesh, tab *Tables) {
	t.Helper()
	coord, degree, neighbor := referenceTables(m)
	if !slices.Equal(tab.coord, coord) {
		t.Fatalf("%v: coordinate rows differ from Coord", m)
	}
	if !slices.Equal(tab.degree, degree) {
		t.Fatalf("%v: degree rows differ from Degree", m)
	}
	if !slices.Equal(tab.neighbor, neighbor) {
		t.Fatalf("%v: neighbour rows differ from Neighbor", m)
	}
}

// TestTablesMatchPerNodeDefinition checks the odometer-built rows against
// the per-node definition for every node and direction, over dimensions 1–4
// and sides 2–7, mesh and torus — the side-2 torus included, where "+" and
// "−" on an axis reach the same neighbour (NewTorus refuses that side; the
// table builder does not care).
func TestTablesMatchPerNodeDefinition(t *testing.T) {
	for dim := 1; dim <= 4; dim++ {
		for side := 2; side <= 7; side++ {
			for _, wrap := range []bool{false, true} {
				m, err := build(dim, side, wrap)
				if err != nil {
					t.Fatal(err)
				}
				tab := buildTables(m)
				checkTableRows(t, m, tab)
				if wrap && side == 2 {
					for id := 0; id < m.Size(); id++ {
						for a := 0; a < dim; a++ {
							if p, q := tab.neighbor[id*2*dim+2*a], tab.neighbor[id*2*dim+2*a+1]; p != q || p < 0 {
								t.Fatalf("%v: node %d axis %d: + reaches %d, - reaches %d", m, id, a, p, q)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkTables times one table build — what every engine, every dshard
// worker ASSIGN and every recovery pays before its first step — at the
// benchmark grid, a large-grid size and a 3-dimensional one. The first
// build of each is checked against the per-node definition.
func BenchmarkTables(b *testing.B) {
	for _, m := range []*Mesh{MustNewTorus(2, 64), MustNewTorus(2, 512), MustNew(3, 64)} {
		b.Run(m.String(), func(b *testing.B) {
			checkTableRows(b, m, buildTables(m))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildTables(m)
			}
		})
	}
}
