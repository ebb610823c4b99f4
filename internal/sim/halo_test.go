package sim

import (
	"testing"
	"unsafe"
)

// TestNodeRouterCacheLinePadding: routers of adjacent shards are allocated
// back to back, so the struct must fill whole cache lines (and the 256-byte
// size class) or one shard's per-node writes land on the line its neighbour
// reads every RouteNode. Adding a field may shrink the tail pad; it may not
// break the multiple.
func TestNodeRouterCacheLinePadding(t *testing.T) {
	if size := unsafe.Sizeof(NodeRouter{}); size%64 != 0 || size < 256 {
		t.Fatalf("sizeof(NodeRouter) = %d, want a multiple of 64 and >= 256 (adjust the tail pad)", size)
	}
}
