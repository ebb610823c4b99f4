//go:build race

package shard

// raceEnabled tells the allocation tests that the race detector's own
// allocations are in the count.
const raceEnabled = true
