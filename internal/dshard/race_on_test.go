//go:build race

package dshard_test

// raceEnabled tells the allocation budget that the race detector's own
// allocations are in the count.
const raceEnabled = true
