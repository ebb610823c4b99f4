//go:build race

package checkpoint

// raceEnabled tells the allocation checks that the race detector is on: it
// makes sync.Pool drop a random share of what is put back, so the pooled
// buffer's refills land at random.
const raceEnabled = true
