//go:build !race

package dshard_test

const raceEnabled = false
