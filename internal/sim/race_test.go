//go:build race

package sim

// raceEnabled reports a -race build, whose sync.Pool drops items at random
// and so defeats allocation counts.
const raceEnabled = true
