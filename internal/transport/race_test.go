//go:build race

package transport

// The race detector drops pooled objects at random and its instrumentation
// allocates, so allocation budgets only hold in a normal build.
func init() { raceEnabled = true }
