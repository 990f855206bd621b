//go:build race

package realbench

// The race detector's instrumentation allocates on the call path, so the
// allocation budgets only hold in a normal build.
func init() { raceEnabled = true }
