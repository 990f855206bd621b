//go:build race

package fireflyrpc

// The race detector's instrumentation allocates on the call path, so the
// fast-path allocation budgets only hold in a normal build.
func init() { raceEnabled = true }
