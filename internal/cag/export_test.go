package cag

import "testing"

// CheckAgainstBaseline runs the conflict oracle of baseline_test.go on
// g for a d-dimensional template, resolving g when it is not settled by
// the conflict-free path, and reports whether g has a conflict.
func CheckAgainstBaseline(t *testing.T, g *Graph, d int) bool {
	t.Helper()
	return checkAgainstBaseline(t, g, d, true).conflict
}
