package layout

// CheckAgainstBaseline lets the corpus test (package layout_test, which
// may import the packages that build candidate spaces) run the oracle.
var CheckAgainstBaseline = checkAgainstBaseline
