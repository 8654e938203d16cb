package fortran

// The oracle checks of oracle_test.go, for the corpus test in package
// fortran_test (which needs pcfg and programs, both importers of this
// package).
var (
	CheckFrontEndAgainstBaseline = checkFrontEndAgainstBaseline
	CheckAffineAgainstBaseline   = checkAffineAgainstBaseline
)
