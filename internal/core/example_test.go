package core_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
)

// ExampleAnalyze runs the complete framework on a small two-phase
// program and prints the selected distribution and the pricing-cache
// hit rate.
func ExampleAnalyze() {
	src := `
program demo
  parameter (n = 64)
  real a(n,n), b(n,n)
  do j = 1, n
    do i = 1, n
      a(i,j) = b(i,j) + 1.0
    end do
  end do
  do j = 1, n
    do i = 1, n
      b(i,j) = a(i,j) * 0.5
    end do
  end do
end
`
	res, err := core.Analyze(context.Background(), core.Input{Source: src}, core.Options{Procs: 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dynamic:", res.Dynamic)
	fmt.Println("dist a:", res.Phases[0].ChosenLayout().ArrayKey("a"))
	fmt.Printf("pricing lookups: %d\n", res.Cache.Pricing.Hits+res.Cache.Pricing.Misses)
	// Output:
	// dynamic: false
	// dist a: a(BLOCK/8@0,*)
	// pricing lookups: 4
}
