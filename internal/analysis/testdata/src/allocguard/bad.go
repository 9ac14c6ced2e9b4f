// Package fixture exercises the allocguard analyzer: zeroalloc contracts
// with and without a testing.AllocsPerRun guard that measures them.
package fixture

// Unguarded carries the contract but no test pins it.
//
//emlint:zeroalloc
func Unguarded(xs []int) int { // want allocguard
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// WarmedOnly is called by the guard test, but outside its measured
// closure: nothing measures it.
//
//emlint:zeroalloc
func WarmedOnly(xs []int) int { // want allocguard
	return len(xs)
}
