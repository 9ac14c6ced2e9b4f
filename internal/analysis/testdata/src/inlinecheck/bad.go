// Package fixture exercises the inlinecheck analyzer: an //emlint:hotpath
// function the compiler refuses to inline. The package is built with
// -gcflags=-m=2 by the analyzer itself, so it must compile standalone.
package fixture

// Busy promises inlinability but its body exceeds the inlining budget.
//
//emlint:hotpath
func Busy(a, b, c, d int) int { // want inlinecheck
	x := a*b + c*d
	y := a*c + b*d
	z := a*d + b*c
	x = x*y + z
	y = y*z + x
	z = z*x + y
	x = x ^ y ^ z
	y = y ^ z ^ x
	z = z ^ x ^ y
	x = x*31 + y*37 + z*41
	y = y*31 + z*37 + x*41
	z = z*31 + x*37 + y*41
	x = x<<3 | y>>2
	y = y<<3 | z>>2
	z = z<<3 | x>>2
	x = x*y + z*7
	y = y*z + x*11
	z = z*x + y*13
	return x + y + z
}
