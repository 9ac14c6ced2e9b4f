package fixture

// Add keeps the hotpath promise: trivially inlinable.
//
//emlint:hotpath
func Add(a, b int) int { return a + b }

// Dot holds both contracts at once; inlinecheck reads only the hotpath
// one.
//
//emlint:zeroalloc
//emlint:hotpath
func Dot(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}
