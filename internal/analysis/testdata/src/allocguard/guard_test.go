package fixture

import "testing"

func TestGuardedAllocs(t *testing.T) {
	xs := []int{1, 2, 3}
	_ = WarmedOnly(xs)
	if n := testing.AllocsPerRun(100, func() { _ = Guarded(xs) }); n != 0 {
		t.Fatalf("Guarded allocates: %v allocs/run", n)
	}
}
