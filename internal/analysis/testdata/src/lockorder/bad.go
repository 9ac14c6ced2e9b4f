// Package fixture exercises the lockorder analyzer: two code paths that
// acquire the same pair of locks in opposite orders, directly and through
// a call resolved by the program graph.
package fixture

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }
type p struct{ mu sync.Mutex }
type q struct{ mu sync.Mutex }

// abOrder takes a.mu then b.mu.
func abOrder(x *a, y *b) {
	x.mu.Lock()
	y.mu.Lock() // want lockorder
	y.mu.Unlock()
	x.mu.Unlock()
}

// baOrder takes the same pair the other way around — the deadlock half.
func baOrder(x *a, y *b) {
	y.mu.Lock()
	x.mu.Lock() // want lockorder
	x.mu.Unlock()
	y.mu.Unlock()
}

// lockB acquires b.mu; callers holding a.mu inherit the ordering.
func lockB(y *b) {
	y.mu.Lock()
	defer y.mu.Unlock()
}

// viaCall reaches b.mu through lockB while holding a.mu.
func viaCall(x *a, y *b) {
	x.mu.Lock()
	lockB(y) // want lockorder
	x.mu.Unlock()
}

// pqDeferred takes p.mu then q.mu in the idiomatic form: a deferred unlock
// runs at return, so p.mu is still held at the second acquire.
func pqDeferred(x *p, y *q) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock() // want lockorder
	defer y.mu.Unlock()
}

// qpDeferred is the opposite order in the same form.
func qpDeferred(x *p, y *q) {
	y.mu.Lock()
	defer y.mu.Unlock()
	x.mu.Lock() // want lockorder
	defer x.mu.Unlock()
}
