// Package fixture exercises the staleallow audit: an //emlint:allow
// directive whose check reports nothing in its range is dead weight and
// is itself diagnosed — at the directive's own line. So is a directive
// naming a check the suite does not have (a typo, or what a deleted
// analyzer leaves behind): it could never suppress anything.
package fixture

import "sync"

//emlint:allow errdrop -- stale: nothing below drops an error // want staleallow
func quiet() int {
	return 1
}

func alsoQuiet(mu *sync.Mutex) {
	mu.Lock()
	//emlint:allow locksafety -- stale: the unlock below is unconditional // want staleallow
	mu.Unlock()
}

//emlint:allow nosuchcheck -- names no check of the suite // want staleallow
func misnamed() int {
	return 2
}
