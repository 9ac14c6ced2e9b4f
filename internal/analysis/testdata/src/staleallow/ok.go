package fixture

import "os"

// cleanup carries a directive that suppresses a real errdrop diagnostic
// every run — it earns its keep and is never reported stale.
//
//emlint:allow errdrop -- fixture demo: best-effort cleanup of a scratch file
func cleanup(name string) {
	os.Remove(name)
}
