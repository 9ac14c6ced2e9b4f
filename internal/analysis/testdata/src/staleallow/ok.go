package fixture

// spawns carries a directive that suppresses a real nogoroutine
// diagnostic every run — it earns its keep and is never reported stale.
//
//emlint:allow nogoroutine -- fixture demo: daemon loop outside the parallel package
func spawns() {
	go quiet()
}
