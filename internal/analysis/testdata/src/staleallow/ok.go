package fixture

// pairs carries a directive that suppresses a real hotalloc diagnostic
// every run — it earns its keep and is never reported stale.
//
//emlint:allow hotalloc -- fixture demo: the pair count is data-dependent
func pairs(ls, rs []int) []int {
	var out []int
	for _, l := range ls {
		for _, r := range rs {
			out = append(out, l+r)
		}
	}
	return out
}
