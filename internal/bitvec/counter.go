package bitvec

// Counter is the one per-probe overlap counter: for a probe — a query, a
// join's left row — it counts how many of the probe's lists each ID of a
// dense space [0, n) is on. Beside the dense counts it keeps the IDs the
// probe touched, so ending a probe clears those entries, not all n. The
// zero value is ready for Reset; a Counter is one goroutine's scratch.
type Counter struct {
	counts  []int32
	touched []uint32 // IDs with a non-zero count, in first-touch order
	// A new ID writes touched's header, so the pad keeps the counters of
	// a per-worker slice off each other's cache lines.
	_ [64]byte
}

// Reset starts a probe over IDs [0, n). Every count is zero afterwards,
// whatever space the counter served before.
func (c *Counter) Reset(n int) {
	for _, id := range c.touched {
		c.counts[id] = 0
	}
	c.touched = c.touched[:0]
	if cap(c.counts) < n {
		c.counts = make([]int32, n)
	}
	c.counts = c.counts[:n]
}

// AddPostings counts every member of p in [lo, hi) once.
//
//emlint:zeroalloc
func (c *Counter) AddPostings(p *Postings, lo, hi uint32) {
	p.ForEachIn(lo, hi, func(id uint32) bool {
		// Add's body written out: calling Add costs serve's candidate
		// kernel 10–20 % on a 12 000-record corpus.
		if c.counts[id] == 0 {
			c.touched = append(c.touched, id)
		}
		c.counts[id]++
		return true
	})
}

// Add counts id once and returns its count in this probe so far.
//
//emlint:zeroalloc
//emlint:hotpath
func (c *Counter) Add(id uint32) int32 {
	if c.counts[id] == 0 {
		c.touched = append(c.touched, id)
	}
	c.counts[id]++
	return c.counts[id]
}

// Counts returns the IDs this probe counted, in first-touch order, and the
// dense counts to read them in. Both are the counter's own until the probe
// ends.
//
//emlint:zeroalloc
//emlint:hotpath
func (c *Counter) Counts() (touched []uint32, counts []int32) { return c.touched, c.counts }

// AtLeast appends to dst the IDs counted at least k times, in first-touch
// order, and ends the probe as Reset does.
//
//emlint:zeroalloc
func (c *Counter) AtLeast(k int32, dst []uint32) []uint32 {
	for _, id := range c.touched {
		if c.counts[id] >= k {
			dst = append(dst, id)
		}
		c.counts[id] = 0
	}
	c.touched = c.touched[:0]
	return dst
}
