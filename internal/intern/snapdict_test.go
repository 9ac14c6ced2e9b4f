package intern

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// TestSnapDictMatchesDict drives a SnapDict and a Dict with the same random
// token stream and checks that interning, lookups through a fresh view, and
// ephemeral set construction agree exactly.
func TestSnapDictMatchesDict(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDict()
		sd := NewSnapDict()
		vocab := make([]string, 200)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("tok%03d", rng.Intn(300))
		}
		for _, tok := range vocab {
			if d.Intern(tok) != sd.Intern(tok) {
				return false
			}
		}
		if d.Len() != sd.Len() {
			return false
		}
		v := sd.View()
		if int(v.n) != d.Len() {
			return false
		}
		for i := 0; i < 100; i++ {
			tok := fmt.Sprintf("tok%03d", rng.Intn(600)) // half unknown
			wantID, wantOK := d.Lookup(tok)
			gotID, gotOK := v.Lookup(tok)
			if wantOK != gotOK || (wantOK && wantID != gotID) {
				return false
			}
		}
		for i := 0; i < 20; i++ {
			q := make([]string, rng.Intn(12))
			for j := range q {
				q[j] = fmt.Sprintf("tok%03d", rng.Intn(600))
			}
			if !reflect.DeepEqual(d.SortedSetEphemeral(q), v.SortedSetEphemeral(q)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapDictViewFrozen checks that a view keeps answering from its capture
// point: tokens interned after the capture stay unknown even though they are
// in the shared table.
func TestSnapDictViewFrozen(t *testing.T) {
	sd := NewSnapDict()
	sd.Intern("a")
	sd.Intern("b")
	v := sd.View()
	sd.Intern("c")
	if id, ok := v.Lookup("b"); !ok || id != 1 {
		t.Fatalf("Lookup(b) = %d,%v, want 1,true", id, ok)
	}
	if _, ok := v.Lookup("c"); ok {
		t.Fatal("view resolved a token interned after capture")
	}
	// Ephemeral IDs start at the view's n, not the dict's current size.
	got := v.SortedSetEphemeral([]string{"c", "a"})
	want := []uint32{0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortedSetEphemeral = %v, want %v", got, want)
	}
	if _, ok := sd.View().Lookup("c"); !ok {
		t.Fatal("fresh view missing token c")
	}
}

// TestSnapDictGrowth forces several table doublings and checks every token
// still resolves through old and new views.
func TestSnapDictGrowth(t *testing.T) {
	sd := NewSnapDict()
	const n = 10_000
	early := View{}
	for i := 0; i < n; i++ {
		sd.Intern(fmt.Sprintf("tok-%d", i))
		if i == 99 {
			early = sd.View()
		}
	}
	v := sd.View()
	if int(v.n) != n {
		t.Fatalf("view resolves %d tokens, want %d", v.n, n)
	}
	for i := 0; i < n; i++ {
		tok := fmt.Sprintf("tok-%d", i)
		if id, ok := v.Lookup(tok); !ok || id != uint32(i) {
			t.Fatalf("Lookup(%q) = %d,%v, want %d,true", tok, id, ok, i)
		}
		wantOK := i < 100
		if _, ok := early.Lookup(tok); ok != wantOK {
			t.Fatalf("early.Lookup(%q) ok = %v, want %v", tok, ok, wantOK)
		}
	}
}

// TestSnapDictZeroAllocKernels pins the //emlint:zeroalloc contract on the
// view read path.
func TestSnapDictZeroAllocKernels(t *testing.T) {
	sd := NewSnapDict()
	for i := 0; i < 100; i++ {
		sd.Intern(fmt.Sprintf("tok-%d", i))
	}
	v := sd.View()
	if allocs := testing.AllocsPerRun(100, func() {
		_ = hashToken("tok-42")
		if _, ok := v.Lookup("tok-42"); !ok {
			t.Error("tok-42 should resolve")
		}
		if _, ok := v.Lookup("no-such-token"); ok {
			t.Error("unexpected hit")
		}
	}); allocs != 0 {
		t.Fatalf("view read path allocs = %v, want 0", allocs)
	}
}

// TestSnapDictConcurrentReaders hammers views from several goroutines while
// the single writer keeps interning (and therefore growing the table). Run
// with -race this is the memory-model check for the lock-free read path.
func TestSnapDictConcurrentReaders(t *testing.T) {
	sd := NewSnapDict()
	const total = 5_000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := sd.View()
				n := int(v.n)
				// Every token below the capture point must resolve to its
				// dense ID; a token at or above it must be unknown.
				for probe := 0; probe < 32; probe++ {
					i := rng.Intn(total)
					id, ok := v.Lookup(fmt.Sprintf("tok-%d", i))
					if i < n {
						if !ok || id != uint32(i) {
							t.Errorf("view(n=%d): Lookup(tok-%d) = %d,%v", n, i, id, ok)
							return
						}
					} else if ok {
						t.Errorf("view(n=%d): resolved future token tok-%d", n, i)
						return
					}
				}
			}
		}(r)
	}
	for i := 0; i < total; i++ {
		sd.Intern(fmt.Sprintf("tok-%d", i))
	}
	close(stop)
	wg.Wait()
}
