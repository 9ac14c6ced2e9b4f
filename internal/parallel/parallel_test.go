package parallel

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(4); got != 4 {
		t.Fatalf("Resolve(4) = %d", got)
	}
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 500
		counts := make([]atomic.Int64, n)
		if err := ForEach(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(4, -5, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestForEachErrorPropagation(t *testing.T) {
	want := errors.New("boom")
	err := ForEach(4, 100, func(i int) error {
		if i == 13 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
	// Serial path returns the same error.
	if err := ForEach(1, 100, func(i int) error {
		if i == 13 {
			return want
		}
		return nil
	}); !errors.Is(err, want) {
		t.Fatalf("serial: got %v", err)
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	// Every call fails; the reported error must be from the lowest index
	// among those executed, and index 0 always executes before any worker
	// can observe a failure flag set by a later index... not guaranteed —
	// what is guaranteed is that the returned error is one of the injected
	// ones and carries the smallest failing index the pool observed.
	err := ForEach(8, 64, func(i int) error { return fmt.Errorf("fail-%d", i) })
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out, err := Map(workers, 1000, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1000 {
			t.Fatalf("len = %d", len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if out != nil {
		t.Fatal("partial results must be discarded on error")
	}
}

func TestChunks(t *testing.T) {
	cases := []struct{ n, parts int }{
		{10, 3}, {1, 8}, {0, 4}, {100, 1}, {7, 7}, {5, 100}, {9, -1},
	}
	for _, c := range cases {
		chunks := Chunks(c.n, c.parts)
		covered := 0
		prev := 0
		for _, ch := range chunks {
			if ch[0] != prev {
				t.Fatalf("Chunks(%d,%d): gap at %v", c.n, c.parts, ch)
			}
			if ch[1] <= ch[0] {
				t.Fatalf("Chunks(%d,%d): empty chunk %v", c.n, c.parts, ch)
			}
			covered += ch[1] - ch[0]
			prev = ch[1]
		}
		want := c.n
		if want < 0 {
			want = 0
		}
		if covered != want {
			t.Fatalf("Chunks(%d,%d) covers %d", c.n, c.parts, covered)
		}
	}
}

func TestMapChunksConcatenationMatchesSerial(t *testing.T) {
	n := 237
	for _, workers := range []int{1, 2, 5, 32} {
		parts, err := MapChunks(workers, n, func(lo, hi int) ([]int, error) {
			var out []int
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var all []int
		for _, p := range parts {
			all = append(all, p...)
		}
		if len(all) != n {
			t.Fatalf("workers=%d: got %d items", workers, len(all))
		}
		for i, v := range all {
			if v != i {
				t.Fatalf("workers=%d: position %d holds %d", workers, i, v)
			}
		}
	}
}

func TestForEachShardIdentity(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		n := 500
		seen := make([]atomic.Int32, n)
		var badShard atomic.Bool
		if err := ForEachShard(workers, n, func(shard, i int) error {
			if shard < 0 || shard >= workers {
				badShard.Store(true)
			}
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if badShard.Load() {
			t.Fatalf("workers=%d: shard index out of [0,%d)", workers, workers)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, seen[i].Load())
			}
		}
	}
}

// TestForEachShardScratchIsolation exercises the per-worker scratch
// pattern: one buffer per shard, never shared across concurrently running
// tasks.
func TestForEachShardScratchIsolation(t *testing.T) {
	workers := 4
	scratch := make([][]int, workers)
	for w := range scratch {
		scratch[w] = make([]int, 1)
	}
	var total atomic.Int64
	if err := ForEachShard(workers, 1000, func(shard, i int) error {
		scratch[shard][0] = i // would race if shards shared scratch
		total.Add(int64(scratch[shard][0]))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 1000*999/2 {
		t.Fatalf("scratch-mediated sum = %d, want %d", total.Load(), 1000*999/2)
	}
}

func TestMapChunksMinBoundsChunkCount(t *testing.T) {
	countChunks := func(workers, n, minWork int) int {
		parts, err := MapChunksMin(workers, n, minWork, func(lo, hi int) (int, error) {
			if hi-lo <= 0 {
				t.Fatalf("empty chunk [%d,%d)", lo, hi)
			}
			return hi - lo, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, c := range parts {
			covered += c
		}
		if covered != n {
			t.Fatalf("chunks cover %d of %d", covered, n)
		}
		return len(parts)
	}
	if got := countChunks(8, 1000, 100); got > 8 {
		t.Fatalf("big input made %d chunks, want <= 8", got)
	}
	if got := countChunks(8, 250, 100); got > 2 {
		t.Fatalf("n=250 minWork=100 made %d chunks, want <= 2", got)
	}
	if got := countChunks(8, 50, 100); got != 1 {
		t.Fatalf("tiny input made %d chunks, want 1", got)
	}
}

func TestConcatMatchesAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ parts, maxLen int }{
		{0, 0}, {1, 5}, {3, 7}, {17, 4000}, {64, 1200},
	} {
		parts := make([][]int, tc.parts)
		var want []int
		for p := range parts {
			m := rng.Intn(tc.maxLen + 1)
			parts[p] = make([]int, m)
			for k := range parts[p] {
				parts[p][k] = rng.Int()
			}
			want = append(want, parts[p]...)
		}
		for _, workers := range []int{1, 4} {
			got := Concat(workers, parts)
			if len(got) != len(want) {
				t.Fatalf("parts=%d workers=%d: len %d want %d", tc.parts, workers, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("parts=%d workers=%d: position %d differs", tc.parts, workers, i)
				}
			}
		}
	}
}
