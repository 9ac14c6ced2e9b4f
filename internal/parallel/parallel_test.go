package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	// Every call fails; only items past a failure may be skipped, so index
	// 0 always runs and its error is the one returned, as serially.
	for _, workers := range []int{1, 8} {
		err := ForEach(workers, 64, func(i int) error { return fmt.Errorf("fail-%d", i) })
		if err == nil || err.Error() != "fail-0" {
			t.Fatalf("workers=%d: got %v, want fail-0", workers, err)
		}
	}
}

// TestChunks: chunks cover [0, n) in order, every chunk but the last is
// size long, shard stays below the worker count, and n <= 0 and size <= 0
// are handled.
func TestChunks(t *testing.T) {
	for _, c := range []struct{ workers, n, size int }{
		{1, 237, 10}, {2, 237, 10}, {5, 237, 1}, {32, 237, 64}, {4, 7, 100}, {3, 9, 0}, {3, 9, -2},
	} {
		var badShard atomic.Bool
		chunks, err := Chunks(c.workers, c.n, c.size, func(shard, lo, hi int) ([2]int, error) {
			if shard < 0 || shard >= c.workers {
				badShard.Store(true)
			}
			return [2]int{lo, hi}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if badShard.Load() {
			t.Fatalf("%+v: shard index out of [0,%d)", c, c.workers)
		}
		size, prev := max(c.size, 1), 0
		for k, ch := range chunks {
			if ch[0] != prev || ch[1] <= ch[0] || (k < len(chunks)-1 && ch[1]-ch[0] != size) {
				t.Fatalf("%+v: chunk %d is %v after %d", c, k, ch, prev)
			}
			prev = ch[1]
		}
		if prev != c.n {
			t.Fatalf("%+v: chunks cover [0, %d)", c, prev)
		}
	}
	for _, n := range []int{0, -5} {
		out, err := Chunks(4, n, 8, func(_, _, _ int) (int, error) {
			t.Fatal("fn called for an empty range")
			return 0, nil
		})
		if out != nil || err != nil {
			t.Fatalf("n=%d: %v, %v", n, out, err)
		}
	}
}

func TestChunksResultOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out, err := Chunks(workers, 1000, 7, func(_, lo, _ int) (int, error) { return lo * lo, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != (1000+6)/7 {
			t.Fatalf("len = %d", len(out))
		}
		for c, v := range out {
			if v != (c*7)*(c*7) {
				t.Fatalf("workers=%d: out[%d] = %d", workers, c, v)
			}
		}
	}
}

// TestChunksError: the lowest failing chunk's error wins, as serially, and
// the results are discarded.
func TestChunksError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out, err := Chunks(workers, 100, 10, func(_, lo, _ int) (int, error) {
			if lo >= 30 {
				return 0, fmt.Errorf("chunk at %d", lo)
			}
			return lo, nil
		})
		if out != nil || err == nil || err.Error() != "chunk at 30" {
			t.Fatalf("workers=%d: %v, %v; want nil, chunk at 30", workers, out, err)
		}
	}
}

func TestChunksConcatenationMatchesSerial(t *testing.T) {
	n := 237
	for _, workers := range []int{1, 2, 5, 32} {
		parts, err := Chunks(workers, n, 16, func(_, lo, hi int) ([]int, error) {
			var out []int
			for i := lo; i < hi; i++ {
				out = append(out, i)
			}
			return out, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		all := slices.Concat(parts...)
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

// TestChunksSizeBoundsChunkCount: size alone fixes the chunk count, and an
// input of at most one chunk is one call on shard 0.
func TestChunksSizeBoundsChunkCount(t *testing.T) {
	for _, c := range []struct{ workers, n, size, want int }{
		{8, 1000, 100, 10}, {8, 250, 100, 3}, {8, 50, 100, 1}, {8, 100, 100, 1}, {1, 1000, 128, 8},
	} {
		var calls, nonZeroShard atomic.Int64
		parts, err := Chunks(c.workers, c.n, c.size, func(shard, lo, hi int) (int, error) {
			calls.Add(1)
			if shard != 0 {
				nonZeroShard.Add(1)
			}
			return hi - lo, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != c.want || int(calls.Load()) != c.want {
			t.Fatalf("%+v: %d chunks from %d calls", c, len(parts), calls.Load())
		}
		if c.want == 1 && nonZeroShard.Load() != 0 {
			t.Fatalf("%+v: a one-chunk input ran off shard 0", c)
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
