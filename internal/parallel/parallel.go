// Package parallel is the one fan-out substrate of the reproduction: a
// bounded worker pool whose workers claim items (ForEach, ForEachShard) or
// fixed-size chunks of items (Chunks). Every hot path that fans out —
// forest training, cross-validation folds, the joins, the blockers,
// feature extraction — goes through it, so the Workers knob means the same
// everywhere (0 means GOMAXPROCS) and results land by input index: a run
// at Workers=8 is bit-identical to the same run at Workers=1.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve returns the effective worker count for a Workers knob: the knob
// itself when positive, otherwise GOMAXPROCS. This is the single place the
// "0 means GOMAXPROCS" convention is defined.
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines (0 means GOMAXPROCS). Items are claimed dynamically, so
// uneven per-item cost balances across workers. If any call fails, ForEach
// returns the error of the lowest failing index, as the serial loop would;
// items after a failure may be skipped, so callers must treat a non-nil
// error as "output undefined".
//
// workers == 1 and n == 1 short-circuit to a plain loop: no goroutine,
// channel, or WaitGroup is set up, so wrapping tiny inputs in ForEach
// costs nothing over writing the loop by hand.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachShard(workers, n, func(_, i int) error { return fn(i) })
}

// ForEachShard is ForEach with a worker identity: fn(shard, i) receives
// the stable index of the worker goroutine running it (0 <= shard <
// effective workers, always 0 on the serial path). Call sites use it to
// reuse per-worker scratch — allocate one scratch per shard up front,
// index it with shard inside fn — instead of allocating per task or
// falling back to a sync.Pool.
func ForEachShard(workers, n int, fn func(shard, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	// failed is the lowest failing index so far (n while none). Only items
	// past it are skipped, so the lowest failing index always runs.
	var (
		next, failed atomic.Int64
		mu           sync.Mutex
		first        error
		wg           sync.WaitGroup
	)
	failed.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i > failed.Load() {
					return
				}
				if err := fn(shard, int(i)); err != nil {
					mu.Lock()
					if i < failed.Load() {
						failed.Store(i)
						first = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

// Chunks cuts [0, n) into consecutive chunks of size items (the last may
// be shorter), runs fn(shard, lo, hi) on each through ForEachShard and
// returns the results in chunk order, so concatenating them reproduces the
// serial scan. size is the call site's chunk size and its cost gate at
// once: an input of at most one chunk runs serially, with no goroutine
// started. A size below 1 is taken as 1. On error the results are
// discarded and the lowest failing chunk's error is returned.
func Chunks[T any](workers, n, size int, fn func(shard, lo, hi int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	size = max(size, 1)
	out := make([]T, (n+size-1)/size)
	if err := ForEachShard(workers, len(out), func(shard, c int) (err error) {
		out[c], err = fn(shard, c*size, min(n, (c+1)*size))
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}
