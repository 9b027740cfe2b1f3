// Package parallel is the simulation layer's execution engine: ordered
// fan-out/fan-in over independent tasks. Results are always merged in
// task-index order, so a computation that is deterministic per task is
// deterministic — byte-identical — at every worker count, including 1.
//
// The determinism contract callers must uphold: a task may not draw
// from shared mutable state (in particular, a shared PRNG). Tasks that
// need randomness derive an independent stream with workload.Fork and
// the task index; any remaining shared draws, and every metric, stay on
// a sequential path outside the fan-out that walks the results in task
// order (see cluster.Fleet.Tick for the pattern).
package parallel

import "runtime"

// Workers resolves a worker-count setting: values <= 0 mean "one per
// available CPU"; the result is never larger than n (no idle spawns)
// and never smaller than 1.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(i) for every i in [0, n) across at most workers
// goroutines and returns the results in index order. Tasks are handed
// out dynamically (an atomic cursor), so uneven task costs balance;
// the index-ordered result slice makes the merge deterministic anyway.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible tasks. All tasks run to completion; if
// any fail, the error of the lowest-indexed failing task is returned
// (deterministic regardless of scheduling).
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines and waits for all of them.
func ForEach(workers, n int, fn func(i int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
}

// ForEachShard splits [0, n) into one contiguous shard per worker and
// runs fn(lo, hi) for each. Sharding beats per-index dispatch when the
// per-item work is tiny and uniform (e.g. one fleet server per item):
// the per-tick cost is workers goroutine handoffs, not n.
func ForEachShard(workers, n int, fn func(lo, hi int)) {
	workers = Workers(workers, n)
	if workers == 1 {
		fn(0, n)
		return
	}
	per := (n + workers - 1) / workers
	done := make(chan struct{})
	launched := 0
	for lo := 0; lo < n; lo += per {
		hi := lo + per
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			fn(lo, hi)
			done <- struct{}{}
		}(lo, hi)
		launched++
	}
	for i := 0; i < launched; i++ {
		<-done
	}
}
