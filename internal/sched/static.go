package sched

import "sync"

// StaticFor mimics an OpenMP "schedule(static)" parallel for: the index
// range [lo, hi) is split into min(nthreads, hi-lo) contiguous chunks of
// (almost) equal length (StaticChunks), chunk t executed by its own
// goroutine as thread t, with an implicit barrier at the end. There is no load balancing: a thread whose chunk holds the heavy
// items finishes last while the others idle — exactly the behaviour that
// makes the paper's OpenMP curve trail the TBB curve in Figure 3 on skewed
// rating data.
func StaticFor(nthreads, lo, hi int, body func(thread, lo, hi int)) {
	if hi <= lo {
		return // StaticChunks would give every thread an empty range
	}
	b := StaticChunks(nthreads, lo, hi)
	var wg sync.WaitGroup
	for t := range len(b) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(t, b[t], b[t+1])
		}()
	}
	wg.Wait()
}

// StaticChunks returns the chunk boundaries StaticFor uses:
// boundaries[t] .. boundaries[t+1] is thread t's range. Exposed so the
// discrete-event simulator can replay the exact same decomposition.
func StaticChunks(nthreads, lo, hi int) []int {
	if nthreads < 1 {
		nthreads = 1
	}
	n := hi - lo
	if n < 0 {
		n = 0
	}
	if nthreads > n && n > 0 {
		nthreads = n
	}
	b := make([]int, nthreads+1)
	chunk, rem := 0, 0
	if nthreads > 0 {
		chunk = n / nthreads
		rem = n % nthreads
	}
	b[0] = lo
	for t := 0; t < nthreads; t++ {
		sz := chunk
		if t < rem {
			sz++
		}
		b[t+1] = b[t] + sz
	}
	return b
}
