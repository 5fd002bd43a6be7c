package bench

import (
	"math/rand"
	"sync"
	"time"
)

// Schedule returns the send times, as offsets from the start, of an open
// loop at rate requests per second over d: Poisson arrivals (independent
// users) drawn from seed, so a seed always yields the same schedule.
func Schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// OpenLoop sends request i of the schedule when it is due, whether or not
// earlier requests have completed, over conns connections: a request due
// while every connection is busy waits for the first free one, and that
// wait counts in its latency, which send measures from due. Nothing is
// retried. OpenLoop returns once every request has completed, with how
// late the generator itself handed out each request.
func OpenLoop(sched []time.Duration, conns int, send func(conn, i int, due time.Time)) (start time.Time, late []time.Duration) {
	late = make([]time.Duration, len(sched))
	// Buffered to the schedule's length: the generator never blocks on busy
	// connections, so its lateness measures only itself.
	ch := make(chan int, len(sched))
	start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range ch {
				send(c, i, start.Add(sched[i]))
			}
		}(c)
	}
	for i, off := range sched {
		due := start.Add(off)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late[i] = time.Since(due)
		ch <- i
	}
	close(ch)
	wg.Wait()
	return start, late
}
