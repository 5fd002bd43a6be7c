package bench

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	a := Schedule(7, 200, 2*time.Second)
	b := Schedule(7, 200, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different schedules")
	}
	if c := Schedule(8, 200, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson at 200/s over 2 s: 400 arrivals expected, sd 20.
	if n := len(a); math.Abs(float64(n)-400) > 100 {
		t.Fatalf("%d arrivals, want about 400", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v out of order or beyond the window", i, a[i])
		}
	}
}

func TestOpenLoopSendsEveryRequestOnceWithoutWaitingForReplies(t *testing.T) {
	sched := Schedule(1, 500, 200*time.Millisecond)
	var sent atomic.Int64
	seen := make([]atomic.Bool, len(sched))
	start := time.Now()
	_, late := OpenLoop(sched, 2, func(conn, i int, due time.Time) {
		if seen[i].Swap(true) {
			t.Errorf("request %d sent twice", i)
		}
		if conn < 0 || conn > 1 {
			t.Errorf("connection %d out of range", conn)
		}
		sent.Add(1)
		time.Sleep(5 * time.Millisecond) // a slow server
	})
	if int(sent.Load()) != len(sched) || len(late) != len(sched) {
		t.Fatalf("sent %d of %d", sent.Load(), len(sched))
	}
	// 100 requests at 5 ms over 2 connections need 250 ms of service; the
	// generator itself keeps to the 200 ms schedule regardless.
	if el := time.Since(start); el < 240*time.Millisecond {
		t.Fatalf("finished in %v: requests were dropped or not serialized per connection", el)
	}
	if m := Median(durMs(late)); m > 20 {
		t.Fatalf("generator median lateness %.1f ms: it waited for replies", m)
	}
}

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
