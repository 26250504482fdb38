package uniint_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"uniint/internal/metrics"
	"uniint/internal/sched"
	"uniint/internal/toolkit"
	"uniint/internal/uniserver"
	"uniint/internal/workload"
)

// BenchmarkSessionFootprint measures what one idle edge session COSTS: the
// heap bytes and goroutines a fleet of handshaked-and-silent sessions adds,
// divided per session. These are the budgeted event runtime's headline
// numbers — bytes/session is dominated by the wire model's shadow
// framebuffer (w·h·4), goroutines/session is pinned at zero by the CI
// baseline (any per-session goroutine anywhere in the attach path fails the
// gate, since the baseline admits no headroom above 0). parked-bytes/session
// is what the same fleet costs once disconnected: lot_parked_bytes ÷
// session_parked over a parked fleet, measured once outside the timed
// loop. A parked session holds its bookkeeping only, not a framebuffer,
// so its ceiling is a few hundred bytes.
// goroutineFlickerSlack is the absolute goroutine-count noise one sample
// may carry (see the delta computation below).
const goroutineFlickerSlack = 8

func BenchmarkSessionFootprint(b *testing.B) {
	const fleet = 256
	display := toolkit.NewDisplay(64, 48)
	pool := sched.NewPool(4)
	defer pool.Close()
	srv := uniserver.New(display, "footprint", uniserver.WithPool(pool), uniserver.WithParkTTL(0))
	defer srv.Close()
	attach := func(conn net.Conn) error { return srv.AttachEdge(conn, nil) }

	// Warm the process shape outside the measurement: one attach/detach
	// cycle starts the shared wheel driver and fills the scratch pools.
	warm, err := workload.IdleFleet(1, attach)
	if err != nil {
		b.Fatal(err)
	}
	warm[0].Close()
	waitRetired(b, srv)

	var bytesPer, goroutinesPer float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g0 := settledGoroutines()
		h0 := heapInUse()
		clients, err := workload.IdleFleet(fleet, attach)
		if err != nil {
			b.Fatal(err)
		}
		g1 := settledGoroutines()
		h1 := heapInUse()
		bytesPer += float64(int64(h1)-int64(h0)) / fleet
		// A couple of transient goroutines (a runtime timer mid-exit, GC
		// background work waking) can flicker into a sample. That noise is
		// absolute, not per-session, so the delta forgives a fixed few —
		// two orders of magnitude below the one-goroutine-per-session
		// signal (fleet goroutines) the gate exists to catch. Only with
		// this slack is the metric deterministically zero, which is what
		// lets the committed baseline pin it with no headroom.
		gd := g1 - g0 - goroutineFlickerSlack
		if gd < 0 {
			gd = 0
		}
		goroutinesPer += float64(gd) / fleet
		for _, c := range clients {
			c.Close()
		}
		waitRetired(b, srv)
	}
	b.StopTimer()
	b.ReportMetric(bytesPer/float64(b.N), "bytes/session")
	b.ReportMetric(goroutinesPer/float64(b.N), "goroutines/session")
	b.ReportMetric(parkedBytesPerSession(b, fleet, pool), "parked-bytes/session")
}

// parkedBytesPerSession parks a fleet of n idle sessions on a fresh server
// and returns the lot's resident bytes per parked session.
func parkedBytesPerSession(b *testing.B, n int, pool *sched.Pool) float64 {
	b.Helper()
	srv := uniserver.New(toolkit.NewDisplay(64, 48), "footprint-parked",
		uniserver.WithPool(pool), uniserver.WithParkCapacity(n))
	defer srv.Close()
	bytes := metrics.Default().Gauge("lot_parked_bytes")
	parked := metrics.Default().Gauge("session_parked")
	b0, p0 := bytes.Value(), parked.Value()
	clients, err := workload.IdleFleet(n, func(conn net.Conn) error { return srv.AttachEdge(conn, nil) })
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range clients {
		c.Close()
	}
	waitRetired(b, srv)
	if got := srv.Parked(); got != n {
		b.Fatalf("parked %d of %d sessions", got, n)
	}
	return float64(bytes.Value()-b0) / float64(parked.Value()-p0)
}

// heapInUse returns live heap bytes after a full collection, so fleet
// deltas measure retained session state rather than garbage.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapInuse
}

// settledGoroutines samples the goroutine count once transient goroutines
// (pool turns handing off, a wheel driver noticing an empty wheel) have
// finished exiting.
func settledGoroutines() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= prev {
			return n
		}
		prev = n
	}
	return prev
}

func waitRetired(b *testing.B, srv *uniserver.Server) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Sessions() != 0 {
		if time.Now().After(deadline) {
			b.Fatalf("fleet not retired: %d sessions", srv.Sessions())
		}
		time.Sleep(time.Millisecond)
	}
}
