package main

import (
	"errors"
	"testing"
	"time"

	"uniint/internal/device"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.1: 1, 0.5: 5, 0.9: 9, 0.91: 10, 1: 10} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

// A step whose frame never arrives counts as failed and leaves the
// latency samples alone.
func TestTimedOutStepIsFailedAndNotASample(t *testing.T) {
	scr := &screen{Phone: device.NewPhone("p"), signal: make(chan struct{}, 1)}
	defer scr.Close()
	var o opStats
	o.record(3*time.Millisecond, nil)
	o.record(5*time.Millisecond, nil)

	t0 := time.Now()
	_, err := scr.waitFrame(scr.frames.Load())
	if !errors.Is(err, errTimeout) {
		t.Fatalf("waitFrame with no frame: err = %v, want errTimeout", err)
	}
	o.record(time.Since(t0), err)

	if o.attempted != 3 || o.failed != 1 {
		t.Errorf("attempted, failed = %d, %d; want 3, 1", o.attempted, o.failed)
	}
	if len(o.ms) != 2 || o.p(1) != 5 {
		t.Errorf("samples = %v; the timed-out step must not be one", o.ms)
	}
	if !errors.Is(o.firstErr, errTimeout) {
		t.Errorf("firstErr = %v, want errTimeout", o.firstErr)
	}
	var all tally
	all.ops = map[string]*opStats{opInteraction: &o}
	if a, f := all.attempts(); a != 3 || f != 1 {
		t.Errorf("tally attempts = %d, %d; want 3, 1", a, f)
	}
}
