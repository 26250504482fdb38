package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// span is one timed step at a layer boundary, recorded by the benchmark
// around its calls into the program. Spans of one operation share its
// Parent (the operation's own span has Parent 0).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept for the span file; per-layer samples
// are kept in full regardless.
const maxSpans = 50000

// tracer keeps the spans and per-layer samples of a traced phase in
// memory. It records nothing while off, so the same deployment serves
// the untraced half of a traced run.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
	counts  map[string]int64
}

func newTracer() *tracer {
	return &tracer{samples: map[string][]float64{}, counts: map[string]int64{}}
}

// enabled reports whether t records; a nil tracer never does.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// id returns a fresh span identifier (0 from a nil tracer).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// span records [start, end] under name and its length in microseconds as
// a sample of name. Spans with a missing or reversed endpoint — the
// stamp they need was never taken — are dropped.
func (t *tracer) span(name string, id, parent uint64, start, end int64) {
	if !t.enabled() || start == 0 || end == 0 || end < start {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	}
	t.samples[name] = append(t.samples[name], float64(end-start)/1e3)
}

// count adds n to the named counter.
func (t *tracer) count(name string, n int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// median returns the median sample of name (0 when there is none).
func (t *tracer) median(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.samples[name])
}

func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
