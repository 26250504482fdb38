// Package sched is the budgeted event runtime behind the connection path:
// a shared worker pool draining a run-queue of session "turns", and a
// hierarchical timer wheel absorbing the process's periodic work.
//
// The goroutines-per-session model the paper's scale assumes (a handful of
// sessions per home) breaks down at 100k+ sessions per process: stacks,
// per-session timers and pinned scratch dominate memory while almost every
// session is idle. sched inverts the model — sessions become Tasks whose
// state machine (idle → queued → running → re-queued) guarantees a task is
// on the run-queue at most once, a fixed-size worker set executes turns,
// and all timers in the process collapse onto O(1) OS timers via Wheel.
// Idle cost per session drops to the task struct; CPU cost stays where the
// work is.
package sched

import (
	"runtime"
	"sync"
	"time"

	"uniint/internal/metrics"
)

// Run-queue instruments. Queue lag (enqueue → worker pickup) is the
// scheduler-saturation signal: a deep queue with low lag is a burst, low
// depth with high lag means the workers are pinned by slow turns.
var (
	mQueueDepth = metrics.Default().Gauge("sched_queue_depth")
	mWorkers    = metrics.Default().Gauge("sched_workers")
	mTurns      = metrics.Default().Counter("sched_turns_total")
	mQueueLag   = metrics.Default().Histogram("sched_queue_lag_seconds", metrics.LatencyBuckets())
)

// Pool is a fixed-size worker set draining an unbounded FIFO run-queue of
// Tasks. Enqueueing never blocks (the protocol read path kicks tasks), so
// backpressure from slow turns shows up as queue depth and lag, never as a
// stalled producer.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*Task // FIFO; head compacted lazily
	head   int
	closed bool
	wg     sync.WaitGroup

	workers int
}

// DefaultWorkers is the worker count used when NewPool is given n <= 0:
// one turn executor per P, floored so small containers still overlap a
// blocked turn (a slow transport write) with runnable ones.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// NewPool starts a pool with n workers (n <= 0 selects DefaultWorkers).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = DefaultWorkers()
	}
	p := &Pool{workers: n}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	mWorkers.Add(int64(n))
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Queued returns the current run-queue depth (tasks waiting for a worker).
func (p *Pool) Queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.q) - p.head
}

// NewTask binds fn as a task's turn. fn is executed by pool workers, one
// turn at a time (never concurrently with itself), each time the task is
// kicked. Turns should do a bounded batch of work and return; work arriving
// mid-turn re-queues the task instead of being lost.
func (p *Pool) NewTask(fn func()) *Task {
	return &Task{pool: p, fn: fn}
}

// Go runs fn once on the pool — the one-shot convenience for work that is
// not a recurring session turn.
func (p *Pool) Go(fn func()) {
	p.NewTask(fn).Kick()
}

// Close stops the workers after the queue drains and waits for in-flight
// turns to return. Tasks kicked after Close never run.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	mWorkers.Add(int64(-p.workers))
}

// push appends t to the run-queue (t.state already queued).
func (p *Pool) push(t *Task) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.q = append(p.q, t)
	p.cond.Signal()
	p.mu.Unlock()
	mQueueDepth.Inc()
}

// pop blocks for the next queued task, returning nil at close.
func (p *Pool) pop() *Task {
	p.mu.Lock()
	for {
		if p.head < len(p.q) {
			t := p.q[p.head]
			p.q[p.head] = nil
			p.head++
			if p.head == len(p.q) {
				p.q = p.q[:0]
				p.head = 0
			} else if p.head > 64 && p.head*2 > len(p.q) {
				n := copy(p.q, p.q[p.head:])
				for i := n; i < len(p.q); i++ {
					p.q[i] = nil
				}
				p.q = p.q[:n]
				p.head = 0
			}
			p.mu.Unlock()
			mQueueDepth.Dec()
			return t
		}
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		p.cond.Wait()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		t := p.pop()
		if t == nil {
			return
		}
		t.run()
	}
}

// Task states. A task is on the run-queue iff its state is taskQueued, so
// a session is queued at most once no matter how many kicks land on it.
const (
	taskIdle int8 = iota
	taskQueued
	taskRunning
	taskStopped
)

// Task is one unit of schedulable session work (a writer, a dispatcher, a
// read pump). Kick marks it runnable; the pool executes its turn function.
// The state machine collapses redundant kicks: idle → queued (enqueued),
// queued → queued (no-op), running → re-queued after the turn returns.
type Task struct {
	pool *Pool
	fn   func()

	mu      sync.Mutex
	cond    *sync.Cond // lazily created; waited on by Stop while running
	state   int8
	rerun   bool // kicked while running: re-queue after the turn
	stopReq bool
	enqAt   int64 // UnixNano at enqueue, for the queue-lag histogram
}

// Kick marks the task runnable. Safe from any goroutine, never blocks,
// allocation-free; redundant kicks coalesce.
func (t *Task) Kick() {
	t.mu.Lock()
	if t.stopReq || t.state == taskStopped {
		t.mu.Unlock()
		return
	}
	switch t.state {
	case taskIdle:
		t.state = taskQueued
		t.enqAt = time.Now().UnixNano()
		t.mu.Unlock()
		t.pool.push(t)
	case taskRunning:
		t.rerun = true
		t.mu.Unlock()
	default: // queued: already on the run-queue
		t.mu.Unlock()
	}
}

// Halt prevents further turns without waiting for an in-flight one: a turn
// running now finishes but is not re-run, and later kicks are ignored.
// Stop still has to be called to wait the in-flight turn out.
func (t *Task) Halt() {
	t.mu.Lock()
	t.stopReq = true
	t.mu.Unlock()
}

// Stop prevents further turns and waits for an in-flight one to return:
// after Stop, the task's fn is not running and will never run again.
// Must not be called from the task's own turn (it would wait on itself).
func (t *Task) Stop() {
	t.mu.Lock()
	t.stopReq = true
	for t.state == taskRunning {
		if t.cond == nil {
			t.cond = sync.NewCond(&t.mu)
		}
		t.cond.Wait()
	}
	t.state = taskStopped
	t.mu.Unlock()
}

// run executes one turn (pool worker).
func (t *Task) run() {
	t.mu.Lock()
	if t.state != taskQueued || t.stopReq {
		// Stopped (or stop-requested) while waiting in the queue.
		if t.stopReq && t.state == taskQueued {
			t.state = taskIdle
		}
		t.mu.Unlock()
		return
	}
	t.state = taskRunning
	t.rerun = false
	lag := time.Now().UnixNano() - t.enqAt
	t.mu.Unlock()
	mQueueLag.Observe(float64(lag) / 1e9)
	mTurns.Inc()

	t.fn()

	t.mu.Lock()
	rerun := t.rerun && !t.stopReq
	t.rerun = false
	if rerun {
		t.state = taskQueued
		t.enqAt = time.Now().UnixNano()
	} else {
		t.state = taskIdle
	}
	if t.cond != nil {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
	if rerun {
		t.pool.push(t)
	}
}
