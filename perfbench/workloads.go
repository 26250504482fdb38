package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"uniint/internal/havi/fcm"
	"uniint/internal/metrics"
	"uniint/internal/rfb"
	"uniint/internal/workload"
)

// nproc is the number of concurrent users (client connections) every
// workload runs: a closed loop of two phones.
const nproc = 2

// Operation kinds a tally accounts.
const (
	opInteraction    = "interaction"     // key press → frame presented
	opActivation     = "activation"      // interactions that change an appliance control
	opJoin           = "join"            // dial by home ID → first frame
	opResume         = "resume"          // token redial → restored frame
	opCycle          = "cycle"           // Cluster.Drain + Cluster.AddNode
	opMigratedResume = "migrated_resume" // token redial of a migrated session → restored frame
	opPark           = "park"            // disconnect → session parked
	opCheck          = "check"           // client screen equals the display
)

// tally is what one phase of a workload measured.
type tally struct {
	elapsed time.Duration
	ops     map[string]*opStats
	units   int   // headline operations completed
	bytes   int64 // numerator of the workload's bytes-per-operation metric
	byteOps int64 // and its denominator
	up      int64 // bytes the clients wrote
	frames  int64 // frames the phones presented
}

func newTally() *tally { return &tally{ops: map[string]*opStats{}} }

func (t *tally) op(name string) *opStats {
	o := t.ops[name]
	if o == nil {
		o = &opStats{}
		t.ops[name] = o
	}
	return o
}

func (t *tally) merge(o *tally) {
	for name, s := range o.ops {
		t.op(name).merge(s)
	}
	t.units += o.units
	t.bytes += o.bytes
	t.byteOps += o.byteOps
	t.up += o.up
	t.frames += o.frames
}

// attempts sums attempted and failed operations over every kind.
func (t *tally) attempts() (attempted, failed int) {
	for _, o := range t.ops {
		attempted += o.attempted
		failed += o.failed
	}
	return attempted, failed
}

// runner drives one workload on a set-up deployment.
type runner interface {
	// phase runs the closed loop for dur.
	phase(dur time.Duration) *tally
	// check waits for every connected client to show its home's display.
	check() *tally
	// close disconnects every client.
	close()
}

// eachClient runs fn once per client concurrently and merges the tallies.
func eachClient(clients []*client, fn func(i int, c *client, t *tally)) *tally {
	parts := make([]*tally, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		parts[i] = newTally()
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			fn(i, c, parts[i])
		}(i, c)
	}
	wg.Wait()
	out := newTally()
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// timed runs body for dur and stamps the tally with the elapsed time.
func timed(dur time.Duration, body func(deadline time.Time) *tally) *tally {
	t0 := time.Now()
	t := body(t0.Add(dur))
	t.elapsed = time.Since(t0)
	return t
}

// keys is a client's endless stream of drawn keys: seeded keypad
// sessions from workload.RandomSession, one chunk after another.
type keys struct {
	seed  int64
	chunk int64
	buf   workload.Script
}

func (k *keys) next() string {
	if len(k.buf) == 0 {
		k.buf = workload.RandomSession(256, k.seed+k.chunk*10_007)
		k.chunk++
	}
	s := k.buf[0]
	k.buf = k.buf[1:]
	return s.Arg
}

// interact runs one planned step on the client's current home.
func interact(c *client, drawn string, t *tally) error {
	key, activation := planStep(c.d.home(c.homeID).sess.Display, drawn)
	d, err := c.step(key, activation)
	t.op(opInteraction).record(d, err)
	if activation {
		t.op(opActivation).record(d, err)
	}
	c.think()
	return err
}

func connStats(c *client) (in, out, frames int64) {
	if c.conn == nil {
		return 0, 0, c.scr.frames.Load()
	}
	return c.conn.in.Load(), c.conn.out.Load(), c.scr.frames.Load()
}

func checkAll(clients []*client) *tally {
	return eachClient(clients, func(_ int, c *client, t *tally) {
		if c.proxy != nil {
			t.op(opCheck).record(0, c.settle())
		}
	})
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.disconnect()
		c.scr.Close()
	}
}

// --- interact ---------------------------------------------------------------

// interactRun: each client stays on its own home and replays seeded
// keypad sessions; the other 62 homes sit resident and idle.
type interactRun struct {
	clients []*client
	keys    []*keys
}

func setupInteract(d *deployment, seed int64) (runner, error) {
	rng := rand.New(rand.NewSource(seed))
	a := rng.Intn(homeCount)
	b := (a + 1 + rng.Intn(homeCount-1)) % homeCount
	r := &interactRun{}
	for i, h := range []int{a, b} {
		c := newClient(d, fmt.Sprintf("phone-%d", i), seed+int64(i))
		r.clients = append(r.clients, c)
		r.keys = append(r.keys, &keys{seed: seed + int64(i)*1_000_003})
		if _, _, err := c.join(workload.HomeID(h)); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *interactRun) phase(dur time.Duration) *tally {
	return timed(dur, func(deadline time.Time) *tally {
		return eachClient(r.clients, func(i int, c *client, t *tally) {
			in0, out0, f0 := connStats(c)
			for time.Now().Before(deadline) {
				if interact(c, r.keys[i].next(), t) == nil {
					t.units++
				}
			}
			in1, out1, f1 := connStats(c)
			t.bytes, t.byteOps = in1-in0, int64(t.op(opInteraction).attempted)
			t.up, t.frames = out1-out0, f1-f0
		})
	})
}

func (r *interactRun) check() *tally { return checkAll(r.clients) }
func (r *interactRun) close()        { closeAll(r.clients) }

// --- roam -------------------------------------------------------------------

// roamVisitSteps is the scripted interaction length of one visit: short,
// so connection set-up dominates the visit.
const roamVisitSteps = 3

// roamRun: each client follows a seeded itinerary over its own share of
// the homes. A visit runs its script, disconnects so the session parks,
// then damages the parked home through its lamp. The next visit is a
// token redial of that session or a cold join of the itinerary's next
// home, by a seeded coin.
type roamRun struct {
	d       *deployment
	clients []*client
	plans   []workload.RoamPlan
	hop     []int
	coin    []*rand.Rand
}

func setupRoam(d *deployment, seed int64) (runner, error) {
	r := &roamRun{d: d, plans: disjointRoam(seed)}
	for i, plan := range r.plans {
		c := newClient(d, plan.DeviceID, seed+int64(i))
		r.clients = append(r.clients, c)
		r.hop = append(r.hop, 0)
		r.coin = append(r.coin, rand.New(rand.NewSource(seed+int64(i)*7_919+1)))
		if _, _, err := c.join(plan.Visits[0].HomeID); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *roamRun) phase(dur time.Duration) *tally {
	return timed(dur, func(deadline time.Time) *tally {
		return eachClient(r.clients, func(i int, c *client, t *tally) {
			f0 := c.scr.frames.Load()
			for time.Now().Before(deadline) {
				if r.visit(i, c, t) == nil {
					t.units++
				}
			}
			t.frames = c.scr.frames.Load() - f0
		})
	})
}

// disjointRoam draws the clients' itineraries so that no two clients
// ever visit the same home: client i roams homes i, i+nproc, i+2·nproc,
// and so on. The homes' displays are shared, so a second user on a home
// would put frames of their own presses and lamp flips on the first
// user's phone, and a step's effect, and the frame its latency ends on,
// would no longer be known.
func disjointRoam(seed int64) []workload.RoamPlan {
	share := homeCount / nproc
	index := make(map[string]int, share)
	for k := 0; k < share; k++ {
		index[workload.HomeID(k)] = k
	}
	plans := workload.Roam(workload.RoamConfig{
		Homes: share, Devices: nproc, Hops: 4096, StepsPerVisit: roamVisitSteps, Seed: seed,
	})
	for i := range plans {
		for j := range plans[i].Visits {
			v := &plans[i].Visits[j]
			v.HomeID = workload.HomeID(index[v.HomeID]*nproc + i)
		}
	}
	return plans
}

// visit finishes the client's current visit and opens the next one.
func (r *roamRun) visit(i int, c *client, t *tally) error {
	plan := r.plans[i]
	if c.proxy != nil {
		for _, st := range plan.Visits[r.hop[i]%len(plan.Visits)].Script {
			if interact(c, st.Arg, t) != nil {
				break
			}
		}
		t.op(opCheck).record(0, c.settle())
		t.up += c.conn.out.Load()
		c.disconnect()
		t.op(opPark).record(0, c.waitParked())
		h := r.d.home(c.homeID)
		flipLamp(h)
		h.sess.WaitIdle()
		c.think()
	}
	r.hop[i]++
	if r.coin[i].Intn(2) == 0 && c.lastCli != nil {
		d, n, err := c.resume(c.homeID, c.token, c.lastCli)
		t.op(opResume).record(d, err)
		if err == nil {
			t.bytes += n
			t.byteOps++
		}
		return err
	}
	d, _, err := c.join(plan.Visits[r.hop[i]%len(plan.Visits)].HomeID)
	t.op(opJoin).record(d, err)
	return err
}

// flipLamp makes detach-window damage on a home through the appliance
// layer: the lamp's power control flips and the middleware carries the
// change into the panel.
func flipLamp(h *home) {
	bulb := h.lamp.Bulb()
	v, _ := bulb.Get(fcm.CtlPower)
	_ = bulb.Set(fcm.CtlPower, 1-v) // power is always settable
}

func (r *roamRun) check() *tally { return checkAll(r.clients) }
func (r *roamRun) close()        { closeAll(r.clients) }

// --- rebalance --------------------------------------------------------------

// migratedPerCycle is how many migrated sessions the clients resume after
// each rebalance cycle.
const migratedPerCycle = 4

// parked is the client-side memory of a session kept parked: where it
// lives, its token and the connection it last ran on (whose shadow the
// next resume adopts).
type parked struct {
	homeID, token string
	cli           *rfb.ClientConn
}

// rebalanceRun: set-up parks one session on every home; a cycle drains
// the gamma member and joins a fresh hub under its name, so its homes and
// their parked sessions migrate out and back; the clients then resume a
// seeded sample of the migrated sessions and disconnect again.
type rebalanceRun struct {
	d        *deployment
	clients  []*client
	parked   []*parked // by home index
	migrated []int     // homes the drain member owns
	rng      *rand.Rand
}

func setupRebalance(d *deployment, seed int64) (runner, error) {
	r := &rebalanceRun{d: d, parked: make([]*parked, homeCount), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < nproc; i++ {
		r.clients = append(r.clients, newClient(d, fmt.Sprintf("phone-%d", i), seed+int64(i)))
	}
	t := eachClient(r.clients, func(i int, c *client, t *tally) {
		for h := i; h < homeCount; h += nproc {
			id := workload.HomeID(h)
			_, _, err := c.join(id)
			t.op(opJoin).record(0, err)
			if err != nil {
				continue
			}
			c.disconnect()
			err = c.waitParked()
			t.op(opPark).record(0, err)
			r.parked[h] = &parked{homeID: id, token: c.token, cli: c.lastCli}
		}
	})
	if _, failed := t.attempts(); failed > 0 {
		r.close()
		return nil, fmt.Errorf("rebalance set-up: %d sessions failed to park", failed)
	}
	for h := 0; h < homeCount; h++ {
		if owner, _ := d.fed.Owner(workload.HomeID(h)); owner == drainNode {
			r.migrated = append(r.migrated, h)
		}
	}
	return r, nil
}

func (r *rebalanceRun) phase(dur time.Duration) *tally {
	return timed(dur, func(deadline time.Time) *tally {
		t := newTally()
		m0 := metrics.Default().Snapshot().Counters
		for time.Now().Before(deadline) {
			drain, add, err := r.d.rebalance()
			t.op(opCycle).record(drain+add, err)
			if err != nil {
				break // the ring no longer has the member a cycle needs
			}
			t.units++
			sample := r.rng.Perm(len(r.migrated))[:min(migratedPerCycle, len(r.migrated))]
			t.merge(eachClient(r.clients, func(i int, c *client, ct *tally) {
				f0 := c.scr.frames.Load()
				for j := i; j < len(sample); j += nproc {
					r.resumeOne(c, r.parked[r.migrated[sample[j]]], ct)
				}
				ct.frames = c.scr.frames.Load() - f0
			}))
		}
		m1 := metrics.Default().Snapshot().Counters
		t.bytes = m1["fed_migration_bytes_total"] - m0["fed_migration_bytes_total"]
		t.byteOps = m1["fed_migrations_total"] - m0["fed_migrations_total"]
		return t
	})
}

// resumeOne damages a migrated session's home while it is parked, resumes
// it, checks the screen and parks it again. The damage switches the lamp
// on and off, so the panel ends as a fresh host of the home draws it and
// a later migration, which rebuilds the home, leaves the shadow valid.
func (r *rebalanceRun) resumeOne(c *client, p *parked, t *tally) {
	h := r.d.home(p.homeID)
	flipLamp(h)
	flipLamp(h)
	h.sess.WaitIdle()
	d, _, err := c.resume(p.homeID, p.token, p.cli)
	t.op(opMigratedResume).record(d, err)
	if err != nil {
		return
	}
	t.op(opCheck).record(0, c.settle())
	t.up += c.conn.out.Load()
	c.disconnect()
	t.op(opPark).record(0, c.waitParked())
	p.cli = c.lastCli
	c.think()
}

func (r *rebalanceRun) check() *tally { return checkAll(r.clients) }
func (r *rebalanceRun) close()        { closeAll(r.clients) }
