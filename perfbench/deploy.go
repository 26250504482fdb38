package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"uniint"
	"uniint/internal/appliance"
	"uniint/internal/fed"
	"uniint/internal/havi"
	"uniint/internal/hub"
	"uniint/internal/rfb"
	"uniint/internal/workload"
)

// The deployment shape of `unihub -peers alpha,beta,gamma`: three hub
// members behind one federation router, 64 pre-admitted homes of a TV
// and a lamp on 320×240 desktops, 64 registry shards, one tile cache
// shared by every home.
const (
	homeCount  = 64
	homeWidth  = 320
	homeHeight = 240
	hubShards  = 64
	hubIdle    = 10 * time.Minute
	drainNode  = "gamma"
)

var members = []string{"alpha", "beta", drainNode}

// home is one resident household as the benchmark sees it: the stack the
// factory built, its lamp (the detach-window damage source) and the
// stamps of its damage and middleware events.
type home struct {
	sess *uniint.HubSession
	lamp *appliance.Lamp

	damage   atomic.Int64 // Display.OnDamage firings
	damageAt atomic.Int64 // first firing since mark (traced)
	fcmAt    atomic.Int64 // first EventFCMChanged since mark (traced)
}

func (h *home) mark() {
	h.damageAt.Store(0)
	h.fcmAt.Store(0)
}

// deployment is the running hub-of-hubs on a loopback TCP listener.
type deployment struct {
	tr     *tracer // nil: untraced, no server-side wrappers installed
	tiles  *uniint.TileCache
	fed    *fed.Cluster
	hubs   map[string]*hub.Hub
	ln     net.Listener
	addr   string
	served chan error
	conns  *connIndex

	mu    sync.Mutex
	homes map[string]*home // the current host of each home ID
}

// deploy builds and starts the deployment. With a tracer, the listener
// and every home are wrapped so the traced phase can stamp them.
func deploy(tr *tracer) (*deployment, error) {
	d := &deployment{
		tr:     tr,
		tiles:  uniint.NewTileCache(0),
		fed:    fed.NewCluster(fed.Options{}),
		hubs:   map[string]*hub.Hub{},
		served: make(chan error, 1),
		conns:  newConnIndex(),
		homes:  map[string]*home{},
	}
	for _, name := range members {
		h, err := d.newHub()
		if err != nil {
			d.closeHubs()
			return nil, err
		}
		d.hubs[name] = h
		if err := d.fed.AddNode(name, h); err != nil {
			d.closeHubs()
			return nil, err
		}
	}
	for i := 0; i < homeCount; i++ {
		id := workload.HomeID(i)
		owner, ok := d.fed.Owner(id)
		if !ok {
			d.closeHubs()
			return nil, fmt.Errorf("no ring owner for %s", id)
		}
		if _, err := d.hubs[owner].Admit(id); err != nil {
			d.closeHubs()
			return nil, fmt.Errorf("pre-admit %s on %s: %w", id, owner, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.closeHubs()
		return nil, err
	}
	d.addr = ln.Addr().String()
	d.ln = ln
	if tr != nil {
		d.ln = &meteredListener{Listener: ln, conns: d.conns}
	}
	go func() { d.served <- d.fed.Serve(d.ln) }()
	return d, nil
}

func (d *deployment) newHub() (*hub.Hub, error) {
	return hub.New(hub.Options{Factory: d.admit, Shards: hubShards, IdleTimeout: hubIdle})
}

// admit is the home factory: cmd/unihub's, plus the benchmark's hooks.
func (d *deployment) admit(id string) (hub.Host, error) {
	t0 := now()
	tv, err := appliance.New("tv", id+"/tv-0")
	if err != nil {
		return nil, err
	}
	lamp := appliance.NewLamp(id + "/lamp-1")
	sess, err := uniint.NewSessionForHub(uniint.Options{
		Width: homeWidth, Height: homeHeight, Name: id,
		Appliances: []appliance.Appliance{tv, lamp},
		Tiles:      d.tiles,
	})
	if err != nil {
		return nil, err
	}
	h := &home{sess: sess, lamp: lamp}
	traced := d.tr != nil
	sess.Display.OnDamage(func() {
		h.damage.Add(1)
		if traced {
			h.damageAt.CompareAndSwap(0, now())
		}
	})
	d.mu.Lock()
	d.homes[id] = h
	d.mu.Unlock()
	if !traced {
		return sess, nil
	}
	sess.Home.Network().Events().Subscribe(havi.EventFCMChanged, func(havi.Event) {
		h.fcmAt.CompareAndSwap(0, now())
	})
	d.tr.span("hub.admit", d.tr.id(), 0, t0, now())
	return &tracedHost{HubSession: sess, tr: d.tr}, nil
}

// home returns the current host of a home ID.
func (d *deployment) home(id string) *home {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.homes[id]
}

// rebalance evacuates the drain member and joins a fresh hub under the
// same name: every home it owned migrates out and back. It returns the
// wall time of each of the two calls; building the fresh hub and closing
// the drained one are not timed.
func (d *deployment) rebalance() (drain, add time.Duration, err error) {
	fresh, err := d.newHub()
	if err != nil {
		return 0, 0, err
	}
	t0 := now()
	if err := d.fed.Drain(drainNode); err != nil {
		fresh.Close()
		return 0, 0, fmt.Errorf("drain %s: %w", drainNode, err)
	}
	t1 := now()
	if err := d.fed.AddNode(drainNode, fresh); err != nil {
		fresh.Close()
		return 0, 0, fmt.Errorf("add %s: %w", drainNode, err)
	}
	t2 := now()
	d.hubs[drainNode].Close()
	d.hubs[drainNode] = fresh
	id := d.tr.id()
	d.tr.span("fed.drain", d.tr.id(), id, t0, t1)
	d.tr.span("fed.add_node", d.tr.id(), id, t1, t2)
	return time.Duration(t1 - t0), time.Duration(t2 - t1), nil
}

// close stops the listener and closes every hub; clients must already be
// gone.
func (d *deployment) close() {
	d.ln.Close()
	<-d.served
	d.closeHubs()
}

func (d *deployment) closeHubs() {
	for _, h := range d.hubs {
		h.Close()
	}
}

// tracedHost decorates a home's Host to stamp connection hand-off and to
// time the detach-lot operations the federation drives. Every other
// method is the embedded session's own.
type tracedHost struct {
	*uniint.HubSession
	tr *tracer
}

func (t *tracedHost) HandleConn(conn net.Conn) error {
	if m, ok := conn.(*meteredConn); ok && m.st != nil {
		m.st.handleAt.Store(now())
	}
	return t.HubSession.HandleConn(conn)
}

func (t *tracedHost) HasParked(token string) bool {
	t.tr.count("hub.has_parked", 1)
	return t.HubSession.HasParked(token)
}

func (t *tracedHost) DetachSessions(timeout time.Duration) error {
	t0 := now()
	err := t.HubSession.DetachSessions(timeout)
	t.tr.span("uniserver.detach", t.tr.id(), 0, t0, now())
	return err
}

func (t *tracedHost) ExportParked(token string) (*rfb.MigrationRecord, bool) {
	t0 := now()
	rec, ok := t.HubSession.ExportParked(token)
	t.tr.span("uniserver.export", t.tr.id(), 0, t0, now())
	return rec, ok
}

func (t *tracedHost) ImportParked(rec *rfb.MigrationRecord) error {
	t0 := now()
	err := t.HubSession.ImportParked(rec)
	t.tr.span("uniserver.import", t.tr.id(), 0, t0, now())
	return err
}

// connIndex maps a client's local address to the server end of its
// connection, as accepted by the metered listener.
type connIndex struct {
	mu sync.Mutex
	m  map[string]*meteredConn
}

func newConnIndex() *connIndex { return &connIndex{m: map[string]*meteredConn{}} }

func (x *connIndex) put(addr string, c *meteredConn) {
	x.mu.Lock()
	x.m[addr] = c
	x.mu.Unlock()
}

// take removes and returns the server end for addr, waiting up to a
// second for the listener to accept it (nil if it never does).
func (x *connIndex) take(addr string) *meteredConn {
	for deadline := time.Now().Add(time.Second); ; {
		x.mu.Lock()
		c := x.m[addr]
		delete(x.m, addr)
		x.mu.Unlock()
		if c != nil || time.Now().After(deadline) {
			return c
		}
		time.Sleep(50 * time.Microsecond)
	}
}
