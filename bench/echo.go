package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"causeway"
	"causeway/internal/analysis"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/benchgen/plainecho"
	"causeway/internal/gls"
	"causeway/internal/transport"
)

// Constants of the application workload.
const (
	// The caller works in slices of this many calls. In the traced
	// invocation one round runs the three arms back to back, plain → local →
	// ship, in slices that keep the issue's 300k : 200k : 150k proportion;
	// interleaving the arms round after round cancels drift (heap growth,
	// thermal, neighbours) between them.
	plainSlice = 6000
	localSlice = 4000
	shipSlice  = 3000
	// echoRounds is the fixed work of one epoch (see runEpochs for why the
	// work is fixed and not the time): about two seconds of the ship arm
	// alone on the calibration host, four of all three.
	echoRounds = 10
	// warmupCalls per arm run inside set-up: connections dialled, stub
	// buffers pooled, the caller's goroutine registered.
	warmupCalls = 2000
)

type echoCaller interface {
	Echo(string) (string, error)
}

type echoServant struct{}

func (echoServant) Echo(payload string) (string, error) { return payload, nil }
func (echoServant) Sum([]int32) (int32, error)          { return 0, nil }
func (echoServant) Fire(string) error                   { return nil }

// echoArm is one client/server pair of causeway.Processes over ORB TCP
// loopback — the Figure-1 / livemonitor topology through the public facade.
type echoArm struct {
	name           string
	client, server *causeway.Process
	stub           echoCaller
	calls          int
	latNS          []int64
	wall, cpu      time.Duration // spent calling; used by the whole process meanwhile
	bodyBytes      *atomic.Int64 // request+reply body bytes the client ORB moved (traced run)
}

func (a *echoArm) close() {
	if a.client != nil {
		a.client.Close()
	}
	if a.server != nil {
		a.server.Close()
	}
}

// countingClient counts the body bytes an ORB connection carries.
type countingClient struct {
	transport.Client
	bytes *atomic.Int64
}

func (c countingClient) Call(req transport.Request) (transport.Reply, error) {
	rep, err := c.Client.Call(req)
	c.bytes.Add(int64(len(req.Body) + len(rep.Body)))
	return rep, err
}

func newEchoArm(name string, instrumented bool, shipTo string, traced bool) (*echoArm, error) {
	a := &echoArm{name: name}
	cfg := func(role string) causeway.ProcessConfig {
		c := causeway.ProcessConfig{Name: name + "-" + role, Instrumented: instrumented, ShipTo: shipTo}
		if instrumented {
			c.Monitor = causeway.MonitorLatency
		}
		return c
	}
	var err error
	if a.server, err = causeway.NewProcess(cfg("server")); err != nil {
		return nil, err
	}
	if instrumented {
		err = instrecho.RegisterEcho(a.server.ORB, "echo", "echo-comp", echoServant{})
	} else {
		err = plainecho.RegisterEcho(a.server.ORB, "echo", "echo-comp", echoServant{})
	}
	if err != nil {
		a.close()
		return nil, err
	}
	ep, err := a.server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		a.close()
		return nil, err
	}
	ccfg := cfg("client")
	if traced {
		a.bodyBytes = new(atomic.Int64)
		ccfg.WrapClient = func(c transport.Client) transport.Client {
			return countingClient{Client: c, bytes: a.bodyBytes}
		}
	}
	if a.client, err = causeway.NewProcess(ccfg); err != nil {
		a.close()
		return nil, err
	}
	ref := a.client.ORB.RefTo(ep, "echo", "Echo", "echo-comp")
	if instrumented {
		a.stub = instrecho.NewEchoStub(ref)
	} else {
		a.stub = plainecho.NewEchoStub(ref)
	}
	return a, nil
}

type echoEnv struct {
	p        params
	tr       *tracer
	col      *collector
	arms     [3]*echoArm // plain, local, ship
	payloads []string
	// Calls the ship arm made in set-up: their chains are in the store too.
	warmShipCalls int
	badReplies    int64
}

func setupEcho(p params, tr *tracer) (env, error) {
	e := &echoEnv{p: p, tr: tr}
	rng := rand.New(rand.NewSource(p.seed))
	for i := 0; i < 64; i++ {
		b := make([]byte, 8+rng.Intn(56))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		e.payloads = append(e.payloads, string(b))
	}
	if err := e.start(); err != nil {
		return nil, err
	}
	return e, nil
}

// start brings up an empty collector and the three arms, and warms the arms
// up. Set-up does it, and every further epoch begins with it.
func (e *echoEnv) start() error {
	dir, err := os.MkdirTemp(e.p.tmp, "echo-")
	if err != nil {
		return err
	}
	col, err := startCollector(dir, e.tr)
	if err != nil {
		return err
	}
	e.col, e.arms, e.badReplies = col, [3]*echoArm{}, 0
	tr, p := e.tr, e.p
	for i, spec := range []struct {
		name         string
		instrumented bool
		shipTo       string
	}{{"plain", false, ""}, {"local", true, ""}, {"ship", true, col.srv.Addr()}} {
		a, err := newEchoArm(spec.name, spec.instrumented, spec.shipTo, tr != nil)
		if err != nil {
			e.close()
			return err
		}
		e.arms[i] = a
	}
	if tr != nil {
		// causeway.Process owns its shipper, so there is no Dial to wrap:
		// the sink time of each process's connection is drained once, at
		// the end of the window.
		for _, role := range []string{"client", "server"} {
			tr.register(&connAcc{}, "ship-"+role)
		}
	}
	warm := int(warmupCalls * p.scale)
	if warm < 10 {
		warm = 10
	}
	for _, a := range e.arms {
		if err := e.slice(a, warm); err != nil {
			e.close()
			return err
		}
		a.calls, a.latNS, a.wall, a.cpu = 0, nil, 0, 0 // the epoch starts from zero
	}
	e.warmShipCalls = warm
	return nil
}

func (e *echoEnv) close() {
	for _, a := range e.arms {
		if a != nil {
			a.close()
		}
	}
	e.col.close()
}

// slice makes n closed-loop calls on one arm from the calling goroutine,
// which it registers as the application's caller thread for the duration
// (the fast goroutine-identity path a deployment's caller threads use).
func (e *echoEnv) slice(a *echoArm, n int) error {
	gls.Register()
	defer gls.Unregister()
	ship := a == e.arms[2]
	tunnel := a.client.ORB.Probes().Tunnel()
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < n; i++ {
		payload := e.payloads[(a.calls+i)%len(e.payloads)]
		t0 := time.Now()
		reply, err := a.stub.Echo(payload)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("%s arm: echo: %w", a.name, err)
		}
		if reply != payload {
			e.badReplies++
		}
		a.latNS = append(a.latNS, int64(t1.Sub(t0)))
		if ship {
			// The call has returned, so the chain's last record is
			// appended: its freshness clock starts now.
			if f, ok := tunnel.Current(); ok {
				e.col.fresh.lastSent(f.Chain, t1)
			}
		}
		a.client.NewChain()
	}
	a.calls += n
	a.wall += time.Since(start)
	a.cpu += cpuTime() - cpu0
	return nil
}

func (e *echoEnv) measure(seconds float64) (*measurement, error) {
	return runEpochs(seconds, e.epoch, func() error { e.close(); return e.start() })
}

// epoch measures echoRounds rounds of calls.
func (e *echoEnv) epoch() (*measurement, error) {
	m := &measurement{layer: make(map[string]float64)}
	plain, local, ship := e.arms[0], e.arms[1], e.arms[2]
	// What the end-to-end metrics describe is the caller with the whole
	// facade on, so the window that reports them runs the ship arm alone,
	// slice after slice. The other two arms exist for the per-layer
	// metrics, which are differences between arms: only the traced
	// invocation (both its windows) interleaves all three.
	arms, sizes := e.arms[2:], []int{shipSlice}
	if e.p.traced {
		arms, sizes = e.arms[:], []int{plainSlice, localSlice, shipSlice}
	}
	for i := range sizes {
		if sizes[i] = int(float64(sizes[i]) * e.p.scale); sizes[i] < 10 {
			sizes[i] = 10
		}
	}

	runtime.GC()
	var mem0 memCounters
	if e.tr != nil {
		mem0 = readMem()
	}
	shipped0 := ship.client.ShipperStats().Appended + ship.server.ShipperStats().Appended
	start := time.Now()
	for round := 0; round < echoRounds; round++ {
		for i, a := range arms {
			if err := e.slice(a, sizes[i]); err != nil {
				return nil, err
			}
		}
	}
	sent := shipperTotals(m, ship.client.ShipperStats(), ship.server.ShipperStats())
	appended := sent.Appended
	e.col.settle(m, appended, sent.Dropped)
	m.window = time.Since(start)
	if e.tr != nil {
		e.tr.drainAll()
		runtimeLayers(m, mem0, float64(appended-shipped0), e.col.heapPeak)
	}

	// The user here is the caller, who waits for replies: records finish at
	// the pace the ship arm calls (four a call), and cost the CPU the whole
	// process — both ORBs, the probes, the shippers and the collector —
	// uses while it calls. All three figures are totals over the ship arm's
	// slices, not medians of them: a call takes about 15 us when the caller
	// has a core to itself and several times that when it shares one with
	// a shipper, the collector or a GC cycle, the two modes hold about half
	// the calls each, and a median that sits in the gap between them spread
	// by 0.14-0.21 over ten runs where the mean spread by 0.02-0.03.
	shipperTotals(m, ship.client.ShipperStats(), ship.server.ShipperStats()) // now that the shippers have drained
	m.attempted = int64(plain.calls + local.calls + ship.calls)
	records := float64(appended - shipped0)
	m.recordsPerS = ratio(records, ship.wall.Seconds())
	m.cpuUSPerRecord = ratio(float64(ship.cpu)/float64(time.Microsecond), records)
	m.latencyMS = ratio(float64(ship.wall)/float64(time.Millisecond), float64(ship.calls))

	if e.badReplies > 0 {
		m.failed += e.badReplies
		m.problems = append(m.problems, fmt.Sprintf("%d replies differed from their payload", e.badReplies))
	}
	// Every call the ship arm ever made is one DSCG node in the store.
	g := analysis.ReconstructParallel(e.col.store, runtime.GOMAXPROCS(0))
	if want := ship.calls + e.warmShipCalls; g.Nodes() != want || len(g.Anomalies) != 0 || len(g.Broken) != 0 {
		m.fail("streamed DSCG has %d nodes (%d anomalies, %d broken) for %d calls", g.Nodes(), len(g.Anomalies), len(g.Broken), want)
	}

	us := func(a *echoArm, q float64) float64 { return orZero(quantile(nsToFloat(a.latNS, time.Microsecond), q)) }
	m.layer["app_call_p50_us"] = us(ship, 0.5)
	m.layer["app_call_p99_us"] = us(ship, 0.99)
	m.layer["app_calls_per_s"] = ratio(float64(ship.calls), ship.wall.Seconds())
	m.layer["orb.plain_call_us"] = us(plain, 0.5)
	m.layer["probe.overhead_us"] = us(local, 0.5) - us(plain, 0.5)
	m.layer["probe.records_per_call"] = ratio(float64(appended), float64(ship.calls+e.warmShipCalls))
	m.layer["probe.local_calls_per_s"] = ratio(float64(local.calls), local.wall.Seconds())
	m.layer["telemetry.ship_overhead_us"] = us(ship, 0.5) - us(local, 0.5)
	if ship.bodyBytes != nil {
		m.layer["transport.bytes_per_call"] = ratio(float64(ship.bodyBytes.Load()), float64(ship.calls+e.warmShipCalls))
	}
	e.col.layers(m)
	return m, nil
}
