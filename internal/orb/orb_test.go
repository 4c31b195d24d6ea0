package orb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// calcServant implements Calc; it can fan out to a downstream Calc.
type calcServant struct {
	downstream Calc
	notified   chan string
}

func (c *calcServant) Add(x, y int32) (int32, error) {
	if c.downstream != nil {
		// Nest a remote child call, exercising chain propagation.
		return c.downstream.Add(x, y)
	}
	return x + y, nil
}

func (c *calcServant) Divide(x, y int32) (int32, error) {
	if y == 0 {
		return 0, &CalcError{Reason: "division by zero"}
	}
	return x / y, nil
}

func (c *calcServant) Notify(msg string) error {
	if c.notified != nil {
		c.notified <- msg
	}
	return nil
}

type testEnv struct {
	net   *transport.InprocNetwork
	sinks map[string]*probe.MemorySink
	orbs  []*ORB
}

func newEnv() *testEnv {
	return &testEnv{net: transport.NewInprocNetwork(), sinks: map[string]*probe.MemorySink{}}
}

func (e *testEnv) orb(t testing.TB, procID string, instrumented bool, policy PolicyKind) *ORB {
	t.Helper()
	sink := &probe.MemorySink{}
	e.sinks[procID] = sink
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: procID, Processor: topology.Processor{ID: procID + "-cpu", Type: "x86"}},
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: uint64(len(e.sinks))},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Process:      topology.Process{ID: procID, Processor: topology.Processor{ID: procID + "-cpu", Type: "x86"}},
		Probes:       p,
		Instrumented: instrumented,
		Policy:       policy,
		Network:      e.net,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.orbs = append(e.orbs, o)
	return o
}

func (e *testEnv) shutdown() {
	for _, o := range e.orbs {
		o.Shutdown()
	}
}

func (e *testEnv) dscg(t testing.TB) *analysis.DSCG {
	t.Helper()
	db := logdb.NewStore()
	for _, s := range e.sinks {
		db.Insert(s.Snapshot()...)
	}
	return analysis.Reconstruct(db)
}

func TestRemoteSyncCallPlain(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	server := env.orb(t, "server", false, ThreadPerRequest)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", false, ThreadPerRequest)
	stub := NewCalcStub(client.RefTo(ep, "calc1", "Calc", "calc"))
	got, err := stub.Add(2, 3)
	if err != nil || got != 5 {
		t.Fatalf("Add = %d, %v", got, err)
	}
	// Plain deployment: no monitoring records at all.
	if n := env.sinks["server"].Len() + env.sinks["client"].Len(); n != 0 {
		t.Fatalf("plain deployment produced %d records", n)
	}
}

func TestRemoteSyncCallInstrumented(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	server := env.orb(t, "server", true, ThreadPerRequest)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", true, ThreadPerRequest)
	stub := NewCalcStub(client.RefTo(ep, "calc1", "Calc", "calc"))
	got, err := stub.Add(2, 3)
	if err != nil || got != 5 {
		t.Fatalf("Add = %d, %v", got, err)
	}
	client.Probes().Tunnel().Clear()

	g := env.dscg(t)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	if g.Nodes() != 1 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
	n := g.Trees[0].Roots[0]
	if n.Op().Operation != "add" || n.ClientProcess() != "client" || n.ServerProcess() != "server" {
		t.Fatalf("node = %+v", n.Op())
	}
}

func TestNestedCrossProcessChain(t *testing.T) {
	// client -> front (add) -> back (add): the chain spans three logical
	// processes; all records correlate into one tree.
	env := newEnv()
	defer env.shutdown()
	back := env.orb(t, "back", true, ThreadPerRequest)
	if err := back.Register("calcB", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	epB, err := back.ListenInproc("back")
	if err != nil {
		t.Fatal(err)
	}
	front := env.orb(t, "front", true, ThreadPerRequest)
	downstream := NewCalcStub(front.RefTo(epB, "calcB", "Calc", "calc"))
	if err := front.Register("calcF", "Calc", "calc", &calcServant{downstream: downstream}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	epF, err := front.ListenInproc("front")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", true, ThreadPerRequest)
	stub := NewCalcStub(client.RefTo(epF, "calcF", "Calc", "calc"))
	got, err := stub.Add(20, 22)
	if err != nil || got != 42 {
		t.Fatalf("Add = %d, %v", got, err)
	}
	client.Probes().Tunnel().Clear()

	g := env.dscg(t)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	if g.Nodes() != 2 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
	outer := g.Trees[0].Roots[0]
	if len(outer.Children) != 1 {
		t.Fatalf("outer children = %d", len(outer.Children))
	}
	inner := outer.Children[0]
	if outer.ServerProcess() != "front" || inner.ServerProcess() != "back" {
		t.Fatalf("processes: outer %s, inner %s", outer.ServerProcess(), inner.ServerProcess())
	}
}

func TestUserExceptionMappedAndTraced(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	server := env.orb(t, "server", true, ThreadPerRequest)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", true, ThreadPerRequest)
	stub := NewCalcStub(client.RefTo(ep, "calc1", "Calc", "calc"))
	_, err = stub.Divide(1, 0)
	var ce *CalcError
	if !errors.As(err, &ce) || ce.Reason != "division by zero" {
		t.Fatalf("err = %v", err)
	}
	client.Probes().Tunnel().Clear()
	// The failed call still produces a complete, anomaly-free chain.
	g := env.dscg(t)
	if len(g.Anomalies) != 0 || g.Nodes() != 1 {
		t.Fatalf("nodes=%d anomalies=%v", g.Nodes(), g.Anomalies)
	}
}

func TestOnewayAcrossProcesses(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	notified := make(chan string, 1)
	server := env.orb(t, "server", true, ThreadPerRequest)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{notified: notified}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", true, ThreadPerRequest)
	stub := NewCalcStub(client.RefTo(ep, "calc1", "Calc", "calc"))
	if err := stub.Notify("wake up"); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-notified:
		if msg != "wake up" {
			t.Fatalf("msg = %q", msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("oneway never delivered")
	}
	client.Probes().Tunnel().Clear()
	// Wait for the server-side dispatch to finish logging.
	deadline := time.Now().Add(5 * time.Second)
	for env.sinks["server"].Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	g := env.dscg(t)
	if len(g.Anomalies) != 0 || g.Nodes() != 1 {
		t.Fatalf("nodes=%d anomalies=%v", g.Nodes(), g.Anomalies)
	}
	n := g.Trees[0].Roots[0]
	if !n.Oneway || n.SkelStart == nil {
		t.Fatalf("oneway node incomplete: %+v", n)
	}
}

func TestCollocatedFastPath(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	o := env.orb(t, "single", true, ThreadPerRequest)
	if err := o.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := o.ListenInproc("self")
	if err != nil {
		t.Fatal(err)
	}
	stub := NewCalcStub(o.RefTo(ep, "calc1", "Calc", "calc"))
	got, err := stub.Add(1, 2)
	if err != nil || got != 3 {
		t.Fatalf("Add = %d, %v", got, err)
	}
	o.Probes().Tunnel().Clear()
	g := env.dscg(t)
	if g.Nodes() != 1 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
	if !g.Trees[0].Roots[0].Collocated {
		t.Fatal("call did not take the collocated path")
	}
}

func TestDisableCollocationForcesFullPath(t *testing.T) {
	env := newEnv()
	sink := &probe.MemorySink{}
	env.sinks["single"] = sink
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: "single", Processor: topology.Processor{ID: "c", Type: "x86"}},
		Sink:    sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{
		Process:            topology.Process{ID: "single", Processor: topology.Processor{ID: "c", Type: "x86"}},
		Probes:             p,
		Instrumented:       true,
		Network:            env.net,
		DisableCollocation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.orbs = append(env.orbs, o)
	defer env.shutdown()
	if err := o.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := o.ListenInproc("self")
	if err != nil {
		t.Fatal(err)
	}
	stub := NewCalcStub(o.RefTo(ep, "calc1", "Calc", "calc"))
	if got, err := stub.Add(1, 2); err != nil || got != 3 {
		t.Fatalf("Add = %d, %v", got, err)
	}
	o.Probes().Tunnel().Clear()
	g := env.dscg(t)
	if g.Nodes() != 1 || g.Trees[0].Roots[0].Collocated {
		t.Fatal("collocation not disabled")
	}
}

func TestMixedInstrumentationIsWireIncompatible(t *testing.T) {
	// An instrumented client against a plain server must fail loudly (the
	// paper's deployments are governed by one compiler flag; mixing is a
	// configuration error, not silent corruption).
	env := newEnv()
	defer env.shutdown()
	server := env.orb(t, "server", false, ThreadPerRequest)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", true, ThreadPerRequest)
	stub := NewCalcStub(client.RefTo(ep, "calc1", "Calc", "calc"))
	if _, err := stub.Add(2, 3); err == nil {
		t.Fatal("mixed instrumented/plain call succeeded")
	}
	client.Probes().Tunnel().Clear()
}

func TestUnknownObjectAndOperation(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	server := env.orb(t, "server", false, ThreadPerRequest)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", false, ThreadPerRequest)

	// Unknown object.
	stub := NewCalcStub(client.RefTo(ep, "ghost", "Calc", "calc"))
	_, err = stub.Add(1, 1)
	var se *SystemException
	if !errors.As(err, &se) || se.Code != CodeObjectNotExist {
		t.Fatalf("unknown object err = %v", err)
	}

	// Unknown operation (raw invoke).
	ref := client.RefTo(ep, "calc1", "Calc", "calc")
	rep, err := ref.Invoke("bogus", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplyToError(rep); err == nil {
		t.Fatal("bogus operation succeeded")
	} else if !errors.As(err, &se) || se.Code != CodeBadOperation {
		t.Fatalf("bogus op err = %v", err)
	}
}

func TestThreadingPoliciesServeConcurrentClients(t *testing.T) {
	for _, pol := range []PolicyKind{ThreadPerRequest, ThreadPerConnection, ThreadPool} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			env := newEnv()
			defer env.shutdown()
			server := env.orb(t, "server", true, pol)
			if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
				t.Fatal(err)
			}
			ep, err := server.ListenInproc("srv")
			if err != nil {
				t.Fatal(err)
			}
			const clients = 6
			var wg sync.WaitGroup
			errs := make(chan error, clients)
			for i := 0; i < clients; i++ {
				c := env.orb(t, fmt.Sprintf("client%d", i), true, ThreadPerRequest)
				wg.Add(1)
				go func(o *ORB) {
					defer wg.Done()
					stub := NewCalcStub(o.RefTo(ep, "calc1", "Calc", "calc"))
					for j := 0; j < 20; j++ {
						if got, err := stub.Add(int32(j), 1); err != nil || got != int32(j)+1 {
							errs <- fmt.Errorf("add: %d, %w", got, err)
							return
						}
					}
					o.Probes().Tunnel().Clear()
				}(c)
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			g := env.dscg(t)
			if len(g.Anomalies) != 0 {
				t.Fatalf("anomalies under %v: %v", pol, g.Anomalies)
			}
			if g.Nodes() != clients*20 {
				t.Fatalf("nodes = %d, want %d", g.Nodes(), clients*20)
			}
			// O2: no dispatch thread holds a stale annotation after quiesce.
			if n := server.Probes().Tunnel().Annotated(); n != 0 {
				t.Fatalf("%d stale annotations under %v", n, pol)
			}
		})
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	server := env.orb(t, "server", true, ThreadPool)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := env.orb(t, "client", true, ThreadPerRequest)
	stub := NewCalcStub(client.RefTo(ep, "calc1", "Calc", "calc"))
	if got, err := stub.Add(40, 2); err != nil || got != 42 {
		t.Fatalf("Add over TCP = %d, %v", got, err)
	}
	client.Probes().Tunnel().Clear()
	g := env.dscg(t)
	if g.Nodes() != 1 || len(g.Anomalies) != 0 {
		t.Fatalf("nodes=%d anomalies=%v", g.Nodes(), g.Anomalies)
	}
}

func TestDirectoryResolve(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	dir := NewDirectory()
	server := env.orb(t, "server", false, ThreadPerRequest)
	if err := server.Register("calc1", "Calc", "calc", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	dir.Bind("calculator", Binding{Endpoint: ep, Key: "calc1", Interface: "Calc", Component: "calc"})
	client := env.orb(t, "client", false, ThreadPerRequest)
	ref, err := dir.Resolve(client, "calculator")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := NewCalcStub(ref).Add(3, 4); err != nil || got != 7 {
		t.Fatalf("resolved Add = %d, %v", got, err)
	}
	if _, err := dir.Resolve(client, "nope"); err == nil {
		t.Fatal("unbound name resolved")
	}
	if names := dir.Names(); len(names) != 1 || names[0] != "calculator" {
		t.Fatalf("Names = %v", names)
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	env := newEnv()
	defer env.shutdown()
	o := env.orb(t, "p", false, ThreadPerRequest)
	if err := o.Register("k", "Calc", "c", &calcServant{}, DispatchCalc); err != nil {
		t.Fatal(err)
	}
	if err := o.Register("k", "Calc", "c", &calcServant{}, DispatchCalc); err == nil {
		t.Fatal("duplicate key accepted")
	}
}

func TestShutdownIdempotentAndRejectsUse(t *testing.T) {
	env := newEnv()
	o := env.orb(t, "p", false, ThreadPerRequest)
	o.Shutdown()
	o.Shutdown()
	if err := o.Register("k", "I", "c", nil, nil); err == nil {
		t.Fatal("Register after shutdown accepted")
	}
	if _, err := o.client("inproc://x"); err == nil {
		t.Fatal("client after shutdown accepted")
	}
}

func TestMissingProbesRejected(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("ORB without probes accepted")
	}
}
