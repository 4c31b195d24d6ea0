package benchgen_test

import (
	"strings"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/benchgen/plainecho"
	"causeway/internal/logdb"
	"causeway/internal/orb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// echoServant implements both generated Echo interfaces (identical Go
// signatures, generated from one IDL source).
type echoServant struct{ fired chan string }

func (e *echoServant) Echo(payload string) (string, error) { return strings.ToUpper(payload), nil }

func (e *echoServant) Sum(values []int32) (int32, error) {
	var s int32
	for _, v := range values {
		s += v
	}
	return s, nil
}

func (e *echoServant) Fire(payload string) error {
	if e.fired != nil {
		e.fired <- payload
	}
	return nil
}

var (
	_ plainecho.Echo = (*echoServant)(nil)
	_ instrecho.Echo = (*echoServant)(nil)
)

func newORB(t testing.TB, net *transport.InprocNetwork, proc string, instrumented bool) (*orb.ORB, *probe.MemorySink) {
	t.Helper()
	sink := &probe.MemorySink{}
	p, err := probe.New(probe.Config{
		Process: topology.Process{ID: proc, Processor: topology.Processor{ID: proc, Type: "x86"}},
		Sink:    sink,
		Chains:  &uuid.SequentialGenerator{Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	o, err := orb.New(orb.Config{
		Process:      topology.Process{ID: proc, Processor: topology.Processor{ID: proc, Type: "x86"}},
		Probes:       p,
		Instrumented: instrumented,
		Network:      net,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, sink
}

// TestGeneratedPlainEndToEnd runs the non-instrumented compilation through
// the full ORB path: results correct, zero monitoring records.
func TestGeneratedPlainEndToEnd(t *testing.T) {
	net := transport.NewInprocNetwork()
	server, ssink := newORB(t, net, "server", false)
	defer server.Shutdown()
	if err := plainecho.RegisterEcho(server, "echo1", "echo-comp", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("echo-plain")
	if err != nil {
		t.Fatal(err)
	}
	client, csink := newORB(t, net, "client", false)
	defer client.Shutdown()
	stub := plainecho.NewEchoStub(client.RefTo(ep, "echo1", "Echo", "echo-comp"))

	got, err := stub.Echo("hello")
	if err != nil || got != "HELLO" {
		t.Fatalf("Echo = %q, %v", got, err)
	}
	sum, err := stub.Sum([]int32{1, 2, 3, 4})
	if err != nil || sum != 10 {
		t.Fatalf("Sum = %d, %v", sum, err)
	}
	if n := ssink.Len() + csink.Len(); n != 0 {
		t.Fatalf("plain generated code produced %d monitoring records", n)
	}
}

// TestGeneratedInstrumentedEndToEnd runs the instrumented compilation and
// reconstructs the causal chain from its records.
func TestGeneratedInstrumentedEndToEnd(t *testing.T) {
	net := transport.NewInprocNetwork()
	server, ssink := newORB(t, net, "server", true)
	defer server.Shutdown()
	fired := make(chan string, 1)
	if err := instrecho.RegisterEcho(server, "echo1", "echo-comp", &echoServant{fired: fired}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("echo-instr")
	if err != nil {
		t.Fatal(err)
	}
	client, csink := newORB(t, net, "client", true)
	defer client.Shutdown()
	stub := instrecho.NewEchoStub(client.RefTo(ep, "echo1", "Echo", "echo-comp"))

	got, err := stub.Echo("hi")
	if err != nil || got != "HI" {
		t.Fatalf("Echo = %q, %v", got, err)
	}
	if err := stub.Fire("evt"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("oneway not delivered")
	}
	client.Probes().Tunnel().Clear()

	// Wait for oneway skeleton records to land.
	deadline := time.Now().Add(5 * time.Second)
	for ssink.Len() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	db := logdb.NewStore()
	db.Insert(ssink.Snapshot()...)
	db.Insert(csink.Snapshot()...)
	g := analysis.Reconstruct(db)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	if g.Nodes() != 2 {
		t.Fatalf("Nodes = %d", g.Nodes())
	}
	ops := map[string]bool{}
	g.Walk(func(n *analysis.Node) { ops[n.Op().Operation] = true })
	if !ops["echo"] || !ops["fire"] {
		t.Fatalf("ops = %v", ops)
	}
}

// TestGeneratedCollocatedPath: an instrumented stub resolving a servant in
// the same ORB takes the collocated fast path.
func TestGeneratedCollocatedPath(t *testing.T) {
	net := transport.NewInprocNetwork()
	o, sink := newORB(t, net, "single", true)
	defer o.Shutdown()
	if err := instrecho.RegisterEcho(o, "echo1", "echo-comp", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := o.ListenInproc("self")
	if err != nil {
		t.Fatal(err)
	}
	stub := instrecho.NewEchoStub(o.RefTo(ep, "echo1", "Echo", "echo-comp"))
	if got, err := stub.Echo("x"); err != nil || got != "X" {
		t.Fatalf("Echo = %q, %v", got, err)
	}
	o.Probes().Tunnel().Clear()
	db := logdb.NewStore()
	db.Insert(sink.Snapshot()...)
	g := analysis.Reconstruct(db)
	if g.Nodes() != 1 || !g.Trees[0].Roots[0].Collocated {
		t.Fatalf("collocated path not taken: %d nodes", g.Nodes())
	}
}

// TestGeneratedSequenceMarshalling exercises the sequence<long> path both
// ways through real generated code.
func TestGeneratedSequenceMarshalling(t *testing.T) {
	net := transport.NewInprocNetwork()
	server, _ := newORB(t, net, "server", true)
	defer server.Shutdown()
	if err := instrecho.RegisterEcho(server, "echo1", "c", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ListenInproc("seq")
	if err != nil {
		t.Fatal(err)
	}
	client, _ := newORB(t, net, "client", true)
	defer client.Shutdown()
	stub := instrecho.NewEchoStub(client.RefTo(ep, "echo1", "Echo", "c"))
	sum, err := stub.Sum(nil)
	if err != nil || sum != 0 {
		t.Fatalf("Sum(nil) = %d, %v", sum, err)
	}
	big := make([]int32, 1000)
	for i := range big {
		big[i] = int32(i)
	}
	sum, err = stub.Sum(big)
	if err != nil || sum != 499500 {
		t.Fatalf("Sum(big) = %d, %v", sum, err)
	}
	client.Probes().Tunnel().Clear()
}
