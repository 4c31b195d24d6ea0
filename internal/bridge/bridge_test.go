package bridge

import (
	"fmt"
	"strings"
	"testing"

	"causeway/internal/analysis"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/com"
	"causeway/internal/logdb"
	"causeway/internal/orb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// corbaBackend is a plain CORBA servant at the far end of the hybrid chain.
type corbaBackend struct{}

func (corbaBackend) Echo(payload string) (string, error) { return strings.ToUpper(payload), nil }
func (corbaBackend) Sum(values []int32) (int32, error)   { return 0, nil }
func (corbaBackend) Fire(payload string) error           { return nil }

// corbaFrontServant is the bridge-domain CORBA servant forwarding into COM.
type corbaFrontServant struct {
	comObj *com.ObjectRef
}

func (s *corbaFrontServant) Echo(payload string) (string, error) {
	res, err := s.comObj.Call("transform", payload)
	if err != nil {
		return "", err
	}
	out, ok := res[0].(string)
	if !ok {
		return "", fmt.Errorf("bad COM result %T", res[0])
	}
	return out, nil
}

func (s *corbaFrontServant) Sum(values []int32) (int32, error) { return 0, nil }
func (s *corbaFrontServant) Fire(payload string) error         { return nil }

func proc(id string) topology.Process {
	return topology.Process{ID: id, Processor: topology.Processor{ID: id + "-cpu", Type: "x86"}}
}

// TestBridgeCausality drives one request across three hops spanning both
// infrastructures — CORBA client → CORBA servant → COM STA object → CORBA
// backend — and verifies the reconstructed chain is a single, anomaly-free
// tree whose nodes alternate domains.
func TestBridgeCausality(t *testing.T) {
	net := transport.NewInprocNetwork()

	// Backend CORBA process.
	backendSink := &probe.MemorySink{}
	backendProbes, err := probe.New(probe.Config{Process: proc("backend"), Sink: backendSink, Chains: &uuid.SequentialGenerator{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	backendORB, err := newORB(backendProbes, net)
	if err != nil {
		t.Fatal(err)
	}
	defer backendORB.Shutdown()
	if err := instrecho.RegisterEcho(backendORB, "backend-echo", "backend-comp", corbaBackend{}); err != nil {
		t.Fatal(err)
	}
	backendEp, err := backendORB.ListenInproc("backend")
	if err != nil {
		t.Fatal(err)
	}

	// Bridge domain: ORB + COM over one Probes.
	bridgeSink := &probe.MemorySink{}
	dom, err := NewDomain(Config{
		Process:      proc("bridge"),
		Sink:         bridgeSink,
		Network:      net,
		Instrumented: true,
		Chains:       &uuid.SequentialGenerator{Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dom.Shutdown()

	// COM STA object that forwards to the CORBA backend through a stub.
	backendStub := instrecho.NewEchoStub(dom.ORB.RefTo(backendEp, "backend-echo", "Echo", "backend-comp"))
	sta := dom.COM.NewSTA("ui")
	comServant := NewComServant(MethodTable{
		"transform": func(args []any) ([]any, error) {
			in, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("bad arg %T", args[0])
			}
			out, err := backendStub.Echo("via-com:" + in)
			if err != nil {
				return nil, err
			}
			return []any{out}, nil
		},
	})
	comRef, err := dom.COM.Register("transformer", "ITransform", "com-comp", sta, comServant)
	if err != nil {
		t.Fatal(err)
	}

	// Bridge-domain CORBA servant forwarding into COM.
	if err := instrecho.RegisterEcho(dom.ORB, "front-echo", "front-comp", &corbaFrontServant{comObj: comRef}); err != nil {
		t.Fatal(err)
	}
	frontEp, err := dom.ORB.ListenInproc("front")
	if err != nil {
		t.Fatal(err)
	}

	// Client CORBA process.
	clientSink := &probe.MemorySink{}
	clientProbes, err := probe.New(probe.Config{Process: proc("client"), Sink: clientSink, Chains: &uuid.SequentialGenerator{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	clientORB, err := newORB(clientProbes, net)
	if err != nil {
		t.Fatal(err)
	}
	defer clientORB.Shutdown()
	stub := instrecho.NewEchoStub(clientORB.RefTo(frontEp, "front-echo", "Echo", "front-comp"))

	got, err := stub.Echo("ping")
	if err != nil {
		t.Fatal(err)
	}
	if got != "VIA-COM:PING" {
		t.Fatalf("Echo = %q", got)
	}
	clientProbes.Tunnel().Clear()

	db := logdb.NewStore()
	db.Insert(clientSink.Snapshot()...)
	db.Insert(bridgeSink.Snapshot()...)
	db.Insert(backendSink.Snapshot()...)
	g := analysis.Reconstruct(db)
	if len(g.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", g.Anomalies)
	}
	if len(g.Trees) != 1 || g.Nodes() != 3 {
		t.Fatalf("trees=%d nodes=%d, want one tree of three nodes", len(g.Trees), g.Nodes())
	}
	root := g.Trees[0].Roots[0]
	if root.Op().Interface != "Echo" {
		t.Fatalf("root = %+v", root.Op())
	}
	mid := root.Children[0]
	if mid.Op().Interface != "ITransform" {
		t.Fatalf("middle hop = %+v (causality did not cross into COM)", mid.Op())
	}
	leaf := mid.Children[0]
	if leaf.Op().Interface != "Echo" || leaf.ServerProcess() != "backend" {
		t.Fatalf("leaf = %+v on %s (causality did not cross back into CORBA)", leaf.Op(), leaf.ServerProcess())
	}
}

func TestNewComServantUnknownMethod(t *testing.T) {
	sv := NewComServant(MethodTable{})
	if _, err := sv.Invoke("ghost", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestDomainValidation(t *testing.T) {
	if _, err := NewDomain(Config{}); err == nil {
		t.Fatal("domain without sink accepted")
	}
}

// newORB builds a minimal instrumented ORB around existing probes.
func newORB(p *probe.Probes, net *transport.InprocNetwork) (*orb.ORB, error) {
	return orb.New(orb.Config{
		Process:      p.Process(),
		Probes:       p,
		Instrumented: true,
		Network:      net,
	})
}
