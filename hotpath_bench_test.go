// Hot-path benchmarks: the marginal cost of one monitored invocation,
// measured where the paper's Figure-1 claim lives — the synchronous
// stub→skeleton→stub round trip with all four probes firing. The companion
// alloc-regression tests in hotpath_alloc_test.go pin their allocation
// counts; the end-to-end cost of a monitored call is measured by the
// repository benchmark under bench/.
//
// All variants use the thread-pool policy so steady-state dispatch cost is
// measured, not goroutine spawn, and a CountingSink so probe cost is not
// confounded with sink cost (BenchmarkSinkOverhead measures sinks).
package causeway_test

import (
	"testing"

	"causeway/internal/benchgen/instrecho"
	"causeway/internal/gls"
	"causeway/internal/metrics"
	"causeway/internal/orb"
	"causeway/internal/probe"
	"causeway/internal/topology"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// hotPathPair builds an instrumented client/server ORB pair for hot-path
// measurement. transportKind is "inproc" or "tcp". A non-nil registry arms
// the in-process metrics plane on both sides, so the alloc ceilings and the
// metrics-overhead benchmark measure the monitored configuration a real
// deployment runs. chains mints the pair's chain UUIDs; nil means random,
// as deployed.
func hotPathPair(b testing.TB, transportKind string, collocated bool, reg *metrics.Registry, chains uuid.Generator) (*instrecho.EchoStub, chan string, func()) {
	b.Helper()
	net := transport.NewInprocNetwork()
	mk := func(name string) *orb.ORB {
		probes, err := probe.New(probe.Config{
			Process: topology.Process{ID: name, Processor: topology.Processor{ID: name, Type: "x86"}},
			Sink:    &probe.CountingSink{},
			Chains:  chains,
			Metrics: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		o, err := orb.New(orb.Config{
			Process:      topology.Process{ID: name, Processor: topology.Processor{ID: name, Type: "x86"}},
			Probes:       probes,
			Instrumented: true,
			Policy:       orb.ThreadPool,
			PoolSize:     2,
			Network:      net,
			Metrics:      reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		return o
	}
	server := mk("server")
	fired := make(chan string, 1)
	servant := hotPathServant{fired: fired}
	if err := instrecho.RegisterEcho(server, "e", "c", servant); err != nil {
		b.Fatal(err)
	}
	var (
		ep  string
		err error
	)
	if transportKind == "tcp" {
		ep, err = server.ListenTCP("127.0.0.1:0")
	} else {
		ep, err = server.ListenInproc("srv")
	}
	if err != nil {
		b.Fatal(err)
	}
	client := server
	if !collocated {
		client = mk("client")
	}
	stub := instrecho.NewEchoStub(client.RefTo(ep, "e", "Echo", "c"))
	// The measuring loop runs on this goroutine, playing the application
	// caller: register it so stub probes resolve identity over the g-pointer
	// fast path, exactly as a deployment's long-lived caller threads do.
	gls.Register()
	cleanup := func() {
		gls.Unregister()
		client.Probes().Tunnel().Clear()
		server.Shutdown()
		if client != server {
			client.Shutdown()
		}
	}
	return stub, fired, cleanup
}

type hotPathServant struct{ fired chan string }

func (s hotPathServant) Echo(payload string) (string, error) { return payload, nil }
func (s hotPathServant) Sum(values []int32) (int32, error)   { return 0, nil }
func (s hotPathServant) Fire(payload string) error {
	s.fired <- payload
	return nil
}

// BenchmarkSyncCallProbePath is the headline hot-path number: one
// synchronous instrumented invocation over the in-process transport, stub
// start to stub end, four probes firing, thread-pool dispatch.
func BenchmarkSyncCallProbePath(b *testing.B) {
	stub, _, cleanup := hotPathPair(b, "inproc", false, nil, nil)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Echo("x"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsOverhead isolates the cost of the in-process metrics
// plane on the headline invocation: the same sync inproc call with the
// registry detached ("off") and armed ("on"). The acceptance bar for the
// metrics plane is under 5% on this pair.
func BenchmarkMetricsOverhead(b *testing.B) {
	run := func(b *testing.B, reg *metrics.Registry) {
		stub, _, cleanup := hotPathPair(b, "inproc", false, reg, nil)
		defer cleanup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stub.Echo("x"); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, metrics.NewRegistry()) })
}

// BenchmarkHotPathSyncTCP is the same invocation over a real TCP loopback
// connection — the variant that exercises pooled frame buffers and the
// coalesced single-write transport path.
func BenchmarkHotPathSyncTCP(b *testing.B) {
	stub, _, cleanup := hotPathPair(b, "tcp", false, nil, nil)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Echo("x"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathOneway measures a oneway (asynchronous) invocation. The
// servant acknowledges through a channel and the loop waits for it, so
// exactly one call is in flight and queue growth never distorts the number.
func BenchmarkHotPathOneway(b *testing.B) {
	stub, fired, cleanup := hotPathPair(b, "inproc", false, nil, nil)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stub.Fire("x"); err != nil {
			b.Fatal(err)
		}
		<-fired
	}
}

// BenchmarkHotPathCollocated measures the collocation-optimized fast path:
// same process, both degenerate probe pairs firing, no marshalling.
func BenchmarkHotPathCollocated(b *testing.B) {
	stub, _, cleanup := hotPathPair(b, "inproc", true, nil, nil)
	defer cleanup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stub.Echo("x"); err != nil {
			b.Fatal(err)
		}
	}
}
