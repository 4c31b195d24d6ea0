package causeway

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"causeway/internal/benchgen/instrecho"
	"causeway/internal/cluster"
	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/sampling"
	"causeway/internal/streamrecon"
)

type upperServant struct{}

func (upperServant) Echo(payload string) (string, error) { return strings.ToUpper(payload), nil }
func (upperServant) Sum(values []int32) (int32, error) {
	var s int32
	for _, v := range values {
		s += v
	}
	return s, nil
}
func (upperServant) Fire(string) error { return nil }

func TestProcessLifecycleAndAnalyze(t *testing.T) {
	net := NewNetwork()
	server, err := NewProcess(ProcessConfig{
		Name: "server", Network: net, Instrumented: true, Monitor: MonitorLatency,
		ProcessorType: "x86",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := instrecho.RegisterEcho(server.ORB, "echo", "echo-comp", upperServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}

	client, err := NewProcess(ProcessConfig{Name: "client", Network: net, Instrumented: true, Monitor: MonitorLatency})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "echo", "Echo", "echo-comp"))
	for i := 0; i < 3; i++ {
		if got, err := stub.Echo("hi"); err != nil || got != "HI" {
			t.Fatalf("Echo = %q, %v", got, err)
		}
		client.NewChain()
	}

	rep := AnalyzeProcesses(client, server)
	if rep.Stats.Calls != 3 || rep.Graph.Nodes() != 3 {
		t.Fatalf("stats = %+v, nodes = %d", rep.Stats, rep.Graph.Nodes())
	}
	if len(rep.Graph.Anomalies) != 0 {
		t.Fatalf("anomalies: %v", rep.Graph.Anomalies)
	}
	if len(rep.LatencyStats) != 1 || rep.LatencyStats[0].Count != 3 {
		t.Fatalf("latency stats = %+v", rep.LatencyStats)
	}
	if rep.LatencyStats[0].Mean <= 0 {
		t.Fatal("non-positive mean latency")
	}

	var dscg strings.Builder
	if err := rep.WriteDSCG(&dscg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dscg.String(), "Echo::echo") {
		t.Fatalf("DSCG text:\n%s", dscg.String())
	}
	var ccsg strings.Builder
	if err := rep.WriteCCSGXML(&ccsg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ccsg.String(), "InvocationTimes") {
		t.Fatal("CCSG XML missing fields")
	}
	if err := rep.WriteCCSGText(&ccsg); err != nil {
		t.Fatal(err)
	}
}

func TestFileLoggingAndAnalyzeFiles(t *testing.T) {
	dir := t.TempDir()
	net := NewNetwork()
	server, err := NewProcess(ProcessConfig{
		Name: "server", Network: net, Instrumented: true,
		LogPath: filepath.Join(dir, "server.ftlog"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := instrecho.RegisterEcho(server.ORB, "echo", "c", upperServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewProcess(ProcessConfig{
		Name: "client", Network: net, Instrumented: true,
		LogPath: filepath.Join(dir, "client.ftlog"),
	})
	if err != nil {
		t.Fatal(err)
	}
	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "echo", "Echo", "c"))
	if _, err := stub.Echo("x"); err != nil {
		t.Fatal(err)
	}
	client.NewChain()
	if client.Records() != nil {
		t.Fatal("file-logged process returned in-memory records")
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := AnalyzeFiles(filepath.Join(dir, "*.ftlog"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph.Nodes() != 1 || len(rep.Graph.Anomalies) != 0 {
		t.Fatalf("nodes=%d anomalies=%v", rep.Graph.Nodes(), rep.Graph.Anomalies)
	}
}

func TestMonitorCPUEndToEnd(t *testing.T) {
	net := NewNetwork()
	server, err := NewProcess(ProcessConfig{
		Name: "server", Network: net, Instrumented: true, Monitor: MonitorCPU,
		ProcessorType: "x86",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := instrecho.RegisterEcho(server.ORB, "echo", "c", burnServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewProcess(ProcessConfig{Name: "client", Network: net, Instrumented: true, Monitor: MonitorCPU})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "echo", "Echo", "c"))
	if _, err := stub.Echo("spin"); err != nil {
		t.Fatal(err)
	}
	client.NewChain()

	rep := AnalyzeProcesses(client, server)
	if rep.Graph.Nodes() != 1 {
		t.Fatalf("nodes = %d", rep.Graph.Nodes())
	}
	n := rep.Graph.Trees[0].Roots[0]
	if !n.HasCPU {
		t.Skip("per-thread CPU not supported on this platform")
	}
	if n.SelfCPU <= 0 {
		t.Fatalf("SelfCPU = %v, want > 0 for a spinning servant", n.SelfCPU)
	}
}

// burnServant burns real CPU so MonitorCPU has something to observe.
type burnServant struct{}

func (burnServant) Echo(payload string) (string, error) {
	deadline := time.Now().Add(30 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	_ = x
	return payload, nil
}
func (burnServant) Sum([]int32) (int32, error) { return 0, nil }
func (burnServant) Fire(string) error          { return nil }

func TestProcessConfigValidation(t *testing.T) {
	if _, err := NewProcess(ProcessConfig{}); err == nil {
		t.Fatal("nameless process accepted")
	}
	if _, err := NewProcess(ProcessConfig{Name: "x", LogPath: "/nonexistent-dir/y.ftlog"}); err == nil {
		t.Fatal("bad log path accepted")
	}
	for _, shipTo := range []string{" , ", "127.0.0.1:1,127.0.0.1:1"} {
		if _, err := NewProcess(ProcessConfig{Name: "x", ShipTo: shipTo}); err == nil {
			t.Fatalf("ShipTo %q accepted", shipTo)
		}
	}
}

func TestOnlineMonitorViaFacade(t *testing.T) {
	var mu sync.Mutex
	var ops []string
	monitor := NewOnlineMonitor(OnlineConfig{OnRoot: func(ev RootEvent) {
		mu.Lock()
		defer mu.Unlock()
		ops = append(ops, ev.Root.Op().Operation)
	}})
	net := NewNetwork()
	server, err := NewProcess(ProcessConfig{
		Name: "server", Network: net, Instrumented: true, Online: monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := instrecho.RegisterEcho(server.ORB, "echo", "c", upperServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewProcess(ProcessConfig{
		Name: "client", Network: net, Instrumented: true, Online: monitor,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "echo", "Echo", "c"))
	if _, err := stub.Echo("live"); err != nil {
		t.Fatal(err)
	}
	client.NewChain()

	mu.Lock()
	defer mu.Unlock()
	if len(ops) != 1 || ops[0] != "echo" {
		t.Fatalf("online roots = %v", ops)
	}
	// The persistent log still captured everything.
	if got := recordCount(client) + recordCount(server); got != 4 {
		t.Fatalf("persistent records = %d, want 4", got)
	}
}

func recordCount(p *Process) int { return len(p.Records()) }

// TestProcessLogLosslessUnderSlowMonitor: the probes hand each span to the
// process's log and online monitor on the calling goroutine, so a slow
// monitor slows the callers down but never costs the log a record. Two
// processes share a monitor whose OnRoot spins for 20µs while 16 callers
// run concurrently; every call must leave its 2 records in each log and
// reach OnRoot once.
func TestProcessLogLosslessUnderSlowMonitor(t *testing.T) {
	const (
		callers = 16
		calls   = 128
	)
	var roots atomic.Int64
	monitor := NewOnlineMonitor(OnlineConfig{OnRoot: func(RootEvent) {
		for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
		}
		roots.Add(1)
	}})
	dir := t.TempDir()
	net := NewNetwork()
	server, err := NewProcess(ProcessConfig{
		Name: "server", Network: net, Instrumented: true, Online: monitor,
		LogPath: filepath.Join(dir, "server.ftlog"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := instrecho.RegisterEcho(server.ORB, "echo", "c", upperServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenInproc("srv")
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewProcess(ProcessConfig{
		Name: "client", Network: net, Instrumented: true, Online: monitor,
		LogPath: filepath.Join(dir, "client.ftlog"),
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "echo", "Echo", "c"))
			for i := 0; i < calls; i++ {
				if _, err := stub.Echo("x"); err != nil {
					errs <- err
					return
				}
				client.NewChain()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"client", "server"} {
		f, err := os.Open(filepath.Join(dir, name+".ftlog"))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := probe.ReadStream(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2*callers*calls {
			t.Errorf("%s log holds %d records, want %d (2 per call)", name, len(recs), 2*callers*calls)
		}
	}
	if got := roots.Load(); got != callers*calls {
		t.Errorf("OnRoot fired %d times, want once per call (%d)", got, callers*calls)
	}
}

// TestShippingProcessFollowsServedRate: every shipping process takes the
// head-sampling rate its collector serves, at the handshake and at each
// poll after it, and applies it to the chains it begins; a collector that
// serves no rate leaves the process at its configured rate.
func TestShippingProcessFollowsServedRate(t *testing.T) {
	startNode := func(rate func() float64) *cluster.Node {
		t.Helper()
		node, err := cluster.StartNode(cluster.NodeConfig{Listen: "127.0.0.1:0", Store: logdb.NewStore(), SampleRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		return node
	}
	var lowered atomic.Bool // the steering collector serves 1 until the test lowers it to 0
	steering := startNode(func() float64 {
		if lowered.Load() {
			return 0
		}
		return 1
	})
	silent := startNode(nil)

	net := NewNetwork()
	steered, err := NewProcess(ProcessConfig{Name: "steered", Network: net, Instrumented: true, ShipTo: steering.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer steered.Close()
	kept, err := NewProcess(ProcessConfig{Name: "kept", Instrumented: true, ShipTo: silent.Addr(), ChainSampleRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer kept.Close()
	if r := steered.SamplingRate(); r != 1 {
		t.Fatalf("steered process starts at rate %g, want 1", r)
	}

	if err := instrecho.RegisterEcho(steered.ORB, "echo", "c", upperServant{}); err != nil {
		t.Fatal(err)
	}
	ep, err := steered.ORB.ListenInproc("steered")
	if err != nil {
		t.Fatal(err)
	}
	stub := instrecho.NewEchoStub(steered.ORB.RefTo(ep, "echo", "Echo", "c"))
	call := func() {
		t.Helper()
		if _, err := stub.Echo("x"); err != nil {
			t.Fatal(err)
		}
		steered.NewChain()
	}
	call()
	before := steered.ShipperStats().Appended
	if before == 0 {
		t.Fatal("a chain begun at rate 1 left no records")
	}

	// The collector lowers its rate; the shipper polls once a second.
	lowered.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for steered.SamplingRate() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("served rate 0 never applied: rate %g", steered.SamplingRate())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		call()
	}
	if after := steered.ShipperStats().Appended; after != before {
		t.Fatalf("rate 0 still recorded chains: %d records, was %d", after, before)
	}

	// The other shipper started with this one and has polled by now too.
	time.Sleep(500 * time.Millisecond)
	if r := kept.SamplingRate(); r != 0.5 {
		t.Fatalf("a collector serving no rate moved the process to %g, want 0.5", r)
	}
}

// startQuietNodes starts n collectors whose tail policy drops every clean
// chain once quiescence evicts it, and whose tables soon forget the chain,
// so what they keep does not grow with the calls shipped to them.
func startQuietNodes(t *testing.T, n int) []*cluster.Node {
	t.Helper()
	var nodes []*cluster.Node
	for i := 0; i < n; i++ {
		node, err := cluster.StartNode(cluster.NodeConfig{
			Listen: "127.0.0.1:0",
			Store:  logdb.NewStore(),
			Table: streamrecon.Config{
				Quiescence: 10 * time.Millisecond,
				StaleAfter: 20 * time.Millisecond,
				Tail:       &sampling.TailPolicy{NormalRate: 0},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes = append(nodes, node)
	}
	return nodes
}

func nodeAddrs(nodes []*cluster.Node) []string {
	var addrs []string
	for _, n := range nodes {
		addrs = append(addrs, n.Addr())
	}
	return addrs
}

// TestShippingProcessMemoryBounded: a process that ships and keeps no log
// holds no copy of its records, so however many calls it makes its heap
// stays within the shipper's ring, which is allocated up front — for one
// collector and for a tier of three alike. The collectors keep nothing
// either.
func TestShippingProcessMemoryBounded(t *testing.T) {
	for _, collectors := range []int{1, 3} {
		t.Run(fmt.Sprintf("collectors=%d", collectors), func(t *testing.T) {
			nodes := startQuietNodes(t, collectors)
			shipTo := strings.Join(nodeAddrs(nodes), ",")
			tick := func() {
				for _, n := range nodes {
					n.Tick()
				}
			}
			open := func() int {
				sum := 0
				for _, n := range nodes {
					sum += n.Table().OpenChains()
				}
				return sum
			}
			net := NewNetwork()
			server, err := NewProcess(ProcessConfig{Name: "server", Network: net, Instrumented: true, ShipTo: shipTo})
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			if err := instrecho.RegisterEcho(server.ORB, "echo", "c", upperServant{}); err != nil {
				t.Fatal(err)
			}
			ep, err := server.ORB.ListenInproc("server")
			if err != nil {
				t.Fatal(err)
			}
			client, err := NewProcess(ProcessConfig{Name: "client", Network: net, Instrumented: true, ShipTo: shipTo})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "echo", "Echo", "c"))

			// settledHeap makes calls, ticking the collectors as collectd
			// does, waits until both processes have shipped everything and
			// the collectors have let every chain go, and returns the live
			// heap.
			settledHeap := func(calls int) uint64 {
				t.Helper()
				for i := 1; i <= calls; i++ {
					if _, err := stub.Echo("x"); err != nil {
						t.Fatal(err)
					}
					client.NewChain()
					if i%100 == 0 {
						tick()
					}
				}
				deadline := time.Now().Add(10 * time.Second)
				for {
					c, s := client.ShipperStats(), server.ShipperStats()
					if c.Shipped == c.Appended && s.Shipped == s.Appended && open() == 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("not settled: client %+v, server %+v, %d open chains", c, s, open())
					}
					time.Sleep(5 * time.Millisecond)
					tick()
				}
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				return ms.HeapAlloc
			}
			const calls = 20000
			before := settledHeap(2000)
			after := settledHeap(calls)
			// The rings were allocated with the processes; what a call may
			// leave behind is nothing, so the bound is a constant for the
			// runtime's and the collectors' own churn.
			const bound = 4 << 20
			if after > before && after-before > bound {
				t.Fatalf("heap grew %d KB over %d calls (%d B a call), want at most %d KB", (after-before)>>10, calls, (after-before)/calls, bound>>10)
			}
			t.Logf("heap %d KB → %d KB over %d calls", before>>10, after>>10, calls)
			if client.Records() != nil || server.Records() != nil {
				t.Fatal("a shipping process without a log kept its records")
			}
		})
	}
}

// TestShippingProcessHoldsOneRing: a process shipping to a tier of three
// holds one span ring, not one a member — its heap after NewProcess is one
// ring plus a constant — and a ring change allocates none: three epoch
// changes allocate well under one ring in all.
func TestShippingProcessHoldsOneRing(t *testing.T) {
	nodes := startQuietNodes(t, 3)
	addrs := nodeAddrs(nodes)
	// The default ring: 8192 cells of four records and a sequence word.
	ringBytes := uint64(8192 * (4*unsafe.Sizeof(probe.Record{}) + 16))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := NewProcess(ProcessConfig{Name: "client", Network: NewNetwork(), Instrumented: true, ShipTo: strings.Join(addrs, ",")})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	deadline := time.Now().Add(10 * time.Second)
	for p.ShipperStats().Connects < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("shipper did not reach all three collectors: %+v", p.ShipperStats())
		}
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	const slack = 2 << 20
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("NewProcess holds %d KB; one ring is %d KB", held>>10, ringBytes>>10)
	if held > int64(ringBytes+slack) {
		t.Fatalf("a process shipping to three collectors holds %d KB, want at most one ring (%d KB) + %d KB", held>>10, ringBytes>>10, slack>>10)
	}

	runtime.ReadMemStats(&before)
	for epoch, members := range [][]string{addrs[:2], addrs, addrs[1:]} {
		ring, err := cluster.Assign(uint64(epoch+1), cluster.DefaultSlots, cluster.Members(members...))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes {
			n.SetRing(ring)
		}
		deadline := time.Now().Add(10 * time.Second)
		for r, _ := p.ClusterRing(); r.Epoch != ring.Epoch; r, _ = p.ClusterRing() {
			if time.Now().After(deadline) {
				t.Fatalf("process still routes by epoch %d, want %d", r.Epoch, ring.Epoch)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("three ring changes allocated %d KB", alloc>>10)
	if alloc > ringBytes/8 {
		t.Fatalf("three ring changes allocated %d KB, want well under one ring (%d KB)", alloc>>10, ringBytes>>10)
	}
	if st := p.ShipperStats(); st.Rebalances != 3 {
		t.Fatalf("%d rebalances, want 3", st.Rebalances)
	}
}
