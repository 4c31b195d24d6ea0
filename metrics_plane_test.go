package causeway

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/cluster"
	"causeway/internal/ftl"
	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/topology"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

// scrape fetches one URL off a process's debug server.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValue extracts one `name{labels} value` line's integer value.
func seriesValue(t *testing.T, exposition, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if ok && name == series {
			v, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("series %s has non-integer value %q", series, value)
			}
			return v
		}
	}
	t.Fatalf("series %s missing from exposition:\n%s", series, exposition)
	return 0
}

// TestMetricsQuantilesMatchOffline is the metrics plane's acceptance
// property: the p50/p95/p99 a live /metrics scrape reports for an
// interface's compensated chain latency are EQUAL — not approximately,
// byte for byte in integer nanoseconds — to the offline analyzer's
// InterfaceStat digests over the same records. The online monitor feeds
// the registry the same ComputeLatency output the offline pass computes,
// and both sides bucket through the same log-linear scheme, so nothing
// may diverge.
func TestMetricsQuantilesMatchOffline(t *testing.T) {
	reg := NewMetricsRegistry()
	monitor := NewOnlineMonitor(OnlineConfig{})
	net := NewNetwork()
	server, err := NewProcess(ProcessConfig{
		Name: "server", Network: net, Instrumented: true, Monitor: MonitorLatency,
		Online: monitor, Metrics: reg, ProcessorType: "x86",
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
		Name: "client", Network: net, Instrumented: true, Monitor: MonitorLatency,
		Online: monitor, Metrics: reg, DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "echo", "Echo", "c"))
	const calls = 60
	for i := 0; i < calls; i++ {
		if _, err := stub.Echo(strings.Repeat("x", 1+i%17)); err != nil {
			t.Fatal(err)
		}
		client.NewChain()
	}

	// Offline pass over the very same records.
	rep := AnalyzeProcesses(client, server)
	stats := analysis.InterfaceStats(rep.Graph, 1)
	var stat *analysis.InterfaceStat
	for i := range stats {
		if stats[i].Interface == "Echo" {
			stat = &stats[i]
		}
	}
	if stat == nil || stat.Latency.Count() != calls {
		t.Fatalf("offline stats for Echo = %+v, want %d timed calls", stat, calls)
	}

	exposition := scrape(t, client.DebugAddr(), "/metrics")
	label := `{iface="Echo"}`
	if got := seriesValue(t, exposition, "causeway_chain_latency_count"+label); got != calls {
		t.Fatalf("live count = %d, offline digest has %d", got, calls)
	}
	if got, want := seriesValue(t, exposition, "causeway_chain_latency_max_ns"+label), stat.Max.Nanoseconds(); got != want {
		t.Errorf("live max = %dns, offline max = %dns", got, want)
	}
	for _, q := range []struct {
		label string
		want  int64
	}{
		{"0.5", stat.P50().Nanoseconds()},
		{"0.95", stat.P95().Nanoseconds()},
		{"0.99", stat.P99().Nanoseconds()},
	} {
		series := fmt.Sprintf(`causeway_chain_latency_ns{iface="Echo",q="%s"}`, q.label)
		if got := seriesValue(t, exposition, series); got != q.want {
			t.Errorf("live q=%s is %dns, offline InterfaceStat says %dns", q.label, got, q.want)
		}
	}

	// The per-operation RED family counted every invocation on both sides.
	opLabel := `{iface="Echo",op="echo"}`
	if got := seriesValue(t, exposition, "causeway_op_calls_total"+opLabel); got != calls {
		t.Errorf("op calls_total = %d, want %d", got, calls)
	}
	if got := seriesValue(t, exposition, "causeway_op_dispatches_total"+opLabel); got != calls {
		t.Errorf("op dispatches_total = %d, want %d", got, calls)
	}
}

// TestNodeMetricsTimeServerStages: a running collector renders where its
// ship frames' time goes now that the reply no longer waits for the chain
// table — causeway_server_stage_ns for the decode, the journal write and
// the apply — with one observation per ship frame in each.
func TestNodeMetricsTimeServerStages(t *testing.T) {
	store, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	node, err := cluster.StartNode(cluster.NodeConfig{Listen: "127.0.0.1:0", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sh, err := telemetry.NewShipper(telemetry.ShipperConfig{
		Addr:          node.Addr(),
		Process:       topology.Process{ID: "p", Processor: topology.Processor{ID: "p", Type: "x86"}},
		FlushInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := &uuid.SequentialGenerator{Seed: 3}
	for i := 0; i < 50; i++ {
		chain := gen.NewUUID()
		for seq, e := range []ftl.Event{ftl.StubStart, ftl.StubEnd} {
			sh.Append(probe.Record{
				Kind: probe.KindEvent, Process: "p", ProcType: "x86", Chain: chain, Seq: uint64(seq + 1),
				Event: e, Op: probe.OpID{Interface: "I", Operation: "op"},
			})
		}
	}
	sh.Close() // its closing account is answered after every frame's apply

	var buf bytes.Buffer
	node.WriteMetrics(&buf)
	exposition := buf.String()
	frames := int64(node.Server().Stats().Batches)
	if frames == 0 {
		t.Fatal("the node took no ship frame")
	}
	for _, stage := range []string{"decode", "journal", "apply"} {
		label := fmt.Sprintf(`{stage="%s"}`, stage)
		if got := seriesValue(t, exposition, "causeway_server_stage_count"+label); got != frames {
			t.Errorf("stage %s observed %d frames, want the %d ship frames", stage, got, frames)
		}
		seriesValue(t, exposition, fmt.Sprintf(`causeway_server_stage_ns{stage="%s",q="0.99"}`, stage))
	}
}
