package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causeway"
	"causeway/internal/benchgen/instrecho"
	"causeway/internal/cluster"
	"causeway/internal/debugserver"
	"causeway/internal/logdb"
	"causeway/internal/probe"
)

type fleetEcho struct{}

func (fleetEcho) Echo(payload string) (string, error) { return payload, nil }
func (fleetEcho) Sum([]int32) (int32, error)          { return 0, nil }
func (fleetEcho) Fire(string) error                   { return nil }

// Ways an exportSpy answers /exportz.
const (
	serveWhole = iota
	serveTorn  // the body stops in the middle of its first frame
	serve503
)

// exportSpy stands in front of a node's /exportz: it counts the requests
// and the records it served, and can tear or refuse the body.
type exportSpy struct {
	export http.HandlerFunc
	mode   atomic.Int32

	mu      sync.Mutex
	gets    int
	records int
}

func (s *exportSpy) counts() (gets, records int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.records
}

func (s *exportSpy) serve(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	s.export(rec, r)
	body := rec.Body.Bytes()
	n := 0
	err := probe.ReadFrames(bytes.NewReader(body), func(recs []probe.Record) { n += len(recs) })
	s.mu.Lock()
	s.gets++
	s.records += n
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	switch s.mode.Load() {
	case serveTorn:
		if len(body) < 12 {
			http.Error(w, "no frame to tear", http.StatusInternalServerError)
			return
		}
		body = body[:12+int(binary.LittleEndian.Uint32(body[8:]))/2]
	case serve503:
		http.Error(w, "collector draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}

// runningFleet is a drained three-collector tier on one ring, each node
// behind a debug server serving its Handlers with /exportz spied on. The
// echo workload shipped to it through ShipTo also logged every record to
// per-process .ftlog files: logs is the one store holding every record.
type runningFleet struct {
	debug []string
	spies []*exportSpy
	held  int // records the members' stores hold together
	logs  string
}

func startFleet(t *testing.T, chains int) runningFleet {
	t.Helper()
	var fx runningFleet
	var nodes []*cluster.Node
	var stores []*logdb.Store
	var addrs []string
	for i := 0; i < 3; i++ {
		db := logdb.NewStore()
		node, err := cluster.StartNode(cluster.NodeConfig{Listen: "127.0.0.1:0", Store: db})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes, stores, addrs = append(nodes, node), append(stores, db), append(addrs, node.Addr())

		handlers := node.Handlers()
		spy := &exportSpy{export: handlers["/exportz"]}
		handlers["/exportz"] = spy.serve
		dbg, err := debugserver.Start(debugserver.Config{Addr: "127.0.0.1:0", Process: fmt.Sprint("collector-", i), Extra: handlers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dbg.Close() })
		fx.spies, fx.debug = append(fx.spies, spy), append(fx.debug, dbg.Addr())
	}
	ring, err := cluster.Assign(1, cluster.DefaultSlots, cluster.Members(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		n.SetRing(ring)
	}

	logDir := t.TempDir()
	fx.logs = filepath.Join(logDir, "*.ftlog")
	newProc := func(name string) *causeway.Process {
		p, err := causeway.NewProcess(causeway.ProcessConfig{
			Name:         name,
			Instrumented: true,
			Monitor:      causeway.MonitorLatency,
			ShipTo:       strings.Join(addrs, ","),
			LogPath:      filepath.Join(logDir, name+".ftlog"),
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	server := newProc("server")
	if err := instrecho.RegisterEcho(server.ORB, "svc", "svc-comp", fleetEcho{}); err != nil {
		t.Fatal(err)
	}
	ep, err := server.ORB.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := newProc("client")
	stub := instrecho.NewEchoStub(client.ORB.RefTo(ep, "svc", "Echo", "svc-comp"))
	// Chain UUIDs are random, so a few chains can all hash away from a
	// member; keep calling past chains until every member owns one.
	owners := map[string]bool{}
	for i := 0; i < chains || len(owners) < len(addrs); i++ {
		if i == chains+1000 {
			t.Fatalf("%d chains reach only %d of %d members", i, len(owners), len(addrs))
		}
		if _, err := stub.Echo(fmt.Sprint("req-", i)); err != nil {
			t.Fatal(err)
		}
		f, ok := client.ORB.Probes().Tunnel().Current()
		if !ok {
			t.Fatal("the client holds no chain after a call")
		}
		owner, _ := ring.OwnerOf(f.Chain)
		owners[owner.Addr] = true
		client.NewChain()
	}
	var shipped int
	for _, p := range []*causeway.Process{client, server} {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		st := p.ShipperStats()
		if st.Dropped != 0 || st.Buffered != 0 {
			t.Fatalf("shipper lost records: %+v", st)
		}
		shipped += int(st.Shipped)
	}

	// Wait for every shipped record to reach a member, then drain the
	// members so their stores hold everything.
	held := func() int {
		n := 0
		for i, db := range stores {
			n += db.Len() + int(nodes[i].Table().Ledger().Buffered)
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); held() != shipped; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("members hold %d of %d shipped records", held(), shipped)
		}
	}
	for i, n := range nodes {
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if stores[i].Len() == 0 {
			t.Fatalf("member %s holds no records; the query would not cross the tier", addrs[i])
		}
		fx.held += stores[i].Len()
	}
	return fx
}

// causectl runs one invocation and returns its output with the time the
// analysis took removed.
func causectl(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("causectl %v: %v", args, err)
	}
	return regexp.MustCompile(`(?m)^analyzed in [^:]*:`).ReplaceAllString(out.String(), "")
}

// TestPeersQueryTransfersOnce: `causectl -peers` over a running tier
// prints what `causectl -logs` prints over one store holding every record,
// pulling each member's /exportz once per invocation, so each record
// crosses the wire once.
func TestPeersQueryTransfersOnce(t *testing.T) {
	fx := startFleet(t, 30)
	peers := strings.Join(fx.debug, ",")

	want := causectl(t, "-logs", fx.logs, "report", "-latency")
	if got := causectl(t, "-peers", peers, "report", "-latency"); got != want {
		t.Fatalf("-peers report differs from -logs report over every record:\n--- peers\n%s\n--- logs\n%s", got, want)
	}
	served := 0
	for i, s := range fx.spies {
		gets, records := s.counts()
		if gets != 1 {
			t.Errorf("member %s served /exportz %d times for one query, want 1", fx.debug[i], gets)
		}
		served += records
	}
	if served != fx.held {
		t.Errorf("members served %d records for one query, want the %d they hold", served, fx.held)
	}

	// The chain listing is over the logs, so the prefix is one show
	// resolves there; it must resolve to the same chain over the fleet.
	listing := strings.Split(causectl(t, "-logs", fx.logs, "chains"), "\n")
	prefix := strings.Fields(listing[1])[0]
	want = causectl(t, "-logs", fx.logs, "show", prefix)
	if got := causectl(t, "-peers", peers, "show", prefix); got != want {
		t.Fatalf("-peers show %s differs from -logs:\n--- peers\n%s\n--- logs\n%s", prefix, got, want)
	}
	for i, s := range fx.spies {
		if gets, _ := s.counts(); gets != 2 {
			t.Errorf("member %s served /exportz %d times for two queries, want 2", fx.debug[i], gets)
		}
	}
}

// TestPeersQueryRefusesPartialFleet: a member that sends a torn body,
// answers other than 200 or cannot be reached fails the query with its
// address, and nothing is printed over the members that did answer.
func TestPeersQueryRefusesPartialFleet(t *testing.T) {
	fx := startFleet(t, 12)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gone := ln.Addr().String()
	ln.Close()

	for _, tc := range []struct {
		name  string
		mode  int32
		peers []string
		bad   string
	}{
		{"torn", serveTorn, fx.debug, fx.debug[1]},
		{"status", serve503, fx.debug, fx.debug[1]},
		{"unreachable", serveWhole, append(fx.debug[:2:2], gone), gone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx.spies[1].mode.Store(tc.mode)
			var out bytes.Buffer
			err := run([]string{"-peers", strings.Join(tc.peers, ","), "report"}, &out)
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Fatalf("err = %v, want a failure naming %s", err, tc.bad)
			}
			if out.Len() != 0 {
				t.Fatalf("printed over a partial fleet:\n%s", out.String())
			}
		})
	}
}
