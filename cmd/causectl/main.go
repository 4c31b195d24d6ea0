// Command causectl is the offline analyzer (§3) and the query tool for a
// collected trace store: print the full characterization (DSCG, latency
// table, CCSG), list causal chains, inspect one chain's call tree, rank
// interfaces by latency percentile, or export the store as one merged
// .ftlog that `causectl -logs` reads back unchanged.
//
// It reads a sharded on-disk trace store written by `collectd -store DIR`,
// a glob of per-process .ftlog files, or — with -peers — a running
// collector tier: each collector's /exportz record stream, pulled once per
// invocation and merged into one fleet store. Chain-range ownership keeps
// the collectors' stores disjoint, so the fleet view is built at query
// time and no collector keeps a second copy of the tier's records.
//
// Usage:
//
//	causectl [-store dir | -logs glob | -peers dbg1,dbg2,...] [-workers N] <command> [args]
//
// Commands:
//
//	report [-dscg N] [-depth N] [-latency | -ccsg | -ccsgxml | -seqchart | -topology | -stats]
//	        run statistics, then the DSCG (at most N nodes, 0 = all; depth
//	        -1 = unlimited) with -latency's per-operation latency table, or
//	        instead the CCSG as text or XML (Figure 6 format), an
//	        OVATION-style per-process sequence chart (latency-aspect logs),
//	        the component-interaction topology, or the statistics alone
//	chains [-iface substr] [-min dur] [-status all|complete|anomalous]
//	        list root chains (slowest first)
//	chains -follow [-addr host:port] [-poll dur] [-for dur] [-iface substr]
//	        tail live chain completions from a running `collectd`
//	        by polling its /feedz debug endpoint (no store needed)
//	show <uuid-or-prefix>
//	        one chain's call tree plus its per-interface latency breakdown
//	top [-n N] [-by p50|p95|p99|max|total|calls]
//	        rank interfaces by latency percentile (streaming digest)
//	export [-format ftlog|chrome] <out>
//	        write the merged record stream (read back with -logs), or the DSCG
//	        as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev)
//	cluster [status] -peers dbg1,dbg2,...
//	        inspect a running collector cluster over its debug servers:
//	        ring ownership, heartbeat/membership state (suspect timers,
//	        proposer, settling epoch), per-collector conservation ledgers,
//	        and the tier-wide fleet ledger (no store needed)
//	cluster rebalance -peers dbg1,dbg2,...
//	        trigger or resume segment donation on every collector for the
//	        ring it currently serves, with per-range progress lines and a
//	        final tier ledger verdict (donations are idempotent)
//	alerts -addr dbg1[,dbg2,...] [-since cursor] [-firing]
//	        list live SLO alert state from running evaluators' /alertz
//	        endpoints (collectd -alerts, or ProcessConfig.SLO): rule,
//	        state, burn rates, exemplar chain UUIDs, and the transition
//	        log after the cursor (no store needed)
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"causeway/internal/analysis"
	"causeway/internal/cluster"
	"causeway/internal/logdb"
	"causeway/internal/render"
	"causeway/internal/tracestore"
	"causeway/internal/uuid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "causectl:", err)
		os.Exit(1)
	}
}

// source is the store view every subcommand works against: the one
// store interface, of which they use the analyzer queries and the read side
// the export is written against.
type source = cluster.Store

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("causectl", flag.ContinueOnError)
	storeDir := fs.String("store", "", "sharded trace store directory (collectd -store)")
	logsGlob := fs.String("logs", "", "glob of per-process .ftlog files")
	peers := fs.String("peers", "", "comma-separated debug addresses of a running collector tier: merge every collector's /exportz into one fleet store")
	workers := fs.Int("workers", 0, "parallel reconstruction workers (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: causectl [-store dir | -logs glob | -peers dbg1,dbg2,...] <report|chains|show|top|export|cluster|alerts> [args]")
	}
	sources := 0
	for _, s := range []string{*storeDir, *logsGlob, *peers} {
		if s != "" {
			sources++
		}
	}
	if fs.Arg(0) == "chains" && followRequested(fs.Args()[1:]) {
		// Follow mode talks to a running collectd, not a store.
		if sources > 0 {
			return fmt.Errorf("chains -follow reads a running collectd's /feedz, not -store/-logs/-peers")
		}
		return cmdFollow(w, fs.Args()[1:])
	}
	if fs.Arg(0) == "cluster" {
		// Cluster mode talks to the collectors' debug servers, not a store.
		if sources > 0 {
			return fmt.Errorf("cluster reads running collectors' debug servers named by its own -peers (causectl cluster status -peers ...), not a top-level -store/-logs/-peers")
		}
		return cmdCluster(w, fs.Args()[1:])
	}
	if fs.Arg(0) == "alerts" {
		// Alert state is live: read from running evaluators' /alertz.
		if sources > 0 {
			return fmt.Errorf("alerts reads running evaluators' /alertz endpoints, not -store/-logs/-peers")
		}
		return cmdAlerts(w, fs.Args()[1:])
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of -store, -logs or -peers is required")
	}

	start := time.Now()
	tornTails := 0
	var src source
	switch {
	case *storeDir != "":
		ts, err := tracestore.Open(*storeDir, tracestore.Options{})
		if err != nil {
			return err
		}
		defer ts.Close()
		src = ts
	case *peers != "":
		fleet, err := pullFleet(cluster.SplitAddrs(*peers))
		if err != nil {
			return err
		}
		src = fleet
	default:
		db := logdb.NewStore()
		_, warnings, err := db.LoadGlob(*logsGlob)
		if err != nil {
			return err
		}
		if warnings > 0 {
			fmt.Fprintln(w, logdb.TornTails(warnings))
		}
		tornTails = warnings
		src = db
	}

	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "report":
		return cmdReport(w, src, *workers, start, tornTails, rest)
	case "chains":
		return cmdChains(w, src, *workers, rest)
	case "show":
		return cmdShow(w, src, *workers, rest)
	case "top":
		return cmdTop(w, src, *workers, rest)
	case "export":
		return cmdExport(w, src, *workers, rest)
	default:
		return fmt.Errorf("unknown command %q (want report, chains, show, top, export, cluster, or alerts)", cmd)
	}
}

// pullFleet GETs every collector's /exportz once and folds the streams into
// one store with cluster.MergeStream. A member that cannot be reached,
// answers other than 200 or sends a torn body fails the query with its
// address: a report over the members that did answer would pass a partial
// fleet off as the whole.
func pullFleet(peers []string) (*logdb.Store, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers lists no collector debug addresses")
	}
	// One request per member, so no connection is kept; the body streams
	// a whole store, so only the wait for the response header is bounded.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DisableKeepAlives = true
	tr.ResponseHeaderTimeout = 10 * time.Second
	client := &http.Client{Transport: tr}
	fleet := logdb.NewStore()
	for _, p := range peers {
		if err := pullPeer(client, fleet, p); err != nil {
			return nil, fmt.Errorf("peer %s: %w", p, err)
		}
	}
	return fleet, nil
}

func pullPeer(client *http.Client, fleet *logdb.Store, addr string) error {
	resp, err := client.Get("http://" + addr + "/exportz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/exportz answered %s", resp.Status)
	}
	_, _, err = cluster.MergeStream(fleet, resp.Body)
	return err
}

// reconstruct builds the DSCG with latency/CPU metrics attached.
func reconstruct(src source, workers int) *analysis.DSCG {
	g := analysis.ReconstructParallel(src, workers)
	g.ComputeLatency()
	g.ComputeCPU()
	return g
}

// rootOf returns a tree's first root node (every tree has at least one).
func rootOf(t *analysis.Tree) *analysis.Node { return t.Roots[0] }

// treeLatency is the summed latency of a tree's root invocations.
func treeLatency(t *analysis.Tree) (time.Duration, bool) {
	var total time.Duration
	has := false
	for _, r := range t.Roots {
		if r.HasLatency {
			total += r.Latency
			has = true
		}
	}
	return total, has
}

// showPrefixes maps every tree's chain to the shortest prefix of its UUID
// (never shorter than UUID.Short) that `causectl show` resolves to that
// chain alone. Uniqueness is taken over the whole store, not the rows a
// filter leaves, because the whole store is what show matches a prefix
// against; a listing must not print an ID the next command rejects as
// ambiguous. Sequentially generated UUIDs from different processes share
// their leading counter, so eight characters are often not enough.
func showPrefixes(trees []*analysis.Tree) map[uuid.UUID]string {
	ids := make([]string, len(trees))
	for i, t := range trees {
		ids[i] = t.Chain.String()
	}
	sort.Strings(ids)
	common := func(a, b string) int {
		n := 0
		for n < len(a) && n < len(b) && a[n] == b[n] {
			n++
		}
		return n
	}
	out := make(map[uuid.UUID]string, len(trees))
	for _, t := range trees {
		id := t.Chain.String()
		// The closest other IDs are the sorted neighbours.
		i := sort.SearchStrings(ids, id)
		need := len(t.Chain.Short())
		if i > 0 {
			need = max(need, common(id, ids[i-1])+1)
		}
		if i+1 < len(ids) {
			need = max(need, common(id, ids[i+1])+1)
		}
		out[t.Chain] = id[:min(need, len(id))]
	}
	return out
}

func cmdChains(w io.Writer, src source, workers int, args []string) error {
	fs := flag.NewFlagSet("causectl chains", flag.ContinueOnError)
	iface := fs.String("iface", "", "only chains whose root interface contains this substring")
	minDur := fs.Duration("min", 0, "only chains at least this slow")
	status := fs.String("status", "all", "all | complete | anomalous")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *status {
	case "all", "complete", "anomalous":
	default:
		return fmt.Errorf("bad -status %q (want all, complete, or anomalous)", *status)
	}
	g := reconstruct(src, workers)
	anomalous := make(map[uuid.UUID]int)
	for _, a := range g.Anomalies {
		anomalous[a.Chain]++
	}

	type row struct {
		tree    *analysis.Tree
		latency time.Duration
		timed   bool
	}
	var rows []row
	for _, t := range g.Trees {
		root := rootOf(t)
		if *iface != "" && !strings.Contains(root.Op().Interface, *iface) {
			continue
		}
		lat, timed := treeLatency(t)
		if *minDur > 0 && (!timed || lat < *minDur) {
			continue
		}
		bad := anomalous[t.Chain] > 0
		if *status == "complete" && bad || *status == "anomalous" && !bad {
			continue
		}
		rows = append(rows, row{tree: t, latency: lat, timed: timed})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].latency > rows[j].latency })

	prefixes := showPrefixes(g.Trees)
	width := 10
	for _, r := range rows {
		width = max(width, len(prefixes[r.tree.Chain]))
	}
	fmt.Fprintf(w, "%-*s %-44s %7s %12s %s\n", width, "CHAIN", "ROOT", "NODES", "LATENCY", "STATUS")
	for _, r := range rows {
		root := rootOf(r.tree)
		nodes := 0
		for _, n := range r.tree.Roots {
			nodes += n.Count()
		}
		lat := "-"
		if r.timed {
			lat = r.latency.Round(time.Microsecond).String()
		}
		st := "complete"
		if n := anomalous[r.tree.Chain]; n > 0 {
			st = fmt.Sprintf("anomalous(%d)", n)
		}
		fmt.Fprintf(w, "%-*s %-44s %7d %12s %s\n",
			width, prefixes[r.tree.Chain], root.Op().Interface+"::"+root.Op().Operation, nodes, lat, st)
	}
	fmt.Fprintf(w, "%d chain(s)\n", len(rows))
	return nil
}

func cmdShow(w io.Writer, src source, workers int, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: causectl show <chain-uuid-or-prefix>")
	}
	want := strings.ToLower(args[0])
	g := reconstruct(src, workers)
	var match *analysis.Tree
	for _, t := range g.Trees {
		id := t.Chain.String()
		if id == want || strings.HasPrefix(id, want) {
			if match != nil {
				return fmt.Errorf("prefix %q is ambiguous (%s and %s)", want, match.Chain, t.Chain)
			}
			match = t
		}
	}
	if match == nil {
		return fmt.Errorf("no chain matches %q", want)
	}

	sub := &analysis.DSCG{Trees: []*analysis.Tree{match}}
	for _, a := range g.Anomalies {
		if a.Chain == match.Chain {
			sub.Anomalies = append(sub.Anomalies, a)
		}
	}
	if err := render.DSCGText(w, sub, -1, 0); err != nil {
		return err
	}

	stats := analysis.InterfaceStats(sub, 1)
	timed := false
	for _, s := range stats {
		if s.Latency.Count() > 0 {
			timed = true
			break
		}
	}
	if timed {
		fmt.Fprintf(w, "\nper-interface latency within this chain:\n")
		sort.SliceStable(stats, func(i, j int) bool { return stats[i].Total > stats[j].Total })
		for _, s := range stats {
			fmt.Fprintf(w, "  %-40s calls=%-5d total=%-12v max=%v\n",
				s.Interface, s.Calls, s.Total, s.Max)
		}
	}
	return nil
}

func cmdTop(w io.Writer, src source, workers int, args []string) error {
	fs := flag.NewFlagSet("causectl top", flag.ContinueOnError)
	n := fs.Int("n", 10, "rows to print (0 = all)")
	by := fs.String("by", "p95", "rank key: p50 | p95 | p99 | max | total | calls")
	if err := fs.Parse(args); err != nil {
		return err
	}
	key := func(s *analysis.InterfaceStat) float64 { return float64(s.P95()) }
	switch *by {
	case "p50":
		key = func(s *analysis.InterfaceStat) float64 { return float64(s.P50()) }
	case "p95":
	case "p99":
		key = func(s *analysis.InterfaceStat) float64 { return float64(s.P99()) }
	case "max":
		key = func(s *analysis.InterfaceStat) float64 { return float64(s.Max) }
	case "total":
		key = func(s *analysis.InterfaceStat) float64 { return float64(s.Total) }
	case "calls":
		key = func(s *analysis.InterfaceStat) float64 { return float64(s.Calls) }
	default:
		return fmt.Errorf("bad -by %q (want p50, p95, p99, max, total, or calls)", *by)
	}

	g := reconstruct(src, workers)
	stats := analysis.InterfaceStats(g, workers)
	sort.SliceStable(stats, func(i, j int) bool { return key(&stats[i]) > key(&stats[j]) })
	if *n > 0 && len(stats) > *n {
		stats = stats[:*n]
	}
	fmt.Fprintf(w, "%-40s %7s %10s %10s %10s %12s %12s\n",
		"INTERFACE", "CALLS", "P50", "P95", "P99", "MAX", "TOTAL")
	for i := range stats {
		s := &stats[i]
		p50, p95, p99 := "-", "-", "-"
		if s.Latency.Count() > 0 {
			p50 = s.P50().Round(time.Microsecond).String()
			p95 = s.P95().Round(time.Microsecond).String()
			p99 = s.P99().Round(time.Microsecond).String()
		}
		maxs, totals := "-", "-"
		if s.Max > 0 || s.Latency.Count() > 0 {
			maxs = s.Max.Round(time.Microsecond).String()
			totals = s.Total.Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "%-40s %7d %10s %10s %10s %12s %12s\n",
			s.Interface, s.Calls, p50, p95, p99, maxs, totals)
	}
	return nil
}

func cmdExport(w io.Writer, src source, workers int, args []string) error {
	fs := flag.NewFlagSet("causectl export", flag.ContinueOnError)
	format := fs.String("format", "ftlog", "output format: ftlog (causectl -logs input) | chrome (trace-event JSON for Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: causectl export [-format ftlog|chrome] <out>")
	}
	// Validate before creating: a bad -format must not truncate <out>.
	if *format != "ftlog" && *format != "chrome" {
		return fmt.Errorf("bad -format %q (want ftlog or chrome)", *format)
	}
	path := fs.Arg(0)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	switch *format {
	case "ftlog":
		err = logdb.WriteRecords(src, f)
	case "chrome":
		g := reconstruct(src, workers)
		if err = render.ChromeTrace(f, g); err == nil {
			fmt.Fprintf(w, "exported Chrome trace (%d spans) — open in chrome://tracing or ui.perfetto.dev\n", g.Nodes())
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if *format == "ftlog" {
		fmt.Fprintf(w, "exported merged record stream to %s\n", path)
	}
	return nil
}
