package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// fleetScraper pulls /metrics from every peer process that advertised a
// debug address in its telemetry handshake and merges the series into
// one fleet view, exposed on the daemon's own debug server under a
// fleet_ prefix. Counter-like series (_total, _count, _sum_ns, plain
// counters) are summed across peers; _max_ns series take the maximum;
// everything else (per-process gauges, quantiles — meaningless to sum)
// is skipped.
type fleetScraper struct {
	client http.Client

	mu        sync.Mutex
	merged    map[string]int64
	maxes     map[string]bool
	peersOK   int
	scrapes   uint64
	scrapeErr uint64
}

func newFleetScraper() *fleetScraper {
	return &fleetScraper{
		client: http.Client{Timeout: 2 * time.Second},
		merged: make(map[string]int64),
		maxes:  make(map[string]bool),
	}
}

// scrape refreshes the fleet view from the given debug addresses
// ("host:port", duplicates tolerated). Each call rebuilds the merge from
// scratch: the underlying series are cumulative at the peers, so the
// freshest scrape supersedes, never accumulates.
func (f *fleetScraper) scrape(addrs []string) {
	seen := make(map[string]bool, len(addrs))
	merged := make(map[string]int64)
	maxes := make(map[string]bool)
	ok := 0
	var errs uint64
	for _, addr := range addrs {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		resp, err := f.client.Get("http://" + addr + "/metrics")
		if err != nil {
			errs++
			continue
		}
		err = mergeExposition(merged, maxes, resp.Body)
		resp.Body.Close()
		if err != nil {
			errs++
			continue
		}
		ok++
	}
	f.mu.Lock()
	f.merged, f.maxes, f.peersOK = merged, maxes, ok
	f.scrapes++
	f.scrapeErr += errs
	f.mu.Unlock()
}

// mergeExposition folds one peer's text exposition into the merge maps.
func mergeExposition(merged map[string]int64, maxes map[string]bool, r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Exemplar-annotated histogram lines (` # {chain_uuid="..."} v ts`)
		// merge by their series value; the annotation is per-process
		// evidence, meaningless to aggregate.
		if i := strings.Index(line, " # "); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		cut := strings.LastIndexByte(line, ' ')
		if cut <= 0 {
			continue
		}
		series, valStr := line[:cut], line[cut+1:]
		v, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			continue // non-integer series (none today) are skipped, not fatal
		}
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		switch {
		case strings.HasSuffix(name, "_max_ns"):
			maxes[series] = true
			if v > merged[series] {
				merged[series] = v
			}
		case strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_sum_ns"):
			merged[series] += v
		}
	}
	return sc.Err()
}

// noOwner is the fleet's count of records routed shippers dropped because
// no ring member owned their hash — each process's own counter, summed —
// which the node carries in its ledger reply.
func (f *fleetScraper) noOwner() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return uint64(f.merged["causeway_cluster_no_owner_total"])
}

// WriteMetrics renders the fleet view; registered as a source on the
// daemon's own registry.
func (f *fleetScraper) WriteMetrics(w io.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(w, "causeway_fleet_peers_scraped %d\n", f.peersOK)
	fmt.Fprintf(w, "causeway_fleet_scrapes_total %d\n", f.scrapes)
	fmt.Fprintf(w, "causeway_fleet_scrape_errors_total %d\n", f.scrapeErr)
	keys := make([]string, 0, len(f.merged))
	for k := range f.merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "fleet_%s %d\n", k, f.merged[k])
	}
}
