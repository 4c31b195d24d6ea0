package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"causeway/internal/cluster"
	"causeway/internal/debugserver"
	"causeway/internal/metrics"
)

// aggConfig carries the flag values runAggregate needs out of run().
type aggConfig struct {
	peers     []string // ingest collectors' debug addresses
	storeDir  string
	outPath   string
	dscgNodes int
	workers   int
	report    time.Duration
	duration  time.Duration
	debugAddr string
}

// runAggregate is collectd's fleet tier: instead of listening for
// shippers it periodically pulls every ingest collector's /exportz
// record stream and /metrics exposition, merges the records through the
// deduplicating aggregator into one fleet store, and on drain prints the
// fleet DSCG — byte-identical to what a single collector holding all the
// traffic would print, because chain-range ownership plus identity dedup
// means every record lands in the fleet store exactly once.
func runAggregate(cfg aggConfig, w io.Writer, stop <-chan struct{}) error {
	if len(cfg.peers) == 0 {
		return fmt.Errorf("-aggregate needs -peers with the ingest collectors' debug addresses")
	}
	store, disk, err := openStore(cfg.storeDir)
	if err != nil {
		return err
	}
	if disk != nil {
		defer disk.Close()
	}
	agg := cluster.NewAggregator(store)
	reg := metrics.NewRegistry()
	reg.RegisterSource("aggregate", agg.WriteMetrics)
	fleet := newFleetScraper()
	reg.RegisterSource("fleet", fleet.WriteMetrics)

	client := http.Client{Timeout: 5 * time.Second}
	var pullErrs uint64
	pull := func() (accepted, dups, errs int) {
		for _, p := range cfg.peers {
			resp, err := client.Get("http://" + p + "/exportz")
			if err != nil {
				errs++
				continue
			}
			a, d, err := agg.MergeStream(p, resp.Body)
			resp.Body.Close()
			accepted += a
			dups += d
			if err != nil {
				errs++
			}
		}
		fleet.scrape(cfg.peers)
		return
	}

	if cfg.debugAddr != "" {
		dbg, err := debugserver.Start(debugserver.Config{
			Addr:     cfg.debugAddr,
			Registry: reg,
			Process:  "collectd-aggregate",
			ProcType: "aggregator",
			Aspects:  "aggregation",
			Extra:    map[string]http.HandlerFunc{"/exportz": cluster.ExportHandler(store)},
		})
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(w, "collectd: debug server on %s\n", dbg.Addr())
	}
	fmt.Fprintf(w, "collectd: aggregating %d ingest collector(s) every %v\n", len(cfg.peers), cfg.report)

	drained, release := drainSignal(w, cfg.duration, stop)
	defer release()

	ticker := time.NewTicker(cfg.report)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-drained:
			break loop
		case <-ticker.C:
			accepted, dups, errs := pull()
			pullErrs += uint64(errs)
			st := agg.Stats()
			fmt.Fprintf(w, "collectd: aggregate pulled %d new record(s) (%d duplicate) from %d peer(s), %d error(s); fleet holds %d\n",
				accepted, dups, len(cfg.peers)-errs, errs, st.Accepted)
		}
	}

	// Final pull so the fleet view includes everything the ingest tier
	// drained before we did.
	accepted, dups, errs := pull()
	pullErrs += uint64(errs)
	st := agg.Stats()
	fmt.Fprintf(w, "collectd: aggregate drained with %d fleet record(s) (%d accepted on final pull, %d duplicate, %d total pull error(s))\n",
		st.Accepted, accepted, dups, pullErrs)
	for _, p := range cfg.peers {
		fmt.Fprintf(w, "collectd:   source %s: %d record(s) accepted\n", p, st.Sources[p])
	}

	return writeArtifacts(w, store, cfg.outPath, cfg.dscgNodes, cfg.workers)
}
