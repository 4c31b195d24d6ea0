package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"causeway/internal/cluster"
)

// cmdCluster inspects and drives a running collector cluster over the
// peers' debug servers.
//
//	cluster [status] -peers dbg1,dbg2,...
//	    ring ownership from /ringz, heartbeat/membership state from
//	    /memberz (suspect timers, proposer, settling epoch), per-collector
//	    conservation ledgers from /ledgerz, and the tier-wide fleet ledger
//	    with its conservation verdict.
//
//	cluster rebalance -peers dbg1,dbg2,...
//	    POST every peer's /rebalancez to trigger — or resume, donations
//	    are idempotent — the segment donation for the current ring, with
//	    per-range progress lines and a final tier ledger verdict.
func cmdCluster(w io.Writer, args []string) error {
	sub := "status"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		sub, args = args[0], args[1:]
	}
	defTimeout := 2 * time.Second
	if sub == "rebalance" {
		// A donation replays whole hash ranges synchronously.
		defTimeout = time.Minute
	}
	fs := flag.NewFlagSet("cluster "+sub, flag.ContinueOnError)
	peersFlag := fs.String("peers", "", "comma-separated debug addresses of the ingest collectors")
	timeout := fs.Duration("timeout", defTimeout, "per-peer HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers := cluster.SplitAddrs(*peersFlag)
	if len(peers) == 0 {
		return fmt.Errorf("usage: causectl cluster [status|rebalance] -peers dbg1,dbg2,... [-timeout dur]")
	}
	client := &http.Client{Timeout: *timeout}
	switch sub {
	case "status":
		return clusterStatus(w, client, peers)
	case "rebalance":
		return clusterRebalance(w, client, peers)
	default:
		return fmt.Errorf("unknown cluster subcommand %q (want status or rebalance)", sub)
	}
}

func clusterStatus(w io.Writer, client *http.Client, peers []string) error {
	var ledgers []cluster.Ledger
	ringSummaries := make(map[string][]string) // ring summary line -> peers serving it
	reachable := 0
	var noOwner uint64
	for _, p := range peers {
		fmt.Fprintf(w, "collector %s:\n", p)
		ringLine, members, err := fetchRingz(client, p)
		switch {
		case err != nil:
			fmt.Fprintf(w, "  ring: unreachable (%v)\n", err)
		case ringLine == "":
			fmt.Fprintf(w, "  ring: none served (standalone collector?)\n")
		default:
			fmt.Fprintf(w, "  %s\n", ringLine)
			for _, m := range members {
				fmt.Fprintf(w, "  %s\n", m)
			}
			ringSummaries[ringLine] = append(ringSummaries[ringLine], p)
		}
		printMemberz(w, client, p)
		led, err := cluster.FetchLedger(client, p)
		if err != nil {
			fmt.Fprintf(w, "  ledger: unreachable (%v)\n", err)
			continue
		}
		reachable++
		// Routed shippers drop records no ring member owns; each
		// collector reports the count its fleet scrape saw. Every
		// collector sees every process (routed processes connect to all
		// members), so the views overlap — take the max, not the sum, to
		// count each drop once.
		if led.NoOwner > noOwner {
			noOwner = led.NoOwner
		}
		fmt.Fprintf(w, "  ledger: %s\n", led)
		ledgers = append(ledgers, led)
	}
	if len(ringSummaries) > 1 {
		fmt.Fprintf(w, "WARNING: peers disagree on the ring — a rebalance is in flight or -peers/-ring-epoch flags diverge:\n")
		for line, ps := range ringSummaries {
			fmt.Fprintf(w, "  %s  <- %s\n", line, strings.Join(ps, ", "))
		}
	}
	if reachable == 0 {
		return fmt.Errorf("no collector reachable")
	}
	tier := cluster.Sum(ledgers...)
	tier.NoOwner = noOwner
	fmt.Fprintf(w, "fleet (%d/%d collectors): %s\n", reachable, len(peers), tier)
	if tier.NoOwner > 0 {
		fmt.Fprintf(w, "fleet: WARNING %d record(s) had no ring owner — a ring bug dropped them before any collector\n", tier.NoOwner)
	}
	if tier.Replayed != tier.Retired {
		fmt.Fprintf(w, "fleet: replay in flight or unretired: replayed=%d retired=%d (ranges moved but donors not yet retired)\n",
			tier.Replayed, tier.Retired)
	}
	return nil
}

// printMemberz renders one collector's membership view: heartbeat state
// per member (with suspect timers), the proposer, and the settling
// epoch. A collector running without -heartbeat serves no /memberz;
// that is not an error, the line is just absent.
func printMemberz(w io.Writer, client *http.Client, addr string) {
	st, err := cluster.FetchMemberz(client, addr)
	if err != nil {
		return
	}
	phase := "settled"
	switch {
	case st.Settling:
		phase = fmt.Sprintf("settling epoch %d", st.Epoch)
	case !st.Settled:
		phase = "unsettled"
	}
	fmt.Fprintf(w, "  membership: epoch %d, proposer %s, %s\n", st.Epoch, st.Proposer, phase)
	for _, h := range st.Members {
		line := fmt.Sprintf("  heartbeat %s: %s", h.ID, h.State)
		if h.State != cluster.StateHealthy {
			line += fmt.Sprintf(" (%d miss(es), for %s)", h.Misses, h.StateFor)
		}
		if !h.InRing {
			line += " [out of ring]"
		}
		fmt.Fprintln(w, line)
	}
	if st.Verdict != "" {
		fmt.Fprintf(w, "  verdict: %s\n", st.Verdict)
	}
}

// clusterRebalance POSTs every peer's /rebalancez — triggering or
// resuming the donation for the ring it currently serves — then sums
// the tier ledger for the final conservation verdict.
func clusterRebalance(w io.Writer, client *http.Client, peers []string) error {
	reachable := 0
	var donationErr bool
	for _, p := range peers {
		fmt.Fprintf(w, "collector %s:\n", p)
		res, err := cluster.PostRebalance(client, p)
		if err != nil {
			fmt.Fprintf(w, "  rebalance: unreachable (%v)\n", err)
			continue
		}
		reachable++
		if len(res.Donations) == 0 {
			fmt.Fprintf(w, "  epoch %d: nothing to donate\n", res.Epoch)
		}
		for _, d := range res.Donations {
			line := fmt.Sprintf("  epoch %d: range -> %s: scanned=%d accepted=%d rejected=%d",
				res.Epoch, d.Target, d.Scanned, d.Accepted, d.Rejected)
			if d.Err != "" {
				line += " error=" + d.Err
			}
			fmt.Fprintln(w, line)
		}
		if res.Err != "" {
			donationErr = true
			fmt.Fprintf(w, "  donation incomplete: %s (re-run to resume; donations are idempotent)\n", res.Err)
		}
		if res.Verdict != "" {
			fmt.Fprintf(w, "  verdict: %s\n", res.Verdict)
		}
	}
	if reachable == 0 {
		return fmt.Errorf("no collector reachable")
	}
	var ledgers []cluster.Ledger
	for _, p := range peers {
		led, err := cluster.FetchLedger(client, p)
		if err != nil {
			continue
		}
		ledgers = append(ledgers, led)
	}
	tier := cluster.Sum(ledgers...)
	verdict := "balanced, sum(Replayed)==sum(Retired)"
	if !tier.Balanced() || tier.Replayed != tier.Retired {
		verdict = "NOT settled"
	}
	fmt.Fprintf(w, "fleet: %s — %s\n", tier, verdict)
	if donationErr {
		return fmt.Errorf("one or more donations incomplete")
	}
	return nil
}

// fetchRingz pulls one peer's /ringz: the summary line and the member
// lines. A 404 means the collector runs standalone (no -peers flag).
func fetchRingz(client *http.Client, addr string) (summary string, members []string, err error) {
	resp, err := client.Get("http://" + addr + "/ringz")
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return "", nil, nil
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "ring "):
			summary = line
		case strings.HasPrefix(line, "member "):
			members = append(members, line)
		}
	}
	return summary, members, sc.Err()
}
