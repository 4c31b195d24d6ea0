package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"causeway/internal/streamrecon"
	"causeway/internal/telemetry"
)

// followRequested reports whether the chains arguments ask for follow
// mode — checked before a store is opened, since follow mode needs none.
func followRequested(args []string) bool {
	for _, a := range args {
		if a == "-follow" || a == "--follow" || a == "-follow=true" || a == "--follow=true" {
			return true
		}
	}
	return false
}

// cmdFollow tails the completion feed of a running `collectd`:
// it polls /feedz on the daemon's debug server with a cursor, printing
// each chain the assembler evicts, live, until interrupted or -for
// elapses. The cursor protocol makes polling lossless while the feed
// window holds; a window slide is reported, not hidden.
//
// The tail survives a collector restart: poll failures back off with
// jitter and keep the cursor, and when the daemon comes back with a
// fresh feed — detected by its feed generation changing, not by cursor
// arithmetic, so a restarted daemon that races past the old cursor
// cannot silently skip completions — the tail replays the new window
// from the page it already fetched.
func cmdFollow(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("causectl chains -follow", flag.ContinueOnError)
	follow := fs.Bool("follow", false, "tail live completions from a running collectd")
	addr := fs.String("addr", "127.0.0.1:6060", "collectd debug server address (host:port)")
	poll := fs.Duration("poll", time.Second, "feed poll interval")
	runFor := fs.Duration("for", 0, "stop after this long (0 = until interrupt)")
	iface := fs.String("iface", "", "only completions whose root op contains this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_ = *follow // presence already established by followRequested
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: causectl chains -follow [-addr host:port] [-poll dur] [-for dur] [-iface substr]")
	}
	if *poll <= 0 {
		*poll = time.Second
	}

	client := &http.Client{Timeout: 10 * time.Second}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	var deadline <-chan time.Time
	if *runFor > 0 {
		timer := time.NewTimer(*runFor)
		defer timer.Stop()
		deadline = timer.C
	}

	// Reach the daemon: retries with jittered, growing backoff so a tail
	// started before (or during) a collector restart attaches once the
	// daemon is up. Interrupt or -for expiry before first contact still
	// reports the failure instead of pretending the tail ran.
	backoff := *poll
	var page streamrecon.FeedPage
	var err error
	for {
		page, err = fetchFeed(client, *addr, 0, 0)
		if err == nil {
			break
		}
		select {
		case <-sig:
			return fmt.Errorf("interrupted before reaching %s: %w", *addr, err)
		case <-deadline:
			return fmt.Errorf("never reached %s: %w", *addr, err)
		case <-time.After(telemetry.Jitter(backoff)):
		}
		if backoff < 8*(*poll) {
			backoff *= 2
		}
	}
	fmt.Fprintf(w, "following http://%s/feedz every %v (interrupt to stop)\n", *addr, *poll)
	printFeedPage(w, page, 0, *iface)
	cursor := page.Cursor
	gen := page.Gen

	failing := false
	backoff = *poll
	for {
		select {
		case <-sig:
			return nil
		case <-deadline:
			return nil
		case <-time.After(*poll):
		}
		page, err := fetchFeed(client, *addr, cursor, gen)
		if err != nil {
			// Transient: daemon restarting, network blip. Keep the cursor,
			// announce once, and back off with jitter until it answers.
			if !failing {
				fmt.Fprintf(w, "poll: %v (retrying with backoff)\n", err)
				failing = true
			}
			select {
			case <-sig:
				return nil
			case <-deadline:
				return nil
			case <-time.After(telemetry.Jitter(backoff)):
			}
			if backoff < 8*(*poll) {
				backoff *= 2
			}
			continue
		}
		if failing {
			fmt.Fprintf(w, "reconnected to %s, resuming from cursor %d\n", *addr, cursor)
			failing = false
			backoff = *poll
		}
		if page.Gen != gen {
			// The daemon restarted: this page comes from a fresh feed, so
			// our cursor belongs to a dead one — regardless of whether the
			// new feed's IDs are still behind it or already raced past.
			// The server ignored our since on the generation mismatch, so
			// this very page is the new window: print it, don't refetch.
			fmt.Fprintf(w, "feed restarted (collector restart?); replaying its window\n")
			gen = page.Gen
			cursor = 0
		}
		printFeedPage(w, page, cursor, *iface)
		cursor = page.Cursor
	}
}

// fetchFeed GETs one feed page after the cursor, naming the generation
// the cursor belongs to (0 = first contact, accept any generation).
func fetchFeed(client *http.Client, addr string, since, gen uint64) (streamrecon.FeedPage, error) {
	var page streamrecon.FeedPage
	resp, err := client.Get(fmt.Sprintf("http://%s/feedz?since=%d&gen=%d", addr, since, gen))
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return page, fmt.Errorf("GET /feedz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return page, fmt.Errorf("GET /feedz: %w", err)
	}
	return page, nil
}

// printFeedPage renders new completions, flagging a feed-window slide
// (entries evicted from the ring before this poll observed them).
func printFeedPage(w io.Writer, page streamrecon.FeedPage, cursor uint64, iface string) {
	if len(page.Completions) > 0 && cursor > 0 && page.Completions[0].ID > cursor+1 {
		fmt.Fprintf(w, "... %d completion(s) missed (feed window slid)\n",
			page.Completions[0].ID-cursor-1)
	}
	for _, e := range page.Completions {
		if iface != "" && !strings.Contains(e.Op, iface) {
			continue
		}
		printFeedEntry(w, e)
	}
}

func printFeedEntry(w io.Writer, e streamrecon.FeedEntry) {
	lat := e.Latency
	if lat == "" {
		lat = "-"
	}
	status := e.Reason
	if e.Slow {
		status += " SLOW"
	}
	if e.Broken {
		status += " broken"
	}
	if e.Anomalous {
		status += " anomalous"
	}
	if !e.Persisted {
		status += " (not retained)"
	}
	chain := e.Chain
	if len(chain) > 8 {
		chain = chain[:8]
	}
	fmt.Fprintf(w, "%s  chain=%s  %-40s nodes=%-4d latency=%-12s %s\n",
		e.When, chain, e.Op, e.Nodes, lat, status)
}
