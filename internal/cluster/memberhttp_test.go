package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"causeway/internal/telemetry"
)

// ledgerReplies are /ledgerz bodies a peer might answer with, by the
// TestFetchLedgerHostileInput case that serves each one.
func ledgerReplies() map[string]string {
	return map[string]string{
		"well-formed":        `{"appended":5,"persisted":3,"discarded":0,"shed":0,"buffered":0,"replayed":1,"retired":3,"no_owner":0}`,
		"truncated":          `{"appended":5,"persis`,
		"empty body":         ``,
		"non-200":            `{"appended":0}`,
		"not JSON":           "causeway_cluster_ledger_appended_total 5\n",
		"negative bucket":    `{"appended":-1}`,
		"non-numeric bucket": `{"appended":"many"}`,
		"fractional bucket":  `{"appended":1.5}`,
		"overflowing bucket": `{"appended":99999999999999999999999}`,
		"unknown field":      `{"appended":1,"persisted":1,"evaporated":7}`,
		"wrong shape":        `[1,2,3]`,
	}
}

// decodeReplySeeds are FuzzDecodeReply's checked-in seeds: the ledger
// bodies above, plus a well-formed /memberz and /rebalancez reply so the
// fuzzer starts from the other two shapes as well.
func decodeReplySeeds() map[string][]byte {
	seeds := make(map[string][]byte)
	for name, body := range ledgerReplies() {
		seeds[strings.ReplaceAll(name, " ", "-")] = []byte(body)
	}
	ring := telemetry.Ring{Epoch: 2, Slots: 64, Members: []telemetry.RingMember{
		{ID: "a:1", Addr: "a:1", Start: 0, End: 32},
		{ID: "c:3", Addr: "c:3", Start: 32, End: 64},
	}}
	memberz, _ := json.Marshal(MembershipStatus{
		Self: "a:1", Proposer: "a:1", Epoch: 2, Settled: true, Verdict: "epoch 2 settled", Ring: ring,
		Members: []MemberHealth{
			{ID: "a:1", Debug: "a:6161", State: "alive", InRing: true},
			{ID: "b:2", Debug: "b:6162", State: "dead", Misses: 4, StateFor: "2s"},
		},
	})
	rebalancez, _ := json.Marshal(DonationResult{
		Epoch: 2, Retired: 7, Settled: true,
		Donations: []Donation{{Target: "c:3", Scanned: 9, Accepted: 7, Rejected: 2}},
	})
	seeds["memberz"] = memberz
	seeds["rebalancez"] = rebalancez
	return seeds
}

// replyTransport answers every request with one 200 reply carrying body,
// so the fetchers decode it as if a peer had sent it.
type replyTransport []byte

func (body replyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Status:     "200 OK",
		Header:     make(http.Header),
		Body:       io.NopCloser(bytes.NewReader(body)),
		Request:    req,
	}, nil
}

// checkDecodeReply is FuzzDecodeReply's property: whatever body a peer's
// debug plane returns, FetchLedger, FetchMemberz and PostRebalance return
// an error or a value and never panic. A ledger that fails to decode comes
// back as unknownLedger, which never balances, and one that decodes
// survives being encoded and fetched again.
func checkDecodeReply(t *testing.T, body []byte) {
	client := &http.Client{Transport: replyTransport(body)}
	led, err := FetchLedger(client, "peer")
	if err != nil {
		if led != unknownLedger {
			t.Fatalf("failed decode (%v) returned %s, want the unknown ledger", err, led)
		}
	} else {
		again, _ := json.Marshal(led)
		back, err := FetchLedger(&http.Client{Transport: replyTransport(again)}, "peer")
		if err != nil || back != led {
			t.Fatalf("ledger %s comes back as %s, %v", led, back, err)
		}
	}
	FetchMemberz(client, "peer")
	PostRebalance(client, "peer")
}

// The seeds are checked in under testdata/fuzz/FuzzDecodeReply, so plain
// `go test` replays them; UPDATE_FUZZ_CORPUS=1 rewrites them after a reply
// shape changes.
func TestDecodeReplyFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeReply")
	for name, body := range decodeReplySeeds() {
		checkDecodeReply(t, body)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", body)
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != want {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzDecodeReply: any debug-plane reply body decodes to a value or an
// error, never a panic, and a ledger that fails to decode never balances.
func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(checkDecodeReply)
}
