package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ServeMemberz serves the membership view as JSON — collectd mounts it
// at /memberz on the debug server. Peers poll it to adopt higher ring
// epochs; `causectl cluster status` renders it for the operator.
func (m *Membership) ServeMemberz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(m.Status())
}

// ServeRebalance triggers or resumes the donation flow for the current
// ring — mounted at /rebalancez, driven by `causectl cluster
// rebalance`. POST only: a donation moves records.
func (m *Membership) ServeRebalance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	res := m.Rebalance()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(res)
}

// maxReply bounds a debug-plane reply read. The largest, a /memberz view
// of a big tier, is a few KB; a peer answering with megabytes is broken
// or hostile.
const maxReply = 1 << 20

// decodeReply reads one JSON reply from a peer's debug plane into v: a
// 200, at most maxReply bytes, and exactly v's shape — an unknown field
// is an error, because a ledger read with a bucket missing balances when
// it should not.
func decodeReply(resp *http.Response, err error, what string, v any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", what, resp.Status)
	}
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxReply))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// FetchMemberz pulls one member's /memberz view.
func FetchMemberz(client *http.Client, debugAddr string) (MembershipStatus, error) {
	var st MembershipStatus
	resp, err := client.Get("http://" + debugAddr + "/memberz")
	return st, decodeReply(resp, err, "GET /memberz", &st)
}

// PostRebalance drives one member's /rebalancez and returns its
// donation result.
func PostRebalance(client *http.Client, debugAddr string) (DonationResult, error) {
	var res DonationResult
	resp, err := client.Post("http://"+debugAddr+"/rebalancez", "text/plain", nil)
	return res, decodeReply(resp, err, "POST /rebalancez", &res)
}

// FetchLedger pulls one member's typed conservation ledger from
// /ledgerz — the settle assertion's per-member input, and what
// `causectl cluster` sums. On any error the ledger returned is one that
// never reports Balanced.
func FetchLedger(client *http.Client, debugAddr string) (Ledger, error) {
	var led Ledger
	resp, err := client.Get("http://" + debugAddr + "/ledgerz")
	if err := decodeReply(resp, err, "GET /ledgerz", &led); err != nil {
		return unknownLedger, err
	}
	return led, nil
}
