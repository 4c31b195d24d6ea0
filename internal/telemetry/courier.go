package telemetry

import (
	"fmt"

	"causeway/internal/probe"
	"causeway/internal/transport"
)

// Courier is a synchronous telemetry client for cluster-internal
// traffic — segment replay after a rebalance. Unlike ShipperSink it
// blocks and returns errors: the callers are operators and rebalance
// machinery, not probe hot paths, and the reply to each replay proves its
// bytes arrived and were handled.
type Courier struct {
	client transport.Client
}

// DialCourier connects and handshakes as process (shown in the peer
// ledger on the far side). A protocol-version mismatch surfaces as the
// server's own error text.
func DialCourier(addr, process string, dial func(string) (transport.Client, error)) (*Courier, error) {
	if dial == nil {
		dial = func(a string) (transport.Client, error) { return transport.DialTCP(a) }
	}
	client, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: courier dial %s: %w", addr, err)
	}
	hello := encodeHello(Hello{Version: ProtocolVersion, Process: process, ProcType: "collector"})
	rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opHello, Body: hello})
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("telemetry: courier handshake with %s: %w", addr, err)
	}
	if rep.Status != transport.StatusOK {
		client.Close()
		return nil, fmt.Errorf("telemetry: courier handshake rejected by %s: %s", addr, rep.Body)
	}
	if _, err := decodeHelloReply(rep.Body); err != nil {
		client.Close()
		return nil, err
	}
	return &Courier{client: client}, nil
}

// Replay ships one batch of replayed records and returns how many the
// receiver accepted as new (duplicates it already held are rejected and
// excluded from the count).
func (c *Courier) Replay(recs []probe.Record) (accepted uint64, err error) {
	rep, err := c.client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opReplay, Body: probe.EncodeFrame(recs)})
	if err != nil {
		return 0, fmt.Errorf("telemetry: replay: %w", err)
	}
	if rep.Status != transport.StatusOK {
		return 0, fmt.Errorf("telemetry: replay rejected: %s", rep.Body)
	}
	return decodeCount(rep.Body)
}

// Close tears the connection down.
func (c *Courier) Close() error { return c.client.Close() }
