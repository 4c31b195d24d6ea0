package cluster

import (
	"fmt"

	"causeway/internal/logdb"
	"causeway/internal/probe"
	"causeway/internal/telemetry"
	"causeway/internal/transport"
	"causeway/internal/uuid"
)

// ReplayConfig drives one segment replay: shipping a hash range out of
// a store — typically a dead collector's directory reopened, or a
// surviving collector shedding a range it no longer owns — to the
// range's new owner.
type ReplayConfig struct {
	// Source is the store holding the range. Segments are durable, so
	// for a disk store this works whether the owning collectd is alive,
	// drained, or crashed: reopening its -store directory recovers
	// everything that reached disk (torn tails truncated, exactly like a
	// restart).
	Source Store
	// Range selects the records to move — OwnedBy or MovedTo.
	Range func(uuid.UUID) bool
	// Target is the new owner's telemetry address.
	Target string
	// Process identifies the replayer in the target's peer ledger;
	// default "replayer".
	Process string
	// BatchSize caps records per replay frame; default 256.
	BatchSize int
	// Dial overrides the transport dialer (tests).
	Dial func(addr string) (transport.Client, error)
}

// ReplayResult accounts one replay run.
type ReplayResult struct {
	Scanned  uint64 // records in the moved range, read back from segments
	Accepted uint64 // records the new owner accepted as new — its Replayed, our Retired
	Rejected uint64 // duplicates the new owner already held
}

// Replay scans cfg.Source for the moved range and ships it to the
// target in batches over the replay operation. Each batch's reply is the
// receiver's count, so when Replay returns the target has handled every
// batch. The receiver deduplicates; Accepted is the count it took as new,
// which is exactly what the source's ledger retires — the pairing that
// keeps sum(Replayed) == sum(Retired) across the tier and every chain
// counted once.
func Replay(cfg ReplayConfig) (ReplayResult, error) {
	var res ReplayResult
	if cfg.Source == nil || cfg.Range == nil || cfg.Target == "" {
		return res, fmt.Errorf("cluster: replay needs Source, Range, and Target")
	}
	if cfg.Process == "" {
		cfg.Process = "replayer"
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	courier, err := telemetry.DialCourier(cfg.Target, cfg.Process, cfg.Dial)
	if err != nil {
		return res, err
	}
	defer courier.Close()

	batch := make([]probe.Record, 0, cfg.BatchSize)
	send := func() error {
		if len(batch) == 0 {
			return nil
		}
		accepted, err := courier.Replay(batch)
		if err != nil {
			return err
		}
		res.Accepted += accepted
		res.Rejected += uint64(len(batch)) - accepted
		batch = batch[:0]
		return nil
	}
	if err := logdb.RangeRecords(cfg.Source, cfg.Range, func(r probe.Record) error {
		res.Scanned++
		batch = append(batch, r)
		if len(batch) >= cfg.BatchSize {
			return send()
		}
		return nil
	}); err != nil {
		return res, err
	}
	if err := send(); err != nil {
		return res, err
	}
	return res, nil
}

// RecoverLedger reconstructs a dead collector's ledger side from its
// surviving segments: everything on disk was appended and persisted
// (its in-memory counters died with it, which is why the ledger is
// recovered from what is durable). What it acknowledged but had not
// written to a segment — chains open in its table, evictions in the
// segment writers' buffers — is in its journal beside the segments, and
// the collector replays that into the store, counted the same way, when
// it starts again. Pair it with Replay results — Retired += Accepted — to
// keep the dead member's account balanced as its ranges move to new
// owners.
func RecoverLedger(store Store) Ledger {
	n := uint64(store.Len())
	return Ledger{Appended: n, Persisted: n}
}
