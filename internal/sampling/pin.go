package sampling

import (
	"sync"

	"causeway/internal/uuid"
)

// PinSet is a concurrent set of chains that retention must keep
// regardless of sampling rates or buffer pressure. The alerting plane
// pins the exemplar chains of pending and firing alerts into it so the
// causal evidence behind an SLO violation survives tail sampling — an
// alert that names a chain the store already dropped would be useless.
//
// The set is small (a bounded number of exemplars per alert rule), so a
// plain RWMutex map wins over anything cleverer: Pinned sits on the
// collector's retention path, which is per completed chain, not per
// record.
type PinSet struct {
	mu sync.RWMutex
	m  map[uuid.UUID]struct{}
}

// NewPinSet builds an empty pin set.
func NewPinSet() *PinSet {
	return &PinSet{m: make(map[uuid.UUID]struct{})}
}

// Pin marks a chain as must-keep. Idempotent.
func (s *PinSet) Pin(c uuid.UUID) {
	s.mu.Lock()
	s.m[c] = struct{}{}
	s.mu.Unlock()
}

// Unpin releases a chain back to normal retention rules.
func (s *PinSet) Unpin(c uuid.UUID) {
	s.mu.Lock()
	delete(s.m, c)
	s.mu.Unlock()
}

// Pinned reports whether the chain is pinned. Nil-receiver safe so
// callers can consult an optional set without a guard.
func (s *PinSet) Pinned(c uuid.UUID) bool {
	if s == nil {
		return false
	}
	s.mu.RLock()
	_, ok := s.m[c]
	s.mu.RUnlock()
	return ok
}

// Len reports how many chains are pinned.
func (s *PinSet) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
