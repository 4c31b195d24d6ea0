package probe

import (
	"sync/atomic"
	"time"

	"causeway/internal/uuid"
)

// Compact is a record as the analyzer holds it: its IndexEntry, and the
// symbol ids of its six identity strings and its Semantics in the table of
// part Part of a Symbols. It holds no pointer — TestCompactHoldsNoPointer
// pins that — so a slab of them is a noscan allocation the garbage
// collector never marks, and copying one needs no write barrier. It has no
// link block: links never reach the Figure-4 machine.
type Compact struct {
	IndexEntry
	Process, ProcType uint32
	Op                CompactOp
	Semantics         uint32
	Part              uint32
}

// CompactOp is an OpID as symbol ids. Two of them name the same operation
// when they are equal and their records share a part.
type CompactOp struct{ Component, Interface, Operation, Object uint32 }

// Symbols is the string side of a set of Compact records: one append-only
// SymbolTable per part, so that the parts of a query — a trace store's
// shards — intern on their own goroutines with no lock. A record names its
// part, so records of different parts resolve through one Symbols.
type Symbols struct{ tables []SymbolTable }

// NewSymbols returns symbols of parts empty tables.
func NewSymbols(parts int) *Symbols {
	s := &Symbols{tables: make([]SymbolTable, parts)}
	for i := range s.tables {
		s.tables[i].part = uint32(i)
	}
	return s
}

// Table returns part p's table.
func (s *Symbols) Table(p int) *SymbolTable { return &s.tables[p] }

// Op resolves c's operation.
func (s *Symbols) Op(c *Compact) OpID { return s.tables[c.Part].op(c) }

// Operation resolves c's method name alone.
func (s *Symbols) Operation(c *Compact) string { return s.tables[c.Part].String(c.Op.Operation) }

// Process resolves c's process.
func (s *Symbols) Process(c *Compact) string { return s.tables[c.Part].String(c.Process) }

// ProcType resolves c's processor type.
func (s *Symbols) ProcType(c *Compact) string { return s.tables[c.Part].String(c.ProcType) }

// SemanticsOf resolves c's Semantics.
func (s *Symbols) SemanticsOf(c *Compact) string { return s.tables[c.Part].String(c.Semantics) }

// SameOp reports whether a and b name the same operation, comparing ids
// when they share a part and strings when they do not.
func (s *Symbols) SameOp(a, b *Compact) bool {
	if a.Part == b.Part {
		return a.Op == b.Op
	}
	return s.Op(a) == s.Op(b)
}

// Resolve writes into dst the record c was made from, without the link
// block it does not keep.
func (s *Symbols) Resolve(dst *Record, c *Compact) { s.tables[c.Part].Resolve(dst, c) }

// Resolve is Symbols.Resolve for a record c of t's part.
func (t *SymbolTable) Resolve(dst *Record, c *Compact) {
	c.IndexEntry.resolve(dst)
	dst.Process, dst.ProcType = t.String(c.Process), t.String(c.ProcType)
	dst.Op = t.op(c)
	dst.Semantics = t.String(c.Semantics)
}

// resolve writes e's fields into dst and clears dst's link block, leaving
// its strings as they are.
func (e *IndexEntry) resolve(dst *Record) {
	dst.Kind, dst.Thread = e.Kind, e.Thread
	dst.Oneway, dst.Collocated, dst.LatencyArmed, dst.CPUArmed = e.Oneway, e.Collocated, e.LatencyArmed, e.CPUArmed
	dst.Chain, dst.Event, dst.Seq = e.Chain, e.Event, e.Seq
	dst.WallStart, dst.WallEnd = WallTime(e.WallStart), WallTime(e.WallEnd)
	dst.CPUStart, dst.CPUEnd = e.CPUStart, e.CPUEnd
	dst.LinkParent, dst.LinkParentSeq, dst.LinkChild = uuid.UUID{}, 0, uuid.UUID{}
}

// op resolves the operation of a record c of t's part.
func (t *SymbolTable) op(c *Compact) OpID {
	return OpID{
		Component: t.String(c.Op.Component), Interface: t.String(c.Op.Interface),
		Operation: t.String(c.Op.Operation), Object: t.String(c.Op.Object),
	}
}

// WallTime is the time.Time of an IndexEntry's wall time: the zero time for
// NoWallTime.
func WallTime(nanos int64) time.Time {
	if nanos == NoWallTime {
		return time.Time{}
	}
	return time.Unix(0, nanos)
}

// SymbolTable is one part's symbols: an append-only list of strings, id 0
// the empty string, in which the identity strings are interned. It is
// written by one goroutine at a time. A reader on another goroutine may
// resolve any id it was handed after the write that made it, while the
// writer goes on adding: the list is published whole, through an atomic
// pointer, each time it grows, and an id's slot never changes.
type SymbolTable struct {
	strs  atomic.Pointer[[]string] // every symbol by id, len its capacity
	n     int                      // symbols held
	bytes int                      // bytes of the strings held
	index map[string]uint32        // interned strings to their ids
	part  uint32
}

// String returns symbol id.
func (t *SymbolTable) String(id uint32) string {
	if p := t.strs.Load(); p != nil {
		return (*p)[id]
	}
	return ""
}

// Len returns how many symbols t holds, and Bytes how many bytes of
// strings.
func (t *SymbolTable) Len() int   { return t.n }
func (t *SymbolTable) Bytes() int { return t.bytes }

// Reset empties t for reuse, keeping its room. Ids it handed out before no
// longer resolve to their strings.
func (t *SymbolTable) Reset() {
	if p := t.strs.Load(); p != nil {
		clear((*p)[:t.n])
		t.n = 1
	}
	t.bytes = 0
	clear(t.index)
}

// intern returns s's id, adding s once.
func (t *SymbolTable) intern(s string) uint32 {
	if s == "" {
		return 0
	}
	if id, ok := t.index[s]; ok {
		return id
	}
	return t.insert(s)
}

// internBytes is intern of string(b), allocating only for a string not yet
// held.
func (t *SymbolTable) internBytes(b []byte) uint32 {
	if len(b) == 0 {
		return 0
	}
	if id, ok := t.index[string(b)]; ok {
		return id
	}
	return t.insert(string(b))
}

// insert adds s and indexes it.
func (t *SymbolTable) insert(s string) uint32 {
	if t.index == nil {
		t.index = make(map[string]uint32)
	}
	id := t.add(s)
	t.index[s] = id
	return id
}

// add appends s, uninterned — a Semantics, unique by nature, would only
// grow the index — and returns its id.
func (t *SymbolTable) add(s string) uint32 {
	if s == "" {
		return 0
	}
	p := t.strs.Load()
	if p == nil || t.n == len(*p) {
		p = t.grow(2 * t.n)
	}
	id := uint32(t.n)
	(*p)[id] = s
	t.n++
	t.bytes += len(s)
	return id
}

// Convert writes r into dst, interning its identity strings and adding its
// Semantics; the link block is left behind.
func (t *SymbolTable) Convert(dst *Compact, r *Record) {
	dst.IndexEntry = entryOf(r)
	dst.Process, dst.ProcType = t.intern(r.Process), t.intern(r.ProcType)
	dst.Op = CompactOp{t.intern(r.Op.Component), t.intern(r.Op.Interface), t.intern(r.Op.Operation), t.intern(r.Op.Object)}
	dst.Semantics = t.add(r.Semantics)
	dst.Part = t.part
}

// grow publishes a list of room for size symbols, at least 16, holding
// those held.
func (t *SymbolTable) grow(size int) *[]string {
	grown := make([]string, max(16, size))
	if p := t.strs.Load(); p != nil {
		copy(grown, *p)
	} else {
		t.n = 1 // id 0 is ""
	}
	t.strs.Store(&grown)
	return &grown
}

// AppendCompacts appends each of recs converted through t. An empty table
// first makes room for two symbols a record, as a chain of distinct calls
// needs.
func (t *SymbolTable) AppendCompacts(dst []Compact, recs []Record) []Compact {
	if t.strs.Load() == nil {
		t.grow(min(2*len(recs), 1024))
	}
	for i := range recs {
		dst = append(dst, Compact{})
		t.Convert(&dst[len(dst)-1], &recs[i])
	}
	return dst
}
