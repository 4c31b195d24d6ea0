// Package gls provides goroutine-local storage: the Go analog of the
// thread-specific storage (TSS) the paper's virtual tunnel relies on.
//
// The tunnel transports the Function-Transportable Log from a function
// implementation body down to its child function's stub "through a
// thread-specific storage … completely transparent to user applications"
// (paper §2.1, Figure 2). Go deliberately hides goroutine identity, so a
// library-level analog must recover it from the runtime stack header; this
// is the one non-idiomatic trick the transparent-tunnel property requires,
// and it is confined to this package.
//
// Recovering the identity costs microseconds (a runtime.Stack call), so the
// hot path resolves it exactly once per dispatch: Self returns a G handle
// that probe sites capture at stub entry / skeleton dispatch and thread
// through every subsequent probe and tunnel operation via the *G method
// variants. A G is only valid on the goroutine that resolved it.
//
// Slots must be explicitly cleared (or the goroutine Released) when a
// logical execution entity finishes; the ORB runtime does this on every
// dispatch, realizing the paper's observation O2 (a pooled thread is always
// refreshed with the latest FTL and never leaks a stale one).
package gls

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// shardCount spreads goroutine slots over independently locked maps to keep
// contention low when many dispatch goroutines run probes concurrently.
const shardCount = 64

type shard[T any] struct {
	mu sync.RWMutex
	m  map[uint64]T
}

// Store is a goroutine-keyed map. Each goroutine sees its own value.
// The zero value is not usable; create Stores with NewStore. Values are
// stored by their concrete type — no interface boxing — so storing a small
// struct (the FTL) allocates nothing.
type Store[T any] struct {
	shards [shardCount]shard[T]
}

// NewStore returns an empty Store.
func NewStore[T any]() *Store[T] {
	s := &Store[T]{}
	for i := range s.shards {
		s.shards[i].m = make(map[uint64]T)
	}
	return s
}

// G is a resolved goroutine identity: the handle Self returns. Capture it
// once at dispatch entry and reuse it for every probe and tunnel operation
// of that dispatch — each reuse saves a runtime.Stack parse. A G must not
// cross goroutines (except through scheduler APIs that explicitly manage
// logical threads on other goroutines' behalf).
type G uint64

// Self resolves the calling goroutine's identity. It is the entry point of
// the allocation-free probe path: stubs call it (inside StubStart) at probe
// 1, the ORB calls it once per skeleton dispatch, and everything downstream
// reuses the handle.
//
// Goroutines that pre-registered with Register resolve in constant time (a
// g-register read plus one sharded map hit, ~25ns); everything else falls
// back to the pooled runtime.Stack parse (~3µs). Long-lived dispatch
// goroutines — ORB pool workers, transport read loops, STA message loops —
// register at birth so steady-state requests never touch runtime.Stack.
func Self() G {
	if fastOK.Load() {
		p := getg()
		sh := regShardFor(p)
		sh.mu.RLock()
		g, ok := sh.m[p]
		sh.mu.RUnlock()
		if ok {
			return g
		}
	}
	parses.Add(1)
	return G(GoroutineID())
}

// parses counts the Self calls that fell back to the stack parse; tests pin
// a registered goroutine's probes at none.
var parses atomic.Uint64

// SelfID is Self().ID() without the handle wrapper: the gid resolve used by
// the Store convenience methods.
func SelfID() uint64 { return uint64(Self()) }

// ID returns the raw goroutine id the handle was resolved from.
func (g G) ID() uint64 { return uint64(g) }

// Registration fast path ----------------------------------------------------
//
// The registry maps the opaque runtime g pointer (see getg) of a registered
// goroutine to its parsed G handle. The g pointer is read in a couple of
// nanoseconds, so a registered goroutine's Self is a map hit instead of a
// runtime.Stack call. The registry is sharded like Store to keep concurrent
// dispatch goroutines off each other's locks.
//
// Contract: only the goroutine itself may Register, and it must Unregister
// (on itself) before it returns — the runtime reuses g structs, so a stale
// registration could hand a recycled goroutine the previous owner's
// identity. Pool workers register once at birth and unregister on shutdown;
// per-request goroutines pair Register with defer Unregister.

type regShard struct {
	mu sync.RWMutex
	m  map[uintptr]G
}

var regTable [shardCount]regShard

// fastOK gates the registration fast path: set at init only if the getg
// primitive self-validates on this platform/runtime.
var fastOK atomic.Bool

func init() {
	for i := range regTable {
		regTable[i].m = make(map[uintptr]G)
	}
	if getgAvailable {
		fastOK.Store(validateGetg())
	}
}

func regShardFor(p uintptr) *regShard {
	// Fibonacci hash: g pointers are heap addresses with shared low bits.
	return &regTable[(uint64(p)*0x9E3779B97F4A7C15)>>(64-6)]
}

// validateGetg proves the getg primitive behaves as an identity on this
// runtime: non-zero, stable across calls on one goroutine, and distinct
// across goroutines that are alive simultaneously. Any failure disables the
// fast path; correctness then rests solely on the stack parse.
func validateGetg() bool {
	if getg() == 0 {
		return false
	}
	const n = 8
	ptrs := make([]uintptr, n)
	var ready, done sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		ready.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			p := getg()
			ready.Done()
			<-release // hold all n goroutines alive at once
			if getg() == p {
				ptrs[i] = p
			}
		}(i)
	}
	ready.Wait()
	close(release)
	done.Wait()
	seen := make(map[uintptr]bool, n)
	for _, p := range ptrs {
		if p == 0 || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// Register resolves the calling goroutine's identity once (one stack parse)
// and pins it in the fast-path registry, so every subsequent Self from this
// goroutine is constant-time. Returns the handle so owners can thread it
// directly. Re-registering is idempotent. The caller must Unregister on the
// same goroutine before it exits.
func Register() G {
	g := G(GoroutineID())
	if fastOK.Load() {
		p := getg()
		sh := regShardFor(p)
		sh.mu.Lock()
		sh.m[p] = g
		sh.mu.Unlock()
	}
	return g
}

// syntheticCtr mints ids for RegisterFresh. Synthetic ids live in the top
// half of the id space (syntheticBase bit set) so they can never collide
// with runtime goroutine ids, which count up from 1.
var syntheticCtr atomic.Uint64

const syntheticBase uint64 = 1 << 63

// RegisterFresh registers the calling goroutine under a freshly minted
// synthetic identity, skipping the runtime.Stack parse entirely. It is the
// right registration for goroutines that are *born owned* — per-request
// dispatch threads, MTA call goroutines — which have produced no records
// under their runtime id before registering, so any process-unique id
// serves as their logical thread id. Synthetic ids carry the top bit, a
// namespace runtime ids (which count from 1) can never reach.
//
// When the fast path is unavailable the registry cannot make Self return
// the synthetic handle, so RegisterFresh degrades to Register (one parse):
// the returned handle then agrees with what downstream Self calls resolve.
// Like Register, the caller must Unregister on the same goroutine before
// it exits.
func RegisterFresh() G {
	if fastOK.Load() {
		g := G(syntheticBase | syntheticCtr.Add(1))
		p := getg()
		sh := regShardFor(p)
		sh.mu.Lock()
		sh.m[p] = g
		sh.mu.Unlock()
		return g
	}
	return Register()
}

// Unregister removes the calling goroutine's fast-path registration. Must
// run on the goroutine that called Register.
func Unregister() {
	if fastOK.Load() {
		p := getg()
		sh := regShardFor(p)
		sh.mu.Lock()
		delete(sh.m, p)
		sh.mu.Unlock()
	}
}

// Registered reports whether the calling goroutine has a live fast-path
// registration.
func Registered() bool {
	if !fastOK.Load() {
		return false
	}
	p := getg()
	sh := regShardFor(p)
	sh.mu.RLock()
	_, ok := sh.m[p]
	sh.mu.RUnlock()
	return ok
}

// FastPathEnabled reports whether the getg fast path validated on this
// platform. When false, Register/Unregister are no-ops and Self always
// parses.
func FastPathEnabled() bool { return fastOK.Load() }

// Scratch buffers -----------------------------------------------------------

const (
	// stackBufMin comfortably holds the "goroutine <id> [state]:" header.
	stackBufMin = 64
	// stackBufCap clamps what Put returns to the pool, mirroring the cdr
	// encoder pool: a pathological growth episode must not pin large
	// buffers in the pool forever.
	stackBufCap = 4096
)

// stackBufPool recycles the scratch buffers GoroutineID hands to
// runtime.Stack. The runtime retains its argument past the call from the
// compiler's point of view, so a local slice would escape and every
// resolution would allocate; pooling keeps the resolve allocation-free.
var stackBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, stackBufMin)
		return &b
	},
}

func putStackBuf(bp *[]byte) {
	if cap(*bp) > stackBufCap {
		return // oversized: let it be collected rather than pinned
	}
	stackBufPool.Put(bp)
}

// GoroutineID returns the runtime id of the calling goroutine.
//
// The id is parsed from the first line of the runtime stack trace
// ("goroutine N [running]:"). This costs on the order of a microsecond —
// the dominant probe cost — which is why the hot path resolves it once per
// dispatch (see Self) rather than once per probe, and why registered
// goroutines bypass it entirely. If the scratch buffer is too small to
// prove the digits complete, it doubles and retries (then Put clamps).
func GoroutineID() uint64 {
	bp := stackBufPool.Get().(*[]byte)
	id, ok := parseGID(*bp)
	for !ok {
		*bp = make([]byte, cap(*bp)*2)
		id, ok = parseGID(*bp)
	}
	putStackBuf(bp)
	return id
}

// parseGID fills buf from runtime.Stack and parses the goroutine id from
// the header. ok is false when the digits may have been truncated by a
// too-small buffer (they ran to the very end of the written bytes).
func parseGID(buf []byte) (uint64, bool) {
	n := runtime.Stack(buf, false)
	const prefix = len("goroutine ")
	if n <= prefix {
		return 0, false
	}
	var id uint64
	i := prefix
	for ; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	if i == n {
		return 0, false
	}
	return id, id != 0
}

func (s *Store[T]) shardFor(gid uint64) *shard[T] {
	return &s.shards[gid%shardCount]
}

// Get returns the calling goroutine's value and whether one was set.
func (s *Store[T]) Get() (T, bool) {
	return s.GetG(SelfID())
}

// GetG is Get for an explicit goroutine id (used by schedulers that manage
// logical threads on behalf of other goroutines, and by probe sites that
// already hold a Self handle).
func (s *Store[T]) GetG(gid uint64) (T, bool) {
	sh := s.shardFor(gid)
	sh.mu.RLock()
	v, ok := sh.m[gid]
	sh.mu.RUnlock()
	return v, ok
}

// Set stores v for the calling goroutine.
func (s *Store[T]) Set(v T) {
	s.SetG(SelfID(), v)
}

// SetG is Set for an explicit goroutine id.
func (s *Store[T]) SetG(gid uint64, v T) {
	sh := s.shardFor(gid)
	sh.mu.Lock()
	sh.m[gid] = v
	sh.mu.Unlock()
}

// Clear removes the calling goroutine's value, if any.
func (s *Store[T]) Clear() {
	s.ClearG(SelfID())
}

// ClearG is Clear for an explicit goroutine id.
func (s *Store[T]) ClearG(gid uint64) {
	sh := s.shardFor(gid)
	sh.mu.Lock()
	delete(sh.m, gid)
	sh.mu.Unlock()
}

// Swap stores v for the calling goroutine and returns the previous value.
// Schedulers that multiplex one goroutine across logical calls (the COM STA
// message loop) use Swap to save and restore tunnel state around dispatch,
// which is exactly the paper's fix for causal chain mingling (§2.2).
func (s *Store[T]) Swap(v T) (prev T, had bool) {
	return s.SwapG(SelfID(), v)
}

// SwapG is Swap for an explicit goroutine id.
func (s *Store[T]) SwapG(gid uint64, v T) (prev T, had bool) {
	sh := s.shardFor(gid)
	sh.mu.Lock()
	prev, had = sh.m[gid]
	sh.m[gid] = v
	sh.mu.Unlock()
	return prev, had
}

// Len reports how many goroutines currently hold values; useful in leak
// tests asserting that dispatch paths always clear their slots.
func (s *Store[T]) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += len(sh.m)
		sh.mu.RUnlock()
	}
	return total
}
