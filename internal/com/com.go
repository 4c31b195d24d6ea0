// Package com is the embedded COM-like runtime the paper's commercial
// system is built on (§1, §2.2): apartments, dynamic (IDispatch-style)
// invocation over an ORPC-like channel, and — crucially — the
// single-threaded-apartment message loop whose thread multiplexing between
// blocking calls violates observation O1:
//
//	"The apartment thread T can switch to serve another incoming call C2
//	when the call C1 that T is serving issues an outbound call C3 and
//	suffers blocking."
//
// Without countermeasures this mingles causal chains. The paper's fix is a
// small instrumentation of the infrastructure "before and after call
// sending and dispatching"; here that is the save/restore of the thread's
// FTL annotation around every STA dispatch (Config.PreventMingling). The
// FTL itself rides in the call message — the COM channel-hook analog —
// rather than in marshalled bytes.
package com

import (
	"errors"
	"fmt"
	"sync"

	"causeway/internal/ftl"
	"causeway/internal/gls"
	"causeway/internal/probe"
)

// ApartmentKind distinguishes threading models.
type ApartmentKind int

// Apartment kinds.
const (
	// STA is a single-threaded apartment: all its objects' calls execute on
	// one dedicated thread, serialized by a message loop that may pump
	// (serve other calls) while an outbound call blocks.
	STA ApartmentKind = iota + 1
	// MTA is the multi-threaded apartment: calls dispatch on fresh threads
	// (observation O1 holds, as in the CORBA policies).
	MTA
)

// Servant is the dynamic invocation interface (the IDispatch analog):
// COM-side components implement Invoke directly.
type Servant interface {
	// Invoke executes method with args and returns results.
	Invoke(method string, args []any) ([]any, error)
}

// ServantFunc adapts a function to Servant.
type ServantFunc func(method string, args []any) ([]any, error)

// Invoke implements Servant.
func (f ServantFunc) Invoke(method string, args []any) ([]any, error) { return f(method, args) }

// Config assembles a COM runtime (one logical process).
type Config struct {
	// Probes is the process probe set; required.
	Probes *probe.Probes
	// Instrumented arms the four probes and FTL transport on every call.
	Instrumented bool
	// PreventMingling applies the paper's STA fix: save/restore the
	// dispatch thread's FTL annotation around each dispatched call. With
	// Instrumented true and PreventMingling false the runtime reproduces
	// the causal-chain mingling the paper describes.
	PreventMingling bool
}

// queueDepth bounds each STA message queue.
const queueDepth = 64

// Runtime is a COM-like runtime instance.
type Runtime struct {
	cfg Config

	mu         sync.Mutex
	apartments []*Apartment
	objects    map[string]*object
	closed     bool

	// currentSTA tracks which apartment a dispatch thread belongs to, so
	// outbound calls from STA threads pump instead of hard-blocking.
	currentSTA *gls.Store[*Apartment]
}

type object struct {
	name      string
	iface     string
	component string
	servant   Servant
	apt       *Apartment
}

// NewRuntime builds a runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if cfg.Probes == nil {
		return nil, errors.New("com: config requires Probes")
	}
	return &Runtime{
		cfg:        cfg,
		objects:    make(map[string]*object),
		currentSTA: gls.NewStore[*Apartment](),
	}, nil
}

// Probes exposes the process probe set.
func (rt *Runtime) Probes() *probe.Probes { return rt.cfg.Probes }

// Apartment is one apartment: STA apartments own a message loop thread.
type Apartment struct {
	rt    *Runtime
	kind  ApartmentKind
	name  string
	queue chan *callMsg
	done  chan struct{}
	wg    sync.WaitGroup // MTA in-flight dispatches

	// stopMu guards queue closure: senders hold the read side while
	// enqueueing so Shutdown cannot close the queue under them.
	stopMu  sync.RWMutex
	stopped bool
}

// callMsg is the ORPC message. The FTL field is the channel-hook payload
// the paper adds to COM's ORPC channel.
type callMsg struct {
	obj    *object
	method string
	args   []any
	oneway bool
	ftl    ftl.FTL
	hasFTL bool
	reply  chan callReply
}

type callReply struct {
	results []any
	err     error
	ftl     ftl.FTL
}

// NewSTA creates a single-threaded apartment and starts its message loop.
func (rt *Runtime) NewSTA(name string) *Apartment {
	a := &Apartment{
		rt:    rt,
		kind:  STA,
		name:  name,
		queue: make(chan *callMsg, queueDepth),
		done:  make(chan struct{}),
	}
	go a.messageLoop()
	rt.mu.Lock()
	rt.apartments = append(rt.apartments, a)
	rt.mu.Unlock()
	return a
}

// NewMTA creates a multi-threaded apartment.
func (rt *Runtime) NewMTA(name string) *Apartment {
	a := &Apartment{rt: rt, kind: MTA, name: name}
	rt.mu.Lock()
	rt.apartments = append(rt.apartments, a)
	rt.mu.Unlock()
	return a
}

// Kind returns the apartment kind.
func (a *Apartment) Kind() ApartmentKind { return a.kind }

// messageLoop is the STA thread: it serves queued calls one at a time and
// is the only goroutine that ever executes this apartment's servants.
func (a *Apartment) messageLoop() {
	defer close(a.done)
	// The STA loop thread lives for the apartment's lifetime and touches
	// goroutine-local state on every pump (Swap/Set/Clear around each
	// dispatch); registering once makes all of those constant-time.
	gls.Register()
	defer gls.Unregister()
	a.rt.currentSTA.Set(a)
	defer a.rt.currentSTA.Clear()
	for msg := range a.queue {
		a.dispatch(msg)
	}
	// Drop any stale annotation before the loop thread dies.
	a.rt.cfg.Probes.Tunnel().Clear()
}

// dispatch executes one call on the current goroutine. For STA this runs
// on the loop thread — possibly *nested* inside another call's pump-wait,
// which is exactly where chains mingle without the save/restore fix.
func (a *Apartment) dispatch(msg *callMsg) {
	rt := a.rt
	prevent := rt.cfg.Instrumented && rt.cfg.PreventMingling
	var saved ftl.FTL
	var had bool
	if prevent {
		// The paper's fix: instrumentation "before … dispatching" saves the
		// annotation the interrupted call left on this thread.
		saved, had = rt.cfg.Probes.Tunnel().Swap(ftl.FTL{})
		rt.cfg.Probes.Tunnel().Clear()
	}

	op := probe.OpID{
		Component: msg.obj.component,
		Interface: msg.obj.iface,
		Operation: msg.method,
		Object:    msg.obj.name,
	}
	var sctx probe.SkelCtx
	if rt.cfg.Instrumented && msg.hasFTL {
		sctx = rt.cfg.Probes.SkelStart(op, msg.ftl, msg.oneway)
	}
	results, err := msg.obj.servant.Invoke(msg.method, msg.args)
	var replyFTL ftl.FTL
	if rt.cfg.Instrumented && msg.hasFTL {
		replyFTL = rt.cfg.Probes.SkelEnd(sctx)
	}

	if prevent {
		// …"and after": restore the interrupted call's annotation.
		rt.cfg.Probes.Tunnel().Restore(saved, had)
	}
	if msg.reply != nil {
		msg.reply <- callReply{results: results, err: err, ftl: replyFTL}
	}
}

// ObjectRef is a client-side handle to a registered object.
type ObjectRef struct {
	rt  *Runtime
	obj *object
}

// Register exports a servant in an apartment under name.
func (rt *Runtime) Register(name, iface, component string, apt *Apartment, sv Servant) (*ObjectRef, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, errors.New("com: runtime shut down")
	}
	if _, dup := rt.objects[name]; dup {
		return nil, fmt.Errorf("com: object %q already registered", name)
	}
	o := &object{name: name, iface: iface, component: component, servant: sv, apt: apt}
	rt.objects[name] = o
	return &ObjectRef{rt: rt, obj: o}, nil
}

// Object resolves a registered object by name.
func (rt *Runtime) Object(name string) (*ObjectRef, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	o, ok := rt.objects[name]
	if !ok {
		return nil, fmt.Errorf("com: object %q not registered", name)
	}
	return &ObjectRef{rt: rt, obj: o}, nil
}

// Call performs a synchronous cross-apartment invocation. When the calling
// goroutine is itself an STA loop thread, the wait pumps that apartment's
// queue, reproducing COM's SendMessage semantics.
func (r *ObjectRef) Call(method string, args ...any) ([]any, error) {
	rt := r.rt
	op := probe.OpID{
		Component: r.obj.component,
		Interface: r.obj.iface,
		Operation: method,
		Object:    r.obj.name,
	}
	msg := &callMsg{
		obj:    r.obj,
		method: method,
		args:   args,
		reply:  make(chan callReply, 1),
	}
	var sctx probe.StubCtx
	if rt.cfg.Instrumented {
		sctx = rt.cfg.Probes.StubStart(op, false)
		msg.ftl, msg.hasFTL = sctx.Wire, true
	}

	rep, err := r.deliverAndWait(msg)
	if err != nil {
		if rt.cfg.Instrumented {
			rt.cfg.Probes.StubEnd(sctx, sctx.Wire)
		}
		return nil, err
	}
	if rt.cfg.Instrumented {
		rt.cfg.Probes.StubEnd(sctx, rep.ftl)
	}
	return rep.results, rep.err
}

// Post performs a oneway invocation; the callee executes on its apartment
// with a forked causal chain.
func (r *ObjectRef) Post(method string, args ...any) error {
	rt := r.rt
	op := probe.OpID{
		Component: r.obj.component,
		Interface: r.obj.iface,
		Operation: method,
		Object:    r.obj.name,
	}
	msg := &callMsg{obj: r.obj, method: method, args: args, oneway: true}
	var sctx probe.StubCtx
	if rt.cfg.Instrumented {
		sctx = rt.cfg.Probes.StubStart(op, true)
		msg.ftl, msg.hasFTL = sctx.Wire, true
	}
	err := r.deliver(msg)
	if rt.cfg.Instrumented {
		rt.cfg.Probes.StubEnd(sctx, ftl.FTL{})
	}
	return err
}

func (r *ObjectRef) deliver(msg *callMsg) error {
	apt := r.obj.apt
	switch apt.kind {
	case STA:
		apt.stopMu.RLock()
		defer apt.stopMu.RUnlock()
		if apt.stopped {
			return errors.New("com: apartment stopped")
		}
		apt.queue <- msg
		return nil
	case MTA:
		apt.wg.Add(1)
		go func() {
			defer apt.wg.Done()
			gls.RegisterFresh() // born owned: no prior records under the runtime id
			defer gls.Unregister()
			defer apt.rt.cfg.Probes.Tunnel().Clear()
			apt.dispatch(msg)
		}()
		return nil
	default:
		return fmt.Errorf("com: bad apartment kind %d", apt.kind)
	}
}

func (r *ObjectRef) deliverAndWait(msg *callMsg) (callReply, error) {
	if err := r.deliver(msg); err != nil {
		return callReply{}, err
	}
	// An STA loop thread must pump its own queue while blocked, or any
	// same-apartment callback would deadlock — COM's reentrancy.
	if caller, ok := r.rt.currentSTA.Get(); ok && caller.kind == STA {
		return caller.pumpUntil(msg.reply), nil
	}
	return <-msg.reply, nil
}

// pumpUntil serves incoming calls on a's queue until reply delivers — the
// message-pumping wait that lets thread T switch from call C1 to call C2.
func (a *Apartment) pumpUntil(reply chan callReply) callReply {
	for {
		select {
		case rep := <-reply:
			return rep
		case msg := <-a.queue:
			a.dispatch(msg)
		}
	}
}

// Pump serves any currently queued calls without blocking; servants call
// it to model COM code that pumps messages mid-execution (PeekMessage
// loops). Only meaningful on the apartment's own loop thread.
func (rt *Runtime) Pump() {
	a, ok := rt.currentSTA.Get()
	if !ok || a.kind != STA {
		return
	}
	for {
		select {
		case msg := <-a.queue:
			a.dispatch(msg)
		default:
			return
		}
	}
}

// Shutdown stops all apartments and waits for their loops and in-flight
// MTA dispatches.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	apts := rt.apartments
	rt.mu.Unlock()
	for _, a := range apts {
		if a.kind == STA {
			a.stopMu.Lock()
			a.stopped = true
			a.stopMu.Unlock()
			close(a.queue)
			<-a.done
		} else {
			a.wg.Wait()
		}
	}
}
