package telemetry

import (
	"encoding/binary"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"causeway/internal/probe"
	"causeway/internal/transport"
)

// gatedFrameSink is a frame sink whose AppendFrame waits for release
// once it has said it entered.
type gatedFrameSink struct {
	frameRecordSink
	entered chan struct{}
	release chan struct{}
}

func (s *gatedFrameSink) AppendFrame(f *probe.Frame) {
	s.entered <- struct{}{}
	<-s.release
	s.frameRecordSink.AppendFrame(f)
}

// A journaled ship frame is acknowledged before the sinks take it: with
// the sink's AppendFrame blocked the ship call still returns. The apply
// stays inside Quiesce's barrier, and the connection's next frame is read
// only after it, so the sink holds both frames in order once released.
func TestShipAckedBeforeApply(t *testing.T) {
	sink := &gatedFrameSink{entered: make(chan struct{}, 2), release: make(chan struct{})}
	var journaled atomic.Int64
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Sinks:   []probe.Sink{sink},
		Journal: func([]byte) error { journaled.Add(1); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	release := sync.OnceFunc(func() { close(sink.release) })
	defer release() // before srv.Close, which waits for the apply
	ship := func(recs []probe.Record) error {
		rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: encodeBatch(recs), Timeout: 5 * time.Second})
		if err == nil && rep.Status != transport.StatusOK {
			t.Errorf("ship answered %+v", rep)
		}
		return err
	}
	recs := codecRecords()
	first, second := recs[:3], recs[3:]

	if err := ship(first); err != nil {
		t.Fatalf("ship with the sink blocked: %v", err)
	}
	<-sink.entered
	if n := journaled.Load(); n != 1 {
		t.Fatalf("%d frames journaled when the first was acknowledged, want 1", n)
	}
	quiesced := make(chan struct{})
	go func() { srv.Quiesce(func() {}); close(quiesced) }()
	shipped := make(chan error, 1)
	go func() { shipped <- ship(second) }()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while an acknowledged frame was being applied")
	case err := <-shipped:
		t.Fatalf("the next frame was answered (%v) before the one before it was applied", err)
	default:
	}
	sink.mu.Lock()
	held := len(sink.recs)
	sink.mu.Unlock()
	if held != 0 {
		t.Fatalf("the blocked sink holds %d records", held)
	}

	release()
	<-quiesced
	if err := <-shipped; err != nil {
		t.Fatal(err)
	}
	srv.Quiesce(func() {})
	if !reflect.DeepEqual(sink.recs, recs) || sink.frames != 2 {
		t.Fatalf("the sink holds %d records in %d frames, want the %d shipped in 2, in order", len(sink.recs), sink.frames, len(recs))
	}
}

// A peer that sends ship frames and never reads its replies fills its
// socket, and the server's reply write, made inside Quiesce's barrier,
// blocks. The write is bounded by transport.ReplyWriteTimeout: past it the
// connection is closed, so Quiesce — which every ingest and a node's
// journal rotation wait behind — returns within that bound, and other
// shippers go on.
func TestQuiesceBoundedByPeerThatNeverReads(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{Journal: func([]byte) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := encodeBatch(codecRecords()[:1])
	done := make(chan error, 1)
	go func() {
		var out []byte
		for id := uint64(1); ; {
			out = out[:0]
			for range 64 {
				frame := transport.EncodeRequestFrame(transport.Request{ID: id, ObjectKey: ObjectKey, Operation: opShip, Body: body})
				out = append(binary.LittleEndian.AppendUint32(out, uint32(len(frame))), frame...)
				id++
			}
			if _, err := conn.Write(out); err != nil {
				done <- err
				return
			}
		}
	}()
	// The server is stuck once it stops taking frames.
	for last := uint64(0); ; {
		time.Sleep(100 * time.Millisecond)
		n := srv.Stats().Batches
		if n > 0 && n == last {
			break
		}
		last = n
	}
	bound := transport.ReplyWriteTimeout + time.Second
	quiesced := make(chan struct{})
	go func() { srv.Quiesce(func() {}); close(quiesced) }()
	select {
	case <-quiesced:
	case <-time.After(bound):
		t.Fatalf("Quiesce still waits %v behind a peer that never reads", bound)
	}
	// Generous: should the stall above be misread, the buffers still
	// have to fill before the write deadline can run.
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the server kept the connection of a peer that never reads")
	}

	client, err := transport.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if rep, err := client.Call(transport.Request{ObjectKey: ObjectKey, Operation: opShip, Body: body, Timeout: bound}); err != nil || rep.Status != transport.StatusOK {
		t.Fatalf("ship after the peer was cut: %v %+v", err, rep)
	}
}
