package probe

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// A Compact holds no pointer, so a slab of them is a noscan allocation the
// garbage collector never marks: no pointer, string, slice, map, channel,
// function or interface anywhere in it.
func TestCompactHoldsNoPointer(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Compact", reflect.TypeOf(Compact{}))
}

// A record converted through a table resolves back to itself, but for the
// link block and for wall times, which come back as the wire carries them;
// records of two parts resolve through one Symbols, and the same operation
// in two parts is told the same.
func TestCompactResolvesAcrossParts(t *testing.T) {
	op := OpID{Component: "c", Interface: "I", Operation: "f", Object: "o"}
	r := Record{
		Kind: KindEvent, Process: "p", ProcType: "x86", Thread: 7, Op: op,
		Oneway: true, LatencyArmed: true, Semantics: "args",
		Chain: [16]byte{1}, Event: 2, Seq: 3,
		WallStart: time.Unix(5, 6), CPUStart: 8, CPUEnd: 9,
		LinkParent: [16]byte{4},
	}
	syms := NewSymbols(2)
	syms.Table(1).intern("shifts the ids of part 1")
	var a, b Compact
	syms.Table(0).Convert(&a, &r)
	syms.Table(1).Convert(&b, &r)
	if a.Part != 0 || b.Part != 1 || a.Op == b.Op {
		t.Fatalf("parts %d and %d, ops %v and %v: want ids that differ by part", a.Part, b.Part, a.Op, b.Op)
	}
	if !syms.SameOp(&a, &b) {
		t.Fatal("the same operation in two parts is told apart")
	}
	want := r
	want.LinkParent = [16]byte{}
	want.WallStart = time.Unix(0, r.WallStart.UnixNano())
	for _, c := range []*Compact{&a, &b} {
		var got Record
		if syms.Resolve(&got, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("part %d resolves to %+v, want %+v", c.Part, got, want)
		}
	}
	if a.WallEnd != NoWallTime {
		t.Fatalf("no wall end converts to %d, want NoWallTime", a.WallEnd)
	}
}

// The compact decode of a frame whose strings its table holds allocates
// nothing: each table entry is a lookup that finds its id, and a record
// without Semantics adds no symbol.
func TestDecodeCompactAllocFree(t *testing.T) {
	recs := codecRecords()
	for i := range recs {
		recs[i].Semantics = ""
	}
	frame := encodeBatch(recs)
	dst := make([]Compact, len(recs))
	tab := NewSymbols(1).Table(0)
	var d FrameDecoder
	if _, err := d.DecodeCompact(frame, tab, dst[:0]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { d.DecodeCompact(frame, tab, dst[:0]) }); n != 0 {
		t.Fatalf("DecodeCompact of a known vocabulary allocates %v times", n)
	}
}

// A reader may resolve an id it was handed while the table's one writer
// goes on adding, through every growth of the list: under -race, this is
// the chain table's monitor, whose callbacks keep trees that resolve their
// strings later.
func TestSymbolTableResolvesWhileWriterAdds(t *testing.T) {
	tab := NewSymbols(1).Table(0)
	ids := make(chan uint32, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for id := range ids {
			if got, want := tab.String(id), fmt.Sprint("s", id); got != want {
				t.Errorf("id %d resolves to %q, want %q", id, got, want)
			}
		}
	}()
	for i := 1; i <= 5000; i++ {
		s := fmt.Sprint("s", i)
		if i%2 == 0 {
			s = tab.String(tab.intern(s)) // interned, and found again
		}
		if id := tab.intern(s); id != uint32(i) {
			t.Fatalf("string %d got id %d", i, id)
		}
		ids <- uint32(i)
	}
	close(ids)
	<-done
}
