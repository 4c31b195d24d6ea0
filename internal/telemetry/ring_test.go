package telemetry

import (
	"strings"
	"testing"
)

// Validate refuses every ring a shipper could not route by: a slot count
// that is not a power of two, no members, a member without an id or an
// address, and spans that leave a gap, overlap or fall short.
func TestRingValidate(t *testing.T) {
	if err := testRing(1, "a:1", "b:2", "c:3").Validate(); err != nil {
		t.Fatalf("valid ring refused: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Ring)
		want string
	}{
		{"slots not a power of two", func(r *Ring) { r.Slots = 63 }, "power of two"},
		{"no slots", func(r *Ring) { r.Slots = 0 }, "power of two"},
		{"no members", func(r *Ring) { r.Members = nil }, "no members"},
		{"empty id", func(r *Ring) { r.Members[1].ID = "" }, "no id"},
		{"empty addr", func(r *Ring) { r.Members[1].Addr = "" }, "no address"},
		{"gap", func(r *Ring) { r.Members[1].Start++ }, "gap or overlap"},
		{"overlap", func(r *Ring) { r.Members[1].Start-- }, "gap or overlap"},
		{"empty span", func(r *Ring) { r.Members[0].End = 0; r.Members[1].Start = 0 }, "empty span"},
		{"short", func(r *Ring) { r.Members[2].End-- }, "cover"},
	} {
		r := testRing(1, "a:1", "b:2", "c:3")
		tc.edit(&r)
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}
