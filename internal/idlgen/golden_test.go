package idlgen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"causeway/internal/idl"
)

// TestCheckedInStubsMatchGenerator regenerates every checked-in *_gen.go
// file from its IDL source, as cmd/idlc would, and requires it byte for
// byte: a generator change must come with regenerated stubs, and a stub
// edited by hand fails here.
func TestCheckedInStubsMatchGenerator(t *testing.T) {
	const root = "../.."
	for _, tc := range []struct {
		idl, out, pkg string
		instrument    bool
	}{
		{"quickstart.idl", "examples/quickstart/greeter/greeter_gen.go", "greeter", true},
		{"pipeline.idl", "internal/pps/ppsgen/pipeline_gen.go", "ppsgen", true},
		{"echo.idl", "internal/benchgen/plainecho/echo_gen.go", "plainecho", false},
		{"echo.idl", "internal/benchgen/instrecho/echo_gen.go", "instrecho", true},
		{"types.idl", "internal/benchgen/typesgen/types_gen.go", "typesgen", true},
	} {
		t.Run(tc.pkg, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(root, "idl", tc.idl))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := idl.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			got, err := Generate(spec, Options{Package: tc.pkg, Instrument: tc.instrument, Source: tc.idl})
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(root, tc.out))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from idlc's output for %s; regenerate it: idlc -package %s -instrument=%v -o %s idl/%s",
					tc.out, tc.idl, tc.pkg, tc.instrument, tc.out, tc.idl)
			}
		})
	}
}
