package idl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// idlSeeds are FuzzParseIDL's checked-in seeds: the repository's own IDL
// files, which compile, and one source for each way the front end refuses
// one — lexical, syntactic and semantic.
func idlSeeds(t testing.TB) map[string]string {
	files, err := filepath.Glob(filepath.Join("..", "..", "idl", "*.idl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no IDL files to seed from (%v)", err)
	}
	seeds := map[string]string{
		"bad-character":        "interface Foo { @ }",
		"unterminated-comment": "/* never closed",
		"unterminated-module":  "module M { interface I {} ",
		"missing-direction":    "interface Foo { void f(long x); }",
		"nested-sequence":      "struct S { sequence<sequence<sequence<long>>> deep; };",
		"unknown-type":         "interface I { void f(in Nope x); }",
		"oneway-returns":       "interface I { oneway long f(); }",
		"duplicate-operation":  "interface I { void f(); void f(); }",
		"exception-as-data":    "exception E { string m; }; struct S { E e; };",
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seeds["idl-"+strings.TrimSuffix(filepath.Base(path), ".idl")] = string(src)
	}
	return seeds
}

// The seeds compile or fail as their names say and are checked in under
// testdata/fuzz/FuzzParseIDL. UPDATE_FUZZ_CORPUS=1 rewrites them after a
// change, as after an edit to a file under idl/.
func TestIDLFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseIDL")
	for name, src := range idlSeeds(t) {
		_, err := compile(t, src)
		if wantErr := !strings.HasPrefix(name, "idl-") && name != "nested-sequence"; (err != nil) != wantErr {
			t.Errorf("%s: error %v, want one %v", name, err, wantErr)
		}
		body := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", src)
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != body {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// compile runs src through the front end — Lex, Parse, Check — and checks
// how it stops: Parse fails exactly where Lex does, every failure is a
// positioned SyntaxError or SemanticError, and a checked spec's symbol
// table holds every interface it declares.
func compile(t *testing.T, src string) (*Symbols, error) {
	t.Helper()
	_, lexErr := Lex(src)
	spec, err := Parse(src)
	if lexErr != nil {
		if err == nil || err.Error() != lexErr.Error() {
			t.Fatalf("Lex failed with %v but Parse with %v", lexErr, err)
		}
		return nil, err
	}
	var syn *SyntaxError
	if err != nil {
		if !errors.As(err, &syn) || syn.Line < 1 || syn.Col < 1 {
			t.Fatalf("Parse error %v (%T) carries no position", err, err)
		}
		return nil, err
	}
	if spec == nil {
		t.Fatal("Parse returned neither a spec nor an error")
	}
	sym, err := Check(spec)
	var sem *SemanticError
	if err != nil {
		if !errors.As(err, &sem) || sem.Line < 0 {
			t.Fatalf("Check error %v (%T) is not a SemanticError", err, err)
		}
		return nil, err
	}
	if sym == nil {
		t.Fatal("Check returned neither symbols nor an error")
	}
	return sym, nil
}

// FuzzParseIDL: the IDL front end (Lex, Parse, Check) over arbitrary
// source. An error or a value, never a panic: a positioned error for what
// it refuses, a symbol table for what it accepts. Seeds are checked in
// under testdata/fuzz/FuzzParseIDL (TestIDLFuzzSeeds).
func FuzzParseIDL(f *testing.F) {
	for _, src := range idlSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) { compile(t, src) })
}
