package causeway_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// CI selects tests by hand-kept patterns: every -run, -bench and -fuzz
// pattern of a `go test` command in the workflow is split on `|`, and each
// alternative must match a Test, Benchmark or Fuzz function — the kind the
// flag selects — in the packages that command names. A test renamed or
// moved without its pattern then fails here, not silently in CI.
func TestCIPatternsMatchTests(t *testing.T) {
	body, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package dir → its test functions
	checked := 0
	for n, line := range strings.Split(string(body), "\n") {
		for _, cmd := range goTestCommands(line) {
			var pkgs []string
			flags := map[string]string{}
			for i := 0; i < len(cmd); i++ {
				switch arg := cmd[i]; {
				case (arg == "-run" || arg == "-bench" || arg == "-fuzz") && i+1 < len(cmd):
					flags[arg] = cmd[i+1]
					i++
				case arg == "." || strings.HasPrefix(arg, "./"):
					pkgs = append(pkgs, arg)
				}
			}
			if len(flags) == 0 {
				continue
			}
			var names []string
			for _, pkg := range pkgs {
				dirs, err := packageDirs(pkg)
				if err != nil || len(dirs) == 0 {
					t.Errorf("ci.yml:%d: package %s: %v", n+1, pkg, err)
				}
				for _, dir := range dirs {
					if _, ok := funcs[dir]; !ok {
						funcs[dir] = testFuncs(t, dir)
					}
					names = append(names, funcs[dir]...)
				}
			}
			for flag, pattern := range flags {
				if pattern == "^$" {
					continue
				}
				for _, alt := range strings.Split(pattern, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("ci.yml:%d: %s %q: %v", n+1, flag, alt, err)
						continue
					}
					checked++
					if !matchesKind(re, names, flag) {
						t.Errorf("ci.yml:%d: %s alternative %q matches no %s function in %s", n+1, flag, alt, kindOf(flag), strings.Join(pkgs, " "))
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run, -bench or -fuzz pattern found in ci.yml")
	}
}

// goTestCommands splits a workflow line into its shell commands — on
// unquoted &&, ||, ; and | — and returns the words of each that runs
// `go test`, quotes removed.
func goTestCommands(line string) [][]string {
	var cmds [][]string
	var cmd []string
	var word strings.Builder
	inWord := false
	var quote rune
	flush := func() {
		if inWord {
			cmd = append(cmd, word.String())
			word.Reset()
			inWord = false
		}
	}
	end := func() {
		flush()
		if len(cmd) >= 2 && cmd[0] == "go" && cmd[1] == "test" {
			cmds = append(cmds, cmd[2:])
		}
		cmd = nil
	}
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			word.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '&' || r == '|' || r == ';' || r == '(' || r == ')':
			end()
		case r == ' ' || r == '\t':
			flush()
		default:
			word.WriteRune(r)
			inWord = true
		}
	}
	end()
	return cmds
}

// packageDirs is the directories a `go test` package argument names.
func packageDirs(pkg string) ([]string, error) {
	root, all := strings.CutSuffix(pkg, "/...")
	if !all {
		return []string{filepath.Clean(pkg)}, nil
	}
	var dirs []string
	err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if err == nil && d.IsDir() {
			dirs = append(dirs, path)
		}
		return err
	})
	return dirs, err
}

// testFuncs lists the top-level Test, Benchmark and Fuzz functions of the
// test files in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// kindOf is the function kind a flag selects: -run runs tests and fuzz
// targets' seeds, -bench benchmarks, -fuzz a fuzz target.
func kindOf(flag string) string {
	switch flag {
	case "-bench":
		return "Benchmark"
	case "-fuzz":
		return "Fuzz"
	}
	return "Test or Fuzz"
}

func matchesKind(re *regexp.Regexp, names []string, flag string) bool {
	for _, name := range names {
		var ok bool
		switch flag {
		case "-bench":
			ok = strings.HasPrefix(name, "Benchmark")
		case "-fuzz":
			ok = strings.HasPrefix(name, "Fuzz")
		default:
			ok = strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")
		}
		if ok && re.MatchString(name) {
			return true
		}
	}
	return false
}
