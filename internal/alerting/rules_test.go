package alerting

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkParseRules is FuzzParseRules' property: ParseRules returns an error
// or rules the evaluator can run — positive windows, a finite positive burn
// threshold and exemplar cap, a non-negative objective, a target in (0,1) —
// and never panics.
func checkParseRules(t *testing.T, src string) ([]Rule, error) {
	rules, err := ParseRules(strings.NewReader(src))
	if err != nil {
		return nil, err
	}
	for _, r := range rules {
		if !(r.Target > 0 && r.Target < 1) || r.Objective < 0 ||
			r.FastWindow <= 0 || r.SlowWindow < r.FastWindow || r.ResolveAfter <= 0 ||
			!(r.Burn > 0) || math.IsInf(r.Burn, 1) || r.MaxExemplars <= 0 {
			t.Fatalf("ParseRules(%q) returned a rule the evaluator cannot run: %+v", src, r)
		}
	}
	return rules, nil
}

// parseRulesSeeds are FuzzParseRules' checked-in seeds: a valid file, and
// one line per value validation once let through.
func parseRulesSeeds() map[string]string {
	return map[string]string{
		"valid": "# name selector objective tuning\n" +
			"checkout-p99 iface=Checkout objective=250ms target=0.99 fast=1m slow=5m burn=2\n" +
			"lookup-skel  iface=Directory op=lookup objective=10ms\n" +
			"ship-errors  iface=Shipper errors target=0.999 resolve=30s exemplars=4\n",
		"target-nan":         "r iface=I objective=1ms target=NaN",
		"target-one":         "r iface=I errors target=1",
		"burn-nan":           "r iface=I objective=1ms burn=NaN",
		"burn-inf":           "r iface=I objective=1ms burn=+Inf",
		"negative-fast":      "r iface=I objective=1ms fast=-1m slow=1m",
		"negative-slow":      "r iface=I errors fast=-2m slow=-1m",
		"negative-resolve":   "r iface=I objective=1ms resolve=-1s",
		"negative-objective": "r iface=I objective=-5ms",
		"negative-exemplars": "r iface=I errors exemplars=-1",
		"second-line-bad":    "ok iface=I errors\nr iface=I errors burn=NaN",
		"not-key-value":      "justaname notakv",
	}
}

// Every seed but the valid file is refused with its line number.
// UPDATE_FUZZ_CORPUS=1 rewrites FuzzParseRules' checked-in seeds from these.
func TestParseRulesFuzzSeeds(t *testing.T) {
	seeds := parseRulesSeeds()
	for name, src := range seeds {
		rules, err := checkParseRules(t, src)
		switch {
		case name == "valid" && (err != nil || len(rules) != 3):
			t.Errorf("%s: %d rules, %v", name, len(rules), err)
		case name == "second-line-bad" && (err == nil || !strings.HasPrefix(err.Error(), "rules line 2: ")):
			t.Errorf("%s: error %v, want one for line 2", name, err)
		case name != "valid" && name != "second-line-bad" && (err == nil || !strings.HasPrefix(err.Error(), "rules line 1: ")):
			t.Errorf("%s: error %v, want one for line 1", name, err)
		}
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzParseRules")
	for name, src := range seeds {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", src)
		path := filepath.Join(dir, name)
		if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if have, err := os.ReadFile(path); err != nil || string(have) != want {
			t.Errorf("fuzz seed %s is missing or stale (%v); rerun with UPDATE_FUZZ_CORPUS=1", path, err)
		}
	}
}

// FuzzParseRules: any rules file parses to an error or to rules the
// evaluator can run, never a panic.
func FuzzParseRules(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) { checkParseRules(t, src) })
}
