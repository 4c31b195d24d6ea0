package main

import "testing"

// TestRun drives the deployment under the flag sets CI used to run as
// `go run ./examples/livemonitor ... | grep -E`, asserting on the returned
// summary what each regular expression asserted on the printed line. Every
// run must also succeed outright, which includes its end-of-run proof that
// the collected store's DSCG equals the per-process logs'.
func TestRun(t *testing.T) {
	const calls = 18 // 3 clients x 6 calls: the "of 18 chains" the sampling line prints
	base := runConfig{seed: 1, rate: 1, debugAddr: "127.0.0.1:0"}
	with := func(edit func(*runConfig)) runConfig {
		rc := base
		edit(&rc)
		return rc
	}
	mergedClean := func(t *testing.T, s summary) {
		// 'fleet store merged [1-9][0-9]* record(s) from 3 collectors, 0 duplicates'
		if s.MergedRecords < 1 || s.Collectors != 3 || s.Duplicates != 0 {
			t.Errorf("fleet merge: %d record(s) from %d collectors, %d duplicate(s); want >0, 3, 0",
				s.MergedRecords, s.Collectors, s.Duplicates)
		}
	}
	for _, tc := range []struct {
		name  string
		rc    runConfig
		check func(*testing.T, summary)
	}{
		{"-faults -seed 7", with(func(rc *runConfig) { rc.faults, rc.seed = true, 7 }),
			func(t *testing.T, s summary) {
				// 'analyzer reports [1-9][0-9]* warning'
				if s.Warnings < 1 {
					t.Errorf("injected faults surfaced as %d analyzer warnings, want at least 1", s.Warnings)
				}
			}},
		{"default", base,
			func(t *testing.T, s summary) {
				// 'debug: /healthz ok, /metrics exposes [1-9][0-9]* series'
				if s.Series < 1 {
					t.Errorf("mid-run self-scrape saw %d series, want at least 1", s.Series)
				}
			}},
		// Every collector streams now, so the flag set that once selected the
		// streaming collector is the default one; the case keeps its name and
		// its assertion on the streaming store.
		{"-stream", base,
			func(t *testing.T, s summary) {
				// 'networked collection is lossless: DSCG from the collected store ([1-9][0-9]* records)'
				if s.Records < 1 {
					t.Errorf("collected store holds %d records, want at least 1", s.Records)
				}
			}},
		{"-rate 0.5", with(func(rc *runConfig) { rc.rate = 0.5 }),
			func(t *testing.T, s summary) {
				// 'sampling: head rate 0.5 retained [0-9]+ of 18 chains'
				if s.RetainedChains < 0 || s.RetainedChains > calls {
					t.Errorf("head sampling retained %d of %d chains", s.RetainedChains, calls)
				}
			}},
		{"-cluster 3", with(func(rc *runConfig) { rc.clusterN = 3 }), mergedClean},
		{"-cluster 3 -faults -seed 7", with(func(rc *runConfig) { rc.clusterN, rc.faults, rc.seed = 3, true, 7 }), mergedClean},
		{"-cluster 3 -kill-after 7", with(func(rc *runConfig) { rc.clusterN, rc.killAfter = 3, 7 }),
			func(t *testing.T, s summary) {
				// 'cluster: kill recovery: [0-9]+ chain(s) straddle the kill epoch' —
				// the line prints only once the kill was survived and the
				// fleet merged, so reaching it is the assertion.
				if s.Collectors != 3 || s.MergedRecords < 1 || s.StraddlingChains < 0 {
					t.Errorf("kill recovery: %+v", s)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := run(tc.rc)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			tc.check(t, s)
		})
	}
}
