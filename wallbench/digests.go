package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// recordedDigests are the output digests at defaultSeed: the rendered
// tables (gcn_train, predictor_fit), the key → response body map
// (plan_serve) and the ChurnResult plus its Sim snapshot (churn_stream).
// A default-seed run whose output differs fails its output check.
var recordedDigests = map[string]string{
	"gcn_train":     "8fc5372f4c896a99121fb02a73842d2b736e04fdabb7c9cbbf0a1ecba581bcd2",
	"predictor_fit": "88670b3e2a1d423a90e66cc626b94998d81a7f73dde4347e40579e6771369069",
	"plan_serve":    "49f60f64e24688ba675b494a086ef41c70890e0f20b11dffc4a4f7b1699ab380",
	"churn_stream":  "bc2b5725fd0e73d5a1bab1181c32819641afd836eaef53db391bf95a267b4629",
}

// checkOutputs verifies a run's outputs: every iteration must be free
// of problems and produce the same digest, traced or not; at the
// default seed that digest must equal the recorded one, and at any
// other seed it must equal the digest the first run of that seed in
// this checkout stored.
func checkOutputs(workload string, seed int64, its []iteration) (bool, []string) {
	ok := true
	var msgs []string
	fail := func(format string, args ...any) {
		ok = false
		msgs = append(msgs, "output check: "+fmt.Sprintf(format, args...))
	}
	digest := its[0].res.Digest
	for i, it := range its {
		for _, p := range it.res.Problems {
			fail("iteration %d: %s", i, p)
		}
		for _, n := range it.res.Notes {
			msgs = append(msgs, n)
		}
		if it.res.Failed > 0 {
			fail("iteration %d: %d of %d operations failed", i, it.res.Failed, it.res.Attempted)
		}
		if it.res.Digest != digest {
			fail("iteration %d digest %.16s differs from iteration 0's %.16s", i, it.res.Digest, digest)
		}
	}
	if seed == defaultSeed {
		if want := recordedDigests[workload]; digest != want {
			fail("digest %s differs from the recorded default-seed digest %q", digest, want)
		} else {
			msgs = append(msgs, fmt.Sprintf("output digest %.16s matches the recorded default-seed digest", digest))
		}
		return ok, msgs
	}
	path := filepath.Join(buildDir, "digests", fmt.Sprintf("%s-seed%d", workload, seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && strings.TrimSpace(string(prev)) != digest:
		fail("digest %s differs from %s, stored by an earlier run of this seed", digest, strings.TrimSpace(string(prev)))
	case err == nil:
		msgs = append(msgs, fmt.Sprintf("output digest %.16s matches earlier runs of seed %d", digest, seed))
	case ok:
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = os.WriteFile(path, []byte(digest+"\n"), 0o644)
		}
		if err != nil {
			fail("storing digest: %v", err)
		} else {
			msgs = append(msgs, fmt.Sprintf("output digest %.16s stored for later runs of seed %d", digest, seed))
		}
	}
	return ok, msgs
}
