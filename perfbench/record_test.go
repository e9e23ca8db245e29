package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ftsg/internal/core"
)

var record = flag.Int("record", 0, "re-record repair-at-scale fingerprints for seeds 0..N-1 from the program under test")

// TestRecordRepairFingerprints writes testdata/repair-at-scale.txt. It runs
// only with -record N: every seed is a full 2432-rank run.
func TestRecordRepairFingerprints(t *testing.T) {
	if *record <= 0 {
		t.Skip("pass -record N to re-record")
	}
	var b strings.Builder
	b.WriteString("# seed fingerprint of core.Run on repairConfig(seed), recorded by TestRecordRepairFingerprints\n")
	for seed := int64(0); seed < int64(*record); seed++ {
		settle()
		res, err := core.Run(repairConfig(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fmt.Fprintf(&b, "%d %s\n", seed, repairFingerprint(res))
	}
	if err := os.WriteFile(filepath.Join("testdata", "repair-at-scale.txt"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
