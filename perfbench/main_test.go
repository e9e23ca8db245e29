package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"ftsg/internal/chaos"
	"ftsg/internal/core"
	"ftsg/internal/recovery"
)

func init() { dataDir = "testdata" }

func TestAttributeCannedProfile(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "profile.traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"pde.cpu_s":                0.5,
		"mpi.cpu_s":                0.2, // memmove under mpi.Send: innermost internal frame
		"checkpoint.cpu_s":         0.3,
		"vtime.cpu_s":              0.1,
		"grid.cpu_s":               0.15,
		"metrics.cpu_s":            0.05, // a GC assist charged to the allocating module
		"core.cpu_s":               0,
		"recovery.cpu_s":           0,
		"other.cpu_s":              0.2, // GC worker, scheduler, unlisted module
		"mpi.halo.cpu_s":           0.2,
		"mpi.rendezvous.cpu_s":     0.1,
		"recovery.repair.cpu_s":    0.1,
		"core.combine.cpu_s":       0.15,
		"checkpoint.syscall.cpu_s": 0.3,
		"gc.cpu_s":                 0.15,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	var total float64
	for _, m := range append(modules, "other") {
		total += got[m+".cpu_s"]
	}
	if math.Abs(total-1.5) > 1e-9 {
		t.Errorf("modules sum to %v, want every sample once (1.5)", total)
	}
}

// TestProfileCPU runs the toolchain's pprof on a real profile of a busy
// loop, which has no internal/ frame.
func TestProfileCPU(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := profileCPU(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["other.cpu_s"] <= 0 || got["pde.cpu_s"] != 0 {
		t.Errorf("busy loop attributed as other=%v pde=%v", got["other.cpu_s"], got["pde.cpu_s"])
	}
}

// TestCorruptedReferenceFails shows that the paper-sweep oracle counts a
// reference mismatch as a failed operation.
func TestCorruptedReferenceFails(t *testing.T) {
	st, err := setupPaperSweep(0)
	if err != nil {
		t.Fatal(err)
	}
	ps := st.(*paperSweep)
	ps.only = "checkpointrule" // renders without simulating
	var good opTally
	ops, err := ps.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	good.add(ops)
	if good.attempted != 1 || good.failed != 0 || !good.correct() {
		t.Fatalf("recorded reference: %d/%d failed", good.failed, good.attempted)
	}

	ref := append([]byte(nil), ps.refs["checkpointrule"]...)
	ref[len(ref)/2] ^= 1
	ps.refs["checkpointrule"] = ref
	var bad opTally
	ops, err = ps.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad.add(ops)
	if bad.failed != 1 || bad.okFrac() != 0 || bad.correct() {
		t.Fatalf("corrupted reference: failed %d, ok_frac %v, correct %v", bad.failed, bad.okFrac(), bad.correct())
	}
}

func TestKnownChaosDefect(t *testing.T) {
	kdr := chaos.Outcome{Scenario: chaos.Scenario{Mode: chaos.ModeKillDuringRecovery},
		Technique:  core.ResamplingCopying,
		Violations: []string{"reported 2 failed ranks, scenario schedules at least 3 deaths"}}
	replay := chaos.Outcome{Scenario: chaos.Scenario{Mode: chaos.ModeCkptCorrupt},
		Technique:  core.CheckpointRestart,
		Violations: []string{traceReplayDiverged}}
	with := func(o chaos.Outcome, f func(*chaos.Outcome)) chaos.Outcome { f(&o); return o }
	cases := []struct {
		o     chaos.Outcome
		rmode recovery.Mode
		known bool
	}{
		{kdr, recovery.ModeShrink, true},
		{kdr, recovery.ModeNoRepair, true},
		{kdr, recovery.ModeSpawn, false},
		{with(kdr, func(o *chaos.Outcome) { o.Violations = []string{traceReplayDiverged} }), recovery.ModeShrink, false},
		{with(kdr, func(o *chaos.Outcome) {
			o.Violations = []string{"reported 1 failed ranks, scenario schedules at least 3 deaths"}
		}), recovery.ModeShrink, false},
		{replay, recovery.ModeNoRepair, true},
		{replay, recovery.ModeShrink, false},
		{with(replay, func(o *chaos.Outcome) { o.Technique = core.ResamplingCopying }), recovery.ModeNoRepair, false},
		{with(replay, func(o *chaos.Outcome) { o.Violations = append(o.Violations, "x") }), recovery.ModeNoRepair, false},
	}
	for i, c := range cases {
		op := chaosOp(c.o, c.rmode)
		if op.err == nil || op.known != c.known {
			t.Errorf("case %d: err %v known %v, want known %v", i, op.err, op.known, c.known)
		}
	}
}

func TestChaosSeedsKeepTheCIMix(t *testing.T) {
	ci := chaosSeeds(0)
	for i, s := range ci {
		if s != int64(i+1) {
			t.Fatalf("seed 0 picks %v, want the CI block 1..64", ci)
		}
	}
	mix := func(seeds []int64) map[byte]int {
		m := map[byte]int{}
		for _, s := range seeds {
			m[chaos.NewScenario(s).Mode]++
		}
		return m
	}
	want := mix(ci)
	for _, n := range []int64{1, 7, 1000} {
		got := chaosSeeds(n)
		if len(got) != chaosBlock || got[0] <= n*chaosBlock {
			t.Errorf("seed %d: %d seeds from %d", n, len(got), got[0])
		}
		if m := mix(got); !reflect.DeepEqual(m, want) {
			t.Errorf("seed %d: scenario mix %v, want %v", n, m, want)
		}
	}
}

// TestProbes runs the layer probes and the kill-then-repair program on the
// chaos campaign's small world and checks every timed call has samples.
func TestProbes(t *testing.T) {
	sp := newSpans()
	cc := &chaosCampaign{}
	if err := cc.probe(sp); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Technique: core.ResamplingCopying, DiagProcs: 2}.WithDefaults()
	if err := probeULFM(sp, cfg, 1); err != nil {
		t.Fatal(err)
	}
	survivors := cfg.NumProcs() - 2
	for _, lc := range layerCalls {
		med, p90, n := sp.callStats(lc.spans, lc.scaleNS, lc.perWork)
		want := minSamples
		switch lc.metric {
		case "mpi.revoke_ms", "mpi.agree_ms", "mpi.shrink_ms", "mpi.spawn_ms", "mpi.merge_ms", "mpi.split_ms":
			want = survivors // one call per survivor of round 1
		case "recovery.repair_ms":
			want = survivors + 2 // survivors of round 2 and its two replacements
		}
		if n < want || med <= 0 || p90 < med {
			t.Errorf("%s: %d calls (want >= %d), median %v, p90 %v", lc.metric, n, want, med, p90)
		}
	}
}
