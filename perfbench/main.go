// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in-process through the program's public entry points
// (harness, core.Run, chaos.Sweep), checks every output against an oracle,
// and prints one JSON result line:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics (wall_s, cpu_s,
// setup_s, peak_rss_mb, ok_frac). With --trace 1 it carries the per-layer
// metrics instead: CPU attributed to internal/<module> from a CPU profile,
// the program's own registry counters, and timed calls the benchmark makes
// into each layer's public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupRepeats = 9

// outDir holds what a run leaves behind (checkpoint temp dirs, CPU
// profiles, span dumps). It lives in the checkout, next to the build.
const outDir = ".bench_build/perfbench"

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	var (
		name    = flag.String("workload", "", "paper-sweep | repair-at-scale | chaos-campaign")
		seed    = flag.Int64("seed", 0, "input seed (paper-sweep ignores it: the paper's matrix is fixed)")
		seconds = flag.Int("seconds", 30, "length of the timed section; at least one pass always runs")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := run(start, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(start time.Time, name string, seed int64, budget time.Duration, traced bool) error {
	setup, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	// Checkpoint directories and flight-recorder dumps go to os.TempDir;
	// keep them inside the checkout.
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return err
	}

	// Set up several times and keep the last state; the first repetition
	// also carries process start-up since main began.
	var st state
	setups := make([]float64, 0, setupRepeats)
	t0 := start
	for i := 0; i < setupRepeats; i++ {
		if st, err = setup(seed); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up %v s\n", setups)

	env := fingerprint(name, seed, tmp)
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", env)

	var res result
	if traced {
		res, err = runTraced(name, st, func() (state, error) { return setup(seed) }, env)
	} else {
		res, err = runTimed(st, budget)
		if err == nil {
			res.Metrics["setup_s"] = metric{median(setups), "s"}
		}
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runTimed repeats untraced passes until the budget is spent (at least
// one) and reports medians per operation: wall and CPU time summed over one
// pass's operations, peak RSS over all of them (see byInput).
func runTimed(st state, budget time.Duration) (result, error) {
	walls, cpus, rss := byInput{}, byInput{}, byInput{}
	var tally opTally
	// Start another pass only if it should end within the budget, so a run
	// takes about --seconds however long one pass is.
	begin := time.Now()
	var last time.Duration
	opsPerPass := 0
	for passes := 0; passes == 0 || time.Since(begin)+last <= budget; passes++ {
		t0 := time.Now()
		ops, err := st.pass(nil)
		if err != nil {
			return result{}, err
		}
		last = time.Since(t0)
		opsPerPass = len(ops)
		var wall, cpu float64
		for _, o := range ops {
			walls.add(o.name, o.use.wall)
			cpus.add(o.name, o.use.cpu)
			rss.add(o.name, o.use.peakMB)
			wall += o.use.wall
			cpu += o.use.cpu
			if len(ops) <= len(paperOps) { // not chaos-campaign's 768 cells a pass
				fmt.Fprintf(os.Stderr, "perfbench:   %s: wall %.3fs cpu %.3fs peak %.1fMB\n", o.name, o.use.wall, o.use.cpu, o.use.peakMB)
			}
		}
		tally.add(ops)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: wall %.3fs cpu %.3fs\n", passes+1, wall, cpu)
	}
	tally.report(os.Stderr)
	return result{
		Correct:   tally.correct(),
		Attempted: tally.attempted,
		Failed:    tally.failed,
		Metrics: map[string]metric{
			"wall_s":      {walls.perPass(opsPerPass), "s"},
			"cpu_s":       {cpus.perPass(opsPerPass), "s"},
			"peak_rss_mb": {rss.median(), "MB"},
			"ok_frac":     {tally.okFrac(), "ratio"},
		},
	}, nil
}

// byInput groups a run's samples by the operation that produced them; an
// operation's name names its input.
type byInput map[string][]float64

func (b byInput) add(input string, v float64) { b[input] = append(b[input], v) }

// median is the median over inputs of each input's median, so every input
// weighs the same however many passes reached it. Repair-at-scale's victim
// draws differ by up to 40% in peak RSS; a plain median over passes would
// move with how many passes each draw got.
func (b byInput) median() float64 {
	ms := make([]float64, 0, len(b))
	for _, vs := range b {
		ms = append(ms, median(vs))
	}
	return median(ms)
}

// perPass is the cost of one pass of opsPerPass operations built from each
// input's median: their sum, scaled from the inputs seen to one pass. For
// paper-sweep that is the sum of each figure's median, so one slow figure
// of one pass does not move it; repair-at-scale, whose pass is a single
// run that changes victim draw every pass, gets the mean of the draws'
// medians.
func (b byInput) perPass(opsPerPass int) float64 {
	var sum float64
	for _, vs := range b {
		sum += median(vs)
	}
	return sum * float64(opsPerPass) / float64(len(b))
}

// settle empties the program's sync.Pools (they survive one collection)
// and returns freed memory, so a pass does not inherit the previous pass's
// heap and peak RSS does not grow with the number of passes.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// usage is what one operation cost.
type usage struct {
	wall, cpu float64 // seconds
	peakMB    float64 // peak RSS while it ran
}

// measured runs f from a settled heap with the RSS high-water mark reset
// and returns its wall and CPU time and the peak RSS it reached, so the
// figures belong to f and not to set-up or earlier operations. The maximum
// of one operation swings with GC timing; runTimed reports the median over
// many.
func measured(f func()) (usage, error) {
	settle()
	if err := resetPeakRSS(); err != nil {
		return usage{}, err
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	f()
	u := usage{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	var err error
	u.peakMB, err = peakRSSMB()
	return u, err
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
