package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ftsg/internal/metrics"
)

// modules are the internal/ packages CPU is attributed to; a sample goes
// to the innermost frame of one of them, or to "other".
var modules = []string{
	"pde", "mpi", "checkpoint", "grid", "combine", "ftcomb", "recovery", "core",
	"trace", "metrics", "vtime", "topo", "faultgen", "harness", "chaos", "telemetry",
}

const modulePrefix = "ftsg/internal/"

// cpuPaths are CPU on named paths: a sample counts when its stack matches.
var cpuPaths = []struct {
	name  string
	match func(stack []string) bool
}{
	{"mpi.halo.cpu_s", hasFrame("ftsg/internal/pde.(*ParallelSolver).exchangeHalos")},
	{"mpi.rendezvous.cpu_s", hasFrame("ftsg/internal/mpi.(*rendezvous)")},
	{"recovery.repair.cpu_s", hasFrame("ftsg/internal/recovery.")},
	{"core.combine.cpu_s", hasFrame("ftsg/internal/core.(*runState).combinePhase")},
	{"checkpoint.syscall.cpu_s", func(stack []string) bool {
		return hasFrame("ftsg/internal/checkpoint.")(stack) &&
			(hasFrame("syscall.")(stack) || hasFrame("internal/runtime/syscall.")(stack))
	}},
	{"gc.cpu_s", func(stack []string) bool {
		return hasFrame("runtime.gcBgMarkWorker")(stack) || hasFrame("runtime.gcAssistAlloc")(stack)
	}},
}

func hasFrame(prefix string) func([]string) bool {
	return func(stack []string) bool {
		for _, f := range stack {
			if strings.HasPrefix(f, prefix) {
				return true
			}
		}
		return false
	}
}

// moduleOf names the internal module of a frame, or "".
func moduleOf(frame string) string {
	rest, ok := strings.CutPrefix(frame, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute reads `go tool pprof -traces` output and returns CPU seconds
// per "<module>.cpu_s" and per named path. Stacks are listed leaf first.
func attribute(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{"other.cpu_s": 0}
	for _, m := range modules {
		out[m+".cpu_s"] = 0
	}
	for _, p := range cpuPaths {
		out[p.name] = 0
	}
	var (
		value float64
		stack []string
		inSep bool
	)
	flush := func() {
		if len(stack) == 0 {
			return
		}
		mod := "other"
		for _, f := range stack {
			if m := moduleOf(f); m != "" {
				if _, known := out[m+".cpu_s"]; known {
					mod = m
				}
				break
			}
		}
		out[mod+".cpu_s"] += value
		for _, p := range cpuPaths {
			if p.match(stack) {
				out[p.name] += value
			}
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSep = true
			continue
		}
		if !inSep {
			continue // header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := strings.TrimSuffix(strings.TrimSpace(line), " (inline)")
		if len(stack) == 0 {
			// The first line of a trace carries its sample value.
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			value = d.Seconds()
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		if strings.Contains(frame, ":[") {
			continue // a sample label line, not a frame
		}
		stack = append(stack, frame)
	}
	flush()
	return out, sc.Err()
}

// profileCPU attributes a CPU profile with the toolchain's pprof.
func profileCPU(path string) (map[string]float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return attribute(&stdout)
}

// registryCounters are the program's own counters read after the traced
// pass; they are deterministic functions of the inputs.
var registryCounters = []string{
	"mpi.sent.messages", "mpi.sent.bytes", "mpi.sent.inter", "mpi.revokes", "mpi.spawned",
	"checkpoint.bytes.written", "checkpoint.bytes.read",
	"checkpoint.generations.fallback",
}

// layerCalls maps a reported metric to the benchmark's spans around one
// layer's public calls: median, p90 and count are reported.
var layerCalls = []struct {
	metric  string
	unit    string
	spans   []string
	scaleNS float64 // nanoseconds per unit
	perWork bool
}{
	{"pde.step_ns_per_cell", "ns", []string{spanStep}, 1, true},
	{"mpi.halo_us", "us", []string{spanHalo}, 1e3, false},
	{"mpi.allreduce_us", "us", []string{spanAllreduce}, 1e3, false},
	{"checkpoint.write_us", "us", []string{spanCkptWrite}, 1e3, false},
	{"checkpoint.read_us", "us", []string{spanCkptRead}, 1e3, false},
	{"grid.accumulate_ms", "ms", []string{spanAccumulate}, 1e6, false},
	{"mpi.revoke_ms", "ms", []string{spanRevoke}, 1e6, false},
	{"mpi.agree_ms", "ms", []string{spanAgree}, 1e6, false},
	{"mpi.shrink_ms", "ms", []string{spanShrink}, 1e6, false},
	{"mpi.spawn_ms", "ms", []string{spanSpawn}, 1e6, false},
	{"mpi.merge_ms", "ms", []string{spanMerge}, 1e6, false},
	{"mpi.split_ms", "ms", []string{spanSplit}, 1e6, false},
	{"recovery.repair_ms", "ms", []string{spanRepair, spanAttach}, 1e6, false},
}

// runTraced makes one untraced pass as the overhead baseline, then one
// pass under a CPU profile with the workload's registry attached, then the
// layer probes, and reports the per-layer metrics. The traced pass runs on
// a fresh set-up, so both passes see the same inputs.
func runTraced(name string, st state, setup func() (state, error), env string) (result, error) {
	dir := filepath.Join(outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	var tally opTally

	settle()
	t0 := time.Now()
	ops, err := st.pass(nil)
	if err != nil {
		return result{}, err
	}
	plain := time.Since(t0).Seconds()
	tally.add(ops)

	if st, err = setup(); err != nil {
		return result{}, err
	}
	sp := newSpans()
	reg := metrics.New()
	profPath := filepath.Join(dir, name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	settle()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(f); err != nil {
		return result{}, err
	}
	t0 = time.Now()
	ops, err = st.pass(reg)
	t1 := time.Now()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return result{}, err
	}
	if err := f.Close(); err != nil {
		return result{}, err
	}
	sp.record("pass "+name, 0, t0, t1, 0)
	tally.add(ops)
	tally.report(os.Stderr)

	// The probes run after the profile stops so they do not count in the
	// workload's module attribution.
	if err := st.probe(sp); err != nil {
		return result{}, err
	}
	cpu, err := profileCPU(profPath)
	if err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	for k, v := range cpu {
		m[k] = metric{v, "s"}
	}
	for _, c := range registryCounters {
		m[c] = metric{float64(reg.Counter(c).Value()), "count"}
	}
	for _, lc := range layerCalls {
		med, p90, n := sp.callStats(lc.spans, lc.scaleNS, lc.perWork)
		m[lc.metric] = metric{med, lc.unit}
		m[lc.metric+".p90"] = metric{p90, lc.unit}
		m[lc.metric+".calls"] = metric{float64(n), "count"}
	}
	m["runtime.alloc_mb"] = metric{float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20), "MB"}
	m["runtime.gc_cycles"] = metric{float64(ms1.NumGC - ms0.NumGC), "count"}
	m["bench.trace_overhead_frac"] = metric{t1.Sub(t0).Seconds()/plain - 1, "ratio"}

	if err := writeSpans(filepath.Join(dir, name+".spans.json"), env, sp); err != nil {
		return result{}, err
	}
	return result{Correct: tally.correct(), Attempted: tally.attempted, Failed: tally.failed, Metrics: m}, nil
}

// writeSpans writes the run's fingerprint line followed by its spans.
func writeSpans(path, env string, sp *spans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "# %s\n", env)
	if err := sp.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
