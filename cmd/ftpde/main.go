// Command ftpde runs one instance of the fault-tolerant sparse-grid
// combination PDE solver on the simulated cluster and prints its metrics:
//
//	ftpde -technique AC -failures 2 -real           # kill 2 ranks, recover
//	ftpde -technique CR -machine raijin -failures 3 # simulated grid losses
//	ftpde -diagprocs 32                             # the 304-core layout
//	ftpde -failures 2 -real -trace-out trace.json   # Perfetto recovery timeline
//	ftpde -failures 1 -real -metrics                # MPI profiler summary
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ftsg/internal/core"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	"ftsg/internal/telemetry"
	"ftsg/internal/trace"
	"ftsg/internal/vtime"
)

const techniqueHelp = "recovery technique: CR (checkpoint/restart: periodic disk " +
	"checkpoints, lost grids recompute from the last one) | RC (resampling and " +
	"copying: every diagonal grid is duplicated, lost grids copy from their twin " +
	"or resample from the finer diagonal above) | AC (alternate combination: two " +
	"extra layers of coarser grids, new combination coefficients over survivors)"

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the testable body of the command: it parses args, runs the
// solver, and writes all output to the given writers.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ftpde", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		technique = fs.String("technique", "AC", techniqueHelp)
		machine   = fs.String("machine", "opl", "opl | raijin | generic")
		diagProcs = fs.Int("diagprocs", 8, "processes per diagonal sub-grid (2..32)")
		steps     = fs.Int("steps", 256, "solver timesteps")
		n         = fs.Int("n", 8, "full grid exponent (paper: 13)")
		level     = fs.Int("level", 4, "combination level l >= 4")
		failures  = fs.Int("failures", 0, "number of failures to inject")
		failStep  = fs.Int("failstep", 0, "step at which victims die (default steps/2)")
		real      = fs.Bool("real", false, "kill real processes and reconstruct (default: simulated grid loss)")
		recMode   = fs.String("recovery-mode", "spawn", "repair protocol for real failures: spawn (replacements spawned, paper Fig. 3) | shrink (survivors carry on smaller, holed grids redistribute) | substitute (pre-allocated spare ranks join instead of spawn) | norepair (shrink and keep computing unaffected grids — the measured do-nothing baseline)")
		spareRk   = fs.Int("spare-ranks", 0, "pre-allocated spare processes parked for -recovery-mode substitute (0 = default pool)")
		nodefail  = fs.Bool("nodefail", false, "fail one whole host (requires -real and -spares >= 1)")
		spares    = fs.Int("spares", 0, "spare hosts appended to the cluster for replacements")
		hosts     = fs.Int("hosts", 0, "cluster host count (0 = smallest count that fits the ranks)")
		slots     = fs.Int("slots", 0, "ranks per host (0 = machine profile default)")
		racks     = fs.Int("racks", 0, "rack count; hosts split into contiguous blocks charged at the inter-rack link tier (0 = one rack)")
		seed      = fs.Int64("seed", 1, "failure-selection seed")
		showTrace = fs.Bool("trace", false, "print the virtual-time event timeline")
		traceOut  = fs.String("trace-out", "", "write the recovery timeline as Chrome trace_event JSON to this file (load in ui.perfetto.dev)")
		showMet   = fs.Bool("metrics", false, "print the instrumentation summary (MPI messages/bytes, per-op latency, cost attribution)")
		metOut    = fs.String("metrics-out", "", "write the instrumentation summary to this file")
		quiet     = fs.Bool("quiet", false, "suppress the run summary (trace/metrics output still honoured)")
		ckptBack  = fs.String("ckpt-backend", "", "checkpoint storage backend for CR: dir (files under a temp directory, default) | mem (in-memory)")
		ckptGens  = fs.Int("ckpt-generations", 0, "checkpoint generations retained per rank; recovery falls back through them past corrupt or torn blobs (0 = store default)")
		ckptAsync = fs.Bool("ckpt-async", false, "write checkpoints on a per-store write-behind goroutine; results are bit-identical, only real I/O overlaps")
		serve     = fs.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :9090): GET /metrics (Prometheus text), /debug/ranks, /debug/trace, /healthz; the process stays up after the run until interrupted")
		eventsOut = fs.String("events-out", "", "write the structured failure-handling event journal (detections, repair phases, checkpoint commits/fallbacks) as JSONL to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	tech, err := parseTechnique(*technique)
	if err != nil {
		fmt.Fprintln(stderr, "ftpde:", err)
		return 2
	}
	mach, err := parseMachine(*machine)
	if err != nil {
		fmt.Fprintln(stderr, "ftpde:", err)
		return 2
	}
	rmode, err := recovery.ParseMode(*recMode)
	if err != nil {
		fmt.Fprintln(stderr, "ftpde:", err)
		return 2
	}

	cfg := core.Config{
		Technique:    tech,
		Machine:      mach,
		DiagProcs:    *diagProcs,
		Steps:        *steps,
		NumFailures:  *failures,
		FailStep:     *failStep,
		RealFailures: *real,
		NodeFailure:  *nodefail,
		SpareNodes:   *spares,
		RecoveryMode: rmode,
		SpareRanks:   *spareRk,
		Seed:         *seed,
	}
	cfg.Layout.N, cfg.Layout.L = *n, *level
	cfg.Hosts, cfg.SlotsPerHost, cfg.Racks = *hosts, *slots, *racks
	cfg.CheckpointBackend = *ckptBack
	cfg.CheckpointGenerations = *ckptGens
	cfg.CheckpointAsync = *ckptAsync
	var rec *trace.Recorder
	if *showTrace || *traceOut != "" {
		rec = trace.New(nil)
		cfg.Trace = rec
	}
	var reg *metrics.Registry
	if *showMet || *metOut != "" {
		reg = metrics.New()
		cfg.Metrics = reg
	}
	var journal *telemetry.Journal
	if *eventsOut != "" {
		journal = telemetry.NewJournal()
		cfg.Journal = journal
	}
	var stopServe func() error
	if *serve != "" {
		// Scraping needs live instruments even when the print flags are off.
		if rec == nil {
			rec = trace.New(nil)
			cfg.Trace = rec
		}
		if reg == nil {
			reg = metrics.New()
			cfg.Metrics = reg
		}
		intro := &mpi.Introspection{}
		cfg.Introspect = intro
		srv := &telemetry.Server{Registry: reg, Trace: rec, Introspect: intro}
		addr, stop, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(stderr, "ftpde:", err)
			return 1
		}
		stopServe = stop
		fmt.Fprintf(stderr, "ftpde: telemetry at http://%s/metrics\n", addr)
	}

	res, err := core.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ftpde:", err)
		return 1
	}

	if !*quiet {
		printResult(stdout, res)
	}
	if rec != nil && *showTrace {
		fmt.Fprintln(stdout, "\nevent timeline:")
		rec.Render(stdout)
	}
	if *traceOut != "" {
		if err := writeFileWith(*traceOut, rec.ExportChromeTrace); err != nil {
			fmt.Fprintln(stderr, "ftpde:", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stdout, "chrome trace written to %s\n", *traceOut)
		}
	}
	if *showMet {
		fmt.Fprintln(stdout, "\ninstrumentation summary:")
		reg.WriteSummary(stdout)
	}
	if *metOut != "" {
		err := writeFileWith(*metOut, func(w io.Writer) error {
			reg.WriteSummary(w)
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, "ftpde:", err)
			return 1
		}
	}
	if *eventsOut != "" {
		err := writeFileWith(*eventsOut, func(w io.Writer) error {
			return journal.WriteJSONL(w, true)
		})
		if err != nil {
			fmt.Fprintln(stderr, "ftpde:", err)
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stdout, "event journal written to %s (%d events)\n", *eventsOut, journal.Len())
		}
	}
	if stopServe != nil {
		// Keep the endpoints scrapeable after the run; the registry and
		// trace are complete now, so a scrape sees the whole story.
		fmt.Fprintln(stderr, "ftpde: run complete; serving telemetry until interrupted (Ctrl-C)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		stopServe() //nolint:errcheck // shutting down anyway
	}
	return 0
}

func printResult(w io.Writer, res *core.Result) {
	fmt.Fprintf(w, "technique            %s on %s\n", res.Technique, res.Machine)
	fmt.Fprintf(w, "processes            %d across %d sub-grids (%d re-spawned)\n",
		res.Procs, res.GridCount, res.Spawned)
	if res.Mode != "spawn" {
		fmt.Fprintf(w, "recovery mode        %s (final communicator %d", res.Mode, res.FinalProcs)
		if res.SparesUsed > 0 {
			fmt.Fprintf(w, ", %d spares claimed", res.SparesUsed)
		}
		if res.RepairFallbacks > 0 {
			fmt.Fprintf(w, ", %d rounds fell back to shrink", res.RepairFallbacks)
		}
		fmt.Fprintln(w, ")")
		if len(res.AbandonedGrids) > 0 {
			fmt.Fprintf(w, "abandoned sub-grids  %v\n", res.AbandonedGrids)
		}
	}
	fmt.Fprintf(w, "steps                %d\n", res.Steps)
	fmt.Fprintf(w, "total virtual time   %.2f s\n", res.TotalTime)
	if len(res.FailedRanks) > 0 {
		fmt.Fprintf(w, "failed ranks         %v\n", res.FailedRanks)
		fmt.Fprintf(w, "failure info time    %.3f s\n", res.ListTime)
		fmt.Fprintf(w, "reconstruction time  %.2f s (shrink %.2f, spawn %.2f, merge %.2f, agree %.2f, split %.2f)\n",
			res.ReconstructTime, res.ShrinkTime, res.SpawnTime, res.MergeTime, res.AgreeTime, res.SplitTime)
	}
	if len(res.LostGrids) > 0 {
		fmt.Fprintf(w, "lost sub-grids       %v\n", res.LostGrids)
		fmt.Fprintf(w, "data recovery time   %.3f s\n", res.DataRecoveryTime)
	}
	if res.Technique == core.CheckpointRestart {
		fmt.Fprintf(w, "checkpoints          %d written, every %d steps\n",
			res.CheckpointWrites, res.CheckpointPlan.IntervalSteps)
	}
	fmt.Fprintf(w, "combined l1 error    %.4e\n", res.L1Error)
}

// writeFileWith streams fn's output into path.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseTechnique(s string) (core.Technique, error) {
	switch strings.ToUpper(s) {
	case "CR":
		return core.CheckpointRestart, nil
	case "RC":
		return core.ResamplingCopying, nil
	case "AC":
		return core.AlternateCombination, nil
	default:
		return 0, fmt.Errorf("unknown technique %q (want CR, RC or AC)", s)
	}
}

func parseMachine(s string) (*vtime.Machine, error) {
	switch strings.ToLower(s) {
	case "opl":
		return vtime.OPL(), nil
	case "raijin":
		return vtime.Raijin(), nil
	case "generic":
		return vtime.Generic(), nil
	default:
		return nil, fmt.Errorf("unknown machine %q (want opl, raijin or generic)", s)
	}
}
