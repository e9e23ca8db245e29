// Command experiments regenerates every table and figure of the paper's
// evaluation section from the simulated system:
//
//	experiments -experiment fig8    # failure info + reconstruction times
//	experiments -experiment table1  # beta-ULFM component times
//	experiments -experiment fig9    # data recovery overheads
//	experiments -experiment fig10   # approximation errors
//	experiments -experiment fig11   # overall performance
//	experiments -experiment all
//	experiments -experiment extensions  # level sweep, node failure, Eq. 2 study
//
// -quick shrinks the sweep for a fast smoke run; -trials / -errtrials
// control averaging (the paper uses 5 and 20). -workers bounds how many
// simulated runs execute concurrently (0 = one per CPU); the output is
// byte-identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ftsg/internal/core"
	"ftsg/internal/harness"
	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
	tele "ftsg/internal/telemetry" // the -telemetry flag shadows the package name
	"ftsg/internal/trace"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "fig8 | table1 | fig9 | fig10 | fig11 | extensions | levelsweep | nodefailure | aclayers | checkpointrule | all")
		trials     = flag.Int("trials", 5, "trials per timing configuration")
		errTrials  = flag.Int("errtrials", 20, "trials per error configuration")
		steps      = flag.Int("steps", 256, "solver timesteps per run")
		quick      = flag.Bool("quick", false, "reduced sweep for a fast smoke run")
		workers    = flag.Int("workers", 0, "concurrent simulated runs (0 = one per CPU, 1 = serial)")
		format     = flag.String("format", "table", "table | csv")
		verbose    = flag.Bool("v", false, "log progress per configuration")
		telemetry  = flag.Bool("telemetry", false, "add per-cell telemetry columns (solve/repair time, MPI messages/bytes, checkpoint I/O) to tables and CSVs")
		recModes   = flag.String("recovery-modes", "", "comma-separated recovery modes Fig. 11 sweeps (spawn | shrink | substitute | norepair), or 'all'; empty = spawn only")
		showMet    = flag.Bool("metrics", false, "print the aggregate instrumentation summary over every run of the sweep")
		metOut     = flag.String("metrics-out", "", "write the aggregate instrumentation summary to this file")
		traceOut   = flag.String("trace-out", "", "write the Chrome trace_event JSON of one representative fault-injected run (2 failures, RC, largest core count of the sweep) to this file")
		ckptBack   = flag.String("ckpt-backend", "", "checkpoint storage backend for CR runs: dir (files, default) | mem (in-memory; identical output, no filesystem traffic)")
		ckptGens   = flag.Int("ckpt-generations", 0, "checkpoint generations retained per rank in CR runs (0 = store default)")
		ckptAsync  = flag.Bool("ckpt-async", false, "write checkpoints on write-behind goroutines; output is byte-identical, only real I/O overlaps")
		hosts      = flag.Int("hosts", 0, "cluster host count for every run (0 = smallest count that fits each run's ranks)")
		slots      = flag.Int("slots", 0, "ranks per host (0 = machine profile default)")
		racks      = flag.Int("racks", 0, "rack count; hosts split into contiguous blocks charged at the inter-rack link tier (0 = one rack)")
		serve      = flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :9090) while the sweep runs: GET /metrics (aggregate registry, growing as batches complete), /debug/ranks (blocked ops of in-flight runs), /healthz")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the sweep to this file")
		blockProf  = flag.String("blockprofile", "", "write a blocking profile of the sweep to this file")
	)
	flag.Parse()

	if *mutexProf != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if *blockProf != "" {
		runtime.SetBlockProfileRate(1000) // one sample per microsecond blocked
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mutexProf != "" {
		path := *mutexProf
		defer writeProfile("mutex", path)
	}
	if *blockProf != "" {
		path := *blockProf
		defer writeProfile("block", path)
	}

	// Only explicitly-passed sizing flags reach Options, so -quick keeps
	// shrinking the defaults while `-quick -trials 7` honors the 7.
	opts := harness.Options{
		Steps:   *steps,
		Quick:   *quick,
		Workers: *workers,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trials":
			opts.Trials = *trials
		case "errtrials":
			opts.ErrTrials = *errTrials
		}
	})
	if !opts.Quick {
		opts.Trials = *trials
		opts.ErrTrials = *errTrials
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	opts.Telemetry = *telemetry
	opts.CkptBackend = *ckptBack
	opts.CkptGenerations = *ckptGens
	opts.CkptAsync = *ckptAsync
	if *hosts < 0 || *slots < 0 || *racks < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -hosts, -slots and -racks must be >= 0")
		os.Exit(2)
	}
	opts.Hosts = *hosts
	opts.SlotsPerHost = *slots
	opts.Racks = *racks
	if *recModes != "" {
		modes, err := parseRecoveryModes(*recModes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		opts.RecoveryModes = modes
	}
	var reg *metrics.Registry
	if *showMet || *metOut != "" || *serve != "" {
		reg = metrics.New()
		opts.Metrics = reg
	}
	if *serve != "" {
		intro := &mpi.Introspection{}
		opts.Introspect = intro
		srv := &tele.Server{Registry: reg, Trace: trace.New(nil), Introspect: intro}
		addr, stop, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer stop() //nolint:errcheck // process exits right after
		fmt.Fprintf(os.Stderr, "experiments: telemetry at http://%s/metrics\n", addr)
	}
	if err := run(os.Stdout, *experiment, *format, opts); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *showMet {
		fmt.Println("aggregate instrumentation summary:")
		reg.WriteSummary(os.Stdout)
	}
	if *metOut != "" {
		if err := writeFileWith(*metOut, func(w io.Writer) error {
			reg.WriteSummary(w)
			return nil
		}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeRepresentativeTrace(*traceOut, opts); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}

// writeRepresentativeTrace runs one fault-injected RC configuration at the
// sweep's largest core count and exports its recovery timeline as Chrome
// trace_event JSON — the per-rank view the aggregate tables cannot show.
// parseRecoveryModes parses the -recovery-modes list ("all" = every mode in
// presentation order).
func parseRecoveryModes(s string) ([]recovery.Mode, error) {
	if s == "all" {
		return recovery.Modes, nil
	}
	var modes []recovery.Mode
	for _, part := range strings.Split(s, ",") {
		m, err := recovery.ParseMode(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		modes = append(modes, m)
	}
	return modes, nil
}

func writeRepresentativeTrace(path string, opts harness.Options) error {
	opts = opts.WithDefaults()
	dp := opts.DiagProcsList[len(opts.DiagProcsList)-1]
	rec := trace.New(nil)
	cfg := core.Config{
		Technique:    core.ResamplingCopying,
		DiagProcs:    dp,
		Steps:        opts.Steps,
		NumFailures:  2,
		RealFailures: true,
		Seed:         41,
		Trace:        rec,
	}
	cfg.Hosts, cfg.SlotsPerHost, cfg.Racks = opts.Hosts, opts.SlotsPerHost, opts.Racks
	if _, err := core.Run(cfg); err != nil {
		return err
	}
	return writeFileWith(path, rec.ExportChromeTrace)
}

// writeProfile dumps a named runtime profile (mutex, block, heap, ...)
// collected over the whole sweep.
func writeProfile(name, path string) {
	err := writeFileWith(path, func(w io.Writer) error {
		return pprof.Lookup(name).WriteTo(w, 0)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
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

func run(w io.Writer, experiment, format string, opts harness.Options) error {
	want := func(name string) bool { return experiment == name || experiment == "all" }
	csv := format == "csv"
	if format != "table" && format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", format)
	}
	any := false
	if want("fig8") {
		any = true
		rows, err := harness.Fig8(opts)
		if err != nil {
			return err
		}
		if csv {
			if err := harness.CSVFig8(w, rows); err != nil {
				return err
			}
		} else {
			harness.RenderFig8(w, rows)
			fmt.Fprintln(w)
		}
	}
	if want("table1") {
		any = true
		rows, err := harness.Table1(opts)
		if err != nil {
			return err
		}
		if csv {
			if err := harness.CSVTable1(w, rows); err != nil {
				return err
			}
		} else {
			harness.RenderTable1(w, rows)
			fmt.Fprintln(w)
		}
	}
	if want("fig9") {
		any = true
		rows, err := harness.Fig9(opts)
		if err != nil {
			return err
		}
		if csv {
			if err := harness.CSVFig9(w, rows); err != nil {
				return err
			}
		} else {
			harness.RenderFig9(w, rows)
			fmt.Fprintln(w)
		}
	}
	if want("fig10") {
		any = true
		rows, err := harness.Fig10(opts)
		if err != nil {
			return err
		}
		if csv {
			if err := harness.CSVFig10(w, rows); err != nil {
				return err
			}
		} else {
			harness.RenderFig10(w, rows)
			fmt.Fprintln(w)
		}
	}
	if want("fig11") {
		any = true
		rows, err := harness.Fig11(opts)
		if err != nil {
			return err
		}
		if csv {
			if err := harness.CSVFig11(w, rows); err != nil {
				return err
			}
		} else {
			harness.RenderFig11(w, rows)
			fmt.Fprintln(w)
		}
	}
	if want("extensions") || experiment == "levelsweep" {
		any = true
		rows, err := harness.LevelSweep(opts)
		if err != nil {
			return err
		}
		harness.RenderLevelSweep(w, rows)
		fmt.Fprintln(w)
	}
	if want("extensions") || experiment == "nodefailure" {
		any = true
		rows, err := harness.NodeFailure(opts)
		if err != nil {
			return err
		}
		harness.RenderNodeFailure(w, rows)
		fmt.Fprintln(w)
	}
	if want("extensions") || experiment == "aclayers" {
		any = true
		rows, err := harness.ACLayers(opts)
		if err != nil {
			return err
		}
		harness.RenderACLayers(w, rows)
		fmt.Fprintln(w)
	}
	if want("extensions") || experiment == "checkpointrule" {
		any = true
		rows, err := harness.CheckpointRule(opts)
		if err != nil {
			return err
		}
		harness.RenderCheckpointRule(w, rows)
		fmt.Fprintln(w)
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}
