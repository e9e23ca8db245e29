package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ftsg/internal/checkpoint"
	"ftsg/internal/core"
	"ftsg/internal/grid"
	"ftsg/internal/mpi"
	"ftsg/internal/pde"
	"ftsg/internal/recovery"
)

// Span names of the benchmark's timed calls into each layer.
const (
	spanStep       = "pde.ParallelSolver.Step"
	spanHalo       = "mpi.halo" // Send up, Send down, Recv from both
	spanAllreduce  = "mpi.Allreduce"
	spanCkptWrite  = "checkpoint.Store.Write"
	spanCkptRead   = "checkpoint.Store.Read"
	spanAccumulate = "grid.AccumulateSampled"
	spanRevoke     = "mpi.Comm.Revoke"
	spanShrink     = "mpi.Comm.Shrink"
	spanSpawn      = "mpi.Comm.SpawnMultiple"
	spanMerge      = "mpi.Comm.IntercommMerge"
	spanAgree      = "mpi.Comm.Agree"
	spanSplit      = "mpi.Comm.Split"
	spanRepair     = "recovery.RepairCommPlaced"
	spanAttach     = "recovery.ChildAttach"
)

// minSamples is the fewest calls of each kind a probe times, so a p90 has
// at least ten samples beyond it.
const minSamples = 128

const (
	tagProbeUp   = 901
	tagProbeDown = 902
)

// stallWatchdog fails a probe whose ranks stop making progress (a rank
// that returned early with an error leaves its peers blocked), so the run
// ends with an error instead of hanging.
var stallWatchdog = mpi.Watchdog{
	Timeout: 30 * time.Second,
	OnStall: func(dump string) { fmt.Fprintf(os.Stderr, "perfbench: probe stalled\n%s\n", dump) },
}

// errSet keeps the first error reported by any simulated rank.
type errSet struct {
	mu  sync.Mutex
	err error
}

func (e *errSet) add(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// probeLayers times the solver step, a halo exchange, an allreduce and a
// checkpoint write/read on one diagonal sub-grid of cfg with its process
// count, then every sub-grid's contribution to the combined grid.
func probeLayers(sp *spans, cfg core.Config) error {
	root := sp.record("probe.layers", 0, time.Now(), time.Now(), 0)
	defer func() { sp.finish(root, time.Now()) }()
	g0 := cfg.Grids()[0]
	prob, dt := cfg.Problem()
	iters := max(8, (minSamples+g0.Procs-1)/g0.Procs)

	dir, err := os.MkdirTemp("", "perfbench-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := checkpoint.NewStore(dir) // the program's default dir backend
	if err != nil {
		return err
	}
	defer store.Close()

	var errs errSet
	_, err = mpi.Run(mpi.Options{NProcs: g0.Procs, Machine: cfg.Machine, Watchdog: stallWatchdog, Entry: func(p *mpi.Proc) {
		errs.add(probeRank(sp, root, p, store, g0, prob, dt, iters))
	}})
	if err = errors.Join(err, errs.err); err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}

	target := grid.New(grid.Level{I: cfg.Layout.N, J: cfg.Layout.N})
	var srcs []*grid.Grid
	for _, g := range cfg.Grids() {
		if g.Role == core.RoleDuplicate {
			continue
		}
		src := grid.New(g.Lv)
		src.Fill(prob.U0)
		srcs = append(srcs, src)
	}
	for n := 0; n < minSamples; {
		for _, src := range srcs {
			t := time.Now()
			target.AccumulateSampled(src, 1)
			sp.record(spanAccumulate, root, t, time.Now(), 0)
			n++
		}
	}
	return nil
}

func probeRank(sp *spans, root int, p *mpi.Proc, store *checkpoint.Store, g0 core.SubGrid, prob *pde.Problem, dt float64, iters int) error {
	c := p.World()
	s, err := pde.NewParallelSolver(c, prob, g0.Lv, dt)
	if err != nil {
		return err
	}
	r0, r1 := s.OwnedRows()
	nx := 1 << g0.Lv.I
	cells := (r1 - r0) * nx
	for i := 0; i < iters; i++ {
		t := time.Now()
		if err := s.Step(); err != nil {
			return err
		}
		sp.record(spanStep, root, t, time.Now(), cells)
	}

	n, me := c.Size(), c.Rank()
	up, down := (me+1)%n, (me-1+n)%n
	row := make([]float64, nx)
	for i := 0; i < iters; i++ {
		t := time.Now()
		if err := mpi.Send(c, up, tagProbeUp, row); err != nil {
			return err
		}
		if err := mpi.Send(c, down, tagProbeDown, row); err != nil {
			return err
		}
		for _, src := range [2][2]int{{down, tagProbeUp}, {up, tagProbeDown}} {
			buf, _, err := mpi.Recv[float64](c, src[0], src[1])
			if err != nil {
				return err
			}
			mpi.ReleaseBuf(buf)
		}
		sp.record(spanHalo, root, t, time.Now(), 0)
	}

	for i := 0; i < iters; i++ {
		t := time.Now()
		if _, err := mpi.Allreduce(c, []float64{float64(me)}, mpi.Sum[float64]); err != nil {
			return err
		}
		sp.record(spanAllreduce, root, t, time.Now(), 0)
	}

	for i := 0; i < iters; i++ {
		t := time.Now()
		if err := store.Write(p, g0.ID, me, i, s.State()); err != nil {
			return err
		}
		sp.record(spanCkptWrite, root, t, time.Now(), 0)
		t = time.Now()
		if _, _, err := store.Read(p, g0.ID, me); err != nil {
			return err
		}
		sp.record(spanCkptRead, root, t, time.Now(), 0)
	}
	return nil
}

// probeULFM runs the benchmark's own kill-then-repair program at cfg's
// world size. Round 1 kills two ranks and walks the repair dance call by
// call, timing each ULFM call (Table I in wall time); round 2 kills two
// more and times recovery.RepairCommPlaced and recovery.ChildAttach whole.
// Victims are drawn from seed; rank 0 is never one.
func probeULFM(sp *spans, cfg core.Config, seed int64) error {
	n := cfg.NumProcs()
	rng := rand.New(rand.NewSource(seed))
	victims := [2]map[int]bool{{}, {}}
	for _, v := range victims {
		for len(v) < 2 {
			v[1+rng.Intn(n-1)] = true
		}
	}
	root := sp.record("probe.ulfm", 0, time.Now(), time.Now(), 0)
	defer func() { sp.finish(root, time.Now()) }()
	var (
		errs  errSet
		round atomic.Int32
	)
	round.Store(1)

	// round2 runs on every member of the round-1 communicator.
	round2 := func(p *mpi.Proc, comm *mpi.Comm) error {
		round.Store(2)
		if victims[1][comm.Rank()] {
			p.Kill()
		}
		comm.SetErrhandler(recovery.ErrorHandler(p))
		barrierErr := comm.Barrier()
		if _, agreeErr := comm.Agree(1); agreeErr == nil && barrierErr == nil {
			return fmt.Errorf("round 2: no failure detected")
		}
		var st recovery.Stats
		t := time.Now()
		repaired, err := recovery.RepairCommPlaced(p, comm, &st, recovery.SameHostPlacement)
		sp.record(spanRepair, root, t, time.Now(), 0)
		if err != nil {
			return err
		}
		return repaired.Barrier()
	}

	entry := func(p *mpi.Proc) {
		if parent := p.Parent(); parent != nil {
			r := round.Load()
			var st recovery.Stats
			t := time.Now()
			comm, _, err := recovery.ChildAttach(p, parent, &st)
			if r == 2 {
				sp.record(spanAttach, root, t, time.Now(), 0)
			}
			if err == nil {
				if r == 1 {
					err = round2(p, comm)
				} else {
					err = comm.Barrier()
				}
			}
			errs.add(err)
			return
		}
		c := p.World()
		if victims[0][c.Rank()] {
			p.Kill()
		}
		comm, err := repairByCalls(sp, root, p, c)
		if err == nil {
			err = round2(p, comm)
		}
		errs.add(err)
	}
	rep, err := mpi.Run(mpi.Options{NProcs: n, Machine: cfg.Machine, Watchdog: stallWatchdog, Entry: entry})
	if err = errors.Join(err, errs.err); err != nil {
		return fmt.Errorf("ULFM probe: %w", err)
	}
	if rep.Spawned != 4 || len(rep.Failed) != 4 {
		return fmt.Errorf("ULFM probe: %d failed, %d spawned; want 4 and 4", len(rep.Failed), rep.Spawned)
	}
	return nil
}

// repairByCalls is recovery.RepairCommPlaced's parent side spelled out so
// each ULFM call gets its own span.
func repairByCalls(sp *spans, root int, p *mpi.Proc, c *mpi.Comm) (*mpi.Comm, error) {
	c.SetErrhandler(recovery.ErrorHandler(p))
	barrierErr := c.Barrier()
	if _, agreeErr := c.Agree(1); agreeErr == nil && barrierErr == nil {
		return nil, fmt.Errorf("round 1: no failure detected")
	}
	timed := func(name string, f func() error) error {
		t := time.Now()
		err := f()
		sp.record(name, root, t, time.Now(), 0)
		return err
	}
	var (
		shrunk, inter, merged, repaired *mpi.Comm
		err                             error
	)
	_ = timed(spanRevoke, c.Revoke) // its error is ignored, as in RepairCommPlaced
	if err = timed(spanShrink, func() (e error) { shrunk, e = c.Shrink(); return }); err != nil {
		return nil, err
	}
	failed := recovery.FailedProcsList(c, shrunk)
	hosts, err := recovery.SameHostPlacement(p, failed)
	if err != nil {
		return nil, err
	}
	if err = timed(spanSpawn, func() (e error) { inter, e = shrunk.SpawnMultiple(len(failed), hosts, 0); return }); err != nil {
		return nil, err
	}
	if err = timed(spanMerge, func() (e error) { merged, e = inter.IntercommMerge(false); return }); err != nil {
		return nil, err
	}
	if err = timed(spanAgree, func() (e error) { _, e = inter.Agree(1); return }); err != nil {
		return nil, err
	}
	if merged.Rank() == 0 {
		for i, fr := range failed {
			if err := mpi.SendOne(merged, shrunk.Size()+i, recovery.MergeTag, fr); err != nil {
				return nil, err
			}
		}
	}
	key := recovery.SelectRankKey(merged.Rank(), shrunk.Size(), failed, merged.Size())
	err = timed(spanSplit, func() (e error) { repaired, e = merged.Split(0, key); return })
	return repaired, err
}
