// Package mpi is a from-scratch, in-process message-passing runtime with the
// semantics the paper's fault-tolerant PDE solver needs from Open MPI plus
// the draft ULFM (User Level Failure Mitigation) extensions: communicators
// and groups, point-to-point messaging with tags and wildcards, collectives
// with non-uniform failure reporting, dynamic process management
// (MPI_Comm_spawn_multiple, intercommunicators, MPI_Intercomm_merge), and
// the ULFM calls OMPI_Comm_revoke, OMPI_Comm_shrink, OMPI_Comm_agree,
// OMPI_Comm_failure_ack and OMPI_Comm_failure_get_acked.
//
// Each simulated MPI process is a goroutine with a private virtual clock
// (see internal/vtime). Process failure is fail-stop: the victim aborts via
// Proc.Kill (the analogue of the paper's kill(getpid(), SIGKILL)); the
// runtime marks it failed and wakes every blocked peer so pending and future
// operations observe MPI_ERR_PROC_FAILED, exactly as a ULFM MPI reports a
// dead partner.
//
// # Lock hierarchy
//
// The transport is sharded so the failure-free fast path never serialises
// on job-wide state (see DESIGN.md, "Transport"):
//
//   - World.state, a seldom-written RWMutex, guards membership, failure,
//     revocation/abort records, rendezvous tables and communicator-id
//     allocation. Read-locked briefly on failure checks; write-locked only
//     by cold control-plane events (death, revoke, collective abort,
//     rendezvous, spawn).
//   - procState.mu, one per process, guards that process's mailbox, posted
//     receives, wakeup epoch and blocked-receive descriptor. A send takes
//     only the destination's mu; a receive only the caller's own.
//   - World.procs is an atomic copy-on-write snapshot, read lock-free;
//     procState.alive is atomic; procState.clock and slab are owner-only.
//
// Ordering: World.state is always acquired before any procState.mu; when
// several procState.mu are held together (only the revoked-deadlock
// detector does this) they are taken in ascending world rank; no code path
// acquires World.state while holding a procState.mu.
//
// Blocking uses an epoch protocol instead of a global broadcast: every
// event that could unblock a process (message delivery, death, revoke,
// abort, rendezvous resolution) increments the target's epoch under its mu
// and signals its condvar. A parker re-checks its wake conditions, then
// parks only if the epoch is unchanged since before the checks — so a wake
// that races with the checks is never lost.
//
// Every wake site funnels through procState.notifyLocked, which bumps the
// epoch and signals the owning goroutine's condvar.
package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ftsg/internal/metrics"
	"ftsg/internal/topo"
	"ftsg/internal/vtime"
)

// killSignal is the panic payload used by Proc.Kill to emulate SIGKILL.
type killSignal struct{}

// procState is the runtime's view of one simulated process. wrank and host
// are immutable; alive is atomic; clock and sl are touched only by the
// owning goroutine (peers read the clock only at rendezvous points where
// the owner is provably blocked); everything from mu down is guarded by mu.
type procState struct {
	w      *World
	wrank  int // world-unique process id (never reused)
	host   int // index into the cluster's host list
	rack   int // rack of that host (immutable, like host)
	alive  atomic.Bool
	clock  vtime.Clock
	sl     slab   // eager-copy arena; owner-only (senders copy into their own)
	opHook OpHook // operation observer; owner-only (see ophook.go)
	curOp  string // collective in progress; owner-only (hop attribution)

	mu     sync.Mutex
	cond   sync.Cond // on mu; the owning goroutine is the only waiter
	epoch  uint64    // bumped by every event that may unblock the owner
	mb     mailbox
	posted postedSet
	// waitSh/waitSrc/waitTag/waitReq describe the receive this process is
	// blocked in (waitSh nil while runnable). They feed the
	// revoked-communicator deadlock detector: when every live,
	// non-quiesced member of a revoked communicator is blocked on it with
	// no pending resolution, none of them can ever send again, so the
	// whole group resolves to MPI_ERR_REVOKED. waitReq is set instead of
	// waitSrc/waitTag when blocked in Wait on a posted receive.
	waitSh  *commShared
	waitSrc int
	waitTag int
	waitReq *Request
}

// notifyLocked is the single wake primitive behind every unblock-capable
// event: it bumps the epoch and signals the condvar. One goroutine owns each
// process, so there is at most one waiter and Signal suffices. Caller holds
// st.mu.
func (st *procState) notifyLocked() {
	st.epoch++
	st.cond.Signal()
}

// wake bumps the process's epoch and wakes it under its own lock.
func (st *procState) wake() {
	st.mu.Lock()
	st.notifyLocked()
	st.mu.Unlock()
}

// epochNow reads the process's current wakeup epoch.
func (st *procState) epochNow() uint64 {
	st.mu.Lock()
	e := st.epoch
	st.mu.Unlock()
	return e
}

// World owns all simulated processes of one MPI job, including processes
// created later by SpawnMultiple. See the package comment for the lock
// hierarchy.
type World struct {
	machine *vtime.Machine
	cluster *topo.Cluster
	entry   func(*Proc)
	wm      *worldMetrics // nil when instrumentation is disabled

	// linkAlpha/linkBeta are the machine's per-tier LogGP parameters,
	// resolved once at Run so the send hot path indexes an array instead of
	// re-applying the zero-value fallbacks per message.
	linkAlpha [vtime.NumTiers]float64
	linkBeta  [vtime.NumTiers]float64

	// flatColl forces the flat single-level collective algorithms even on
	// multi-host clusters (Options.FlatCollectives); the differential tests
	// use it as the reference implementation.
	flatColl bool

	// procs is a copy-on-write snapshot of all processes, loaded lock-free
	// by the hot paths. Entries are never removed or reordered;
	// SpawnMultiple publishes a grown copy while holding state.
	procs atomic.Pointer[[]*procState]

	// goroPeak tracks the high-water mark of runtime.NumGoroutine() over
	// the run (Report.GoroutinesPeak).
	goroPeak atomic.Int64

	state      sync.RWMutex
	nextCommID int
	rvzTable   map[rvzKey]*rendezvous
	mergeTable map[rvzKey]*mergeEntry
	failed     []int // world ranks, in failure order
	// deaths counts processes taken out of the job (failures and normal
	// exits alike); rendezvous stamp their cached member walk with it.
	deaths  uint64
	spawned int
	// spareFree holds the world ranks of parked spare processes not yet
	// claimed, in creation order; sparesUsed counts claims. Both guarded by
	// state, like spawned.
	spareFree  []int
	sparesUsed int
	maxTime    float64
	wg         sync.WaitGroup
}

// snapshot returns the current process table (lock-free).
func (w *World) snapshot() []*procState { return *w.procs.Load() }

// proc returns the procState of world rank r.
func (w *World) proc(r int) *procState { return w.snapshot()[r] }

// alive reports whether world rank r is currently alive (lock-free).
func (w *World) alive(r int) bool {
	ps := w.snapshot()
	return r >= 0 && r < len(ps) && ps[r].alive.Load()
}

// failedOf returns the failed members of the given world-rank list, in list
// order.
func (w *World) failedOf(ranks []int) []int {
	var out []int
	for _, r := range ranks {
		if !w.alive(r) {
			out = append(out, r)
		}
	}
	return out
}

// wakeAll wakes every process (job-wide events: death, exit).
func (w *World) wakeAll() {
	for _, q := range w.snapshot() {
		q.wake()
	}
}

// wakeRanks wakes the given world ranks.
func (w *World) wakeRanks(ranks []int) {
	ps := w.snapshot()
	for _, r := range ranks {
		if r >= 0 && r < len(ps) {
			ps[r].wake()
		}
	}
}

// Options configures a World run.
type Options struct {
	// NProcs is the initial number of processes (the size of the initial
	// MPI_COMM_WORLD).
	NProcs int
	// Machine supplies the virtual-time cost model; nil means vtime.Generic.
	Machine *vtime.Machine
	// Cluster is the physical layout; nil means the smallest uniform
	// cluster that fits NProcs at Machine.SlotsPerHost.
	Cluster *topo.Cluster
	// Entry is the program run by every process, including re-spawned
	// ones (which see a non-nil Proc.Parent, like a process started by
	// MPI_Comm_spawn_multiple). Required.
	Entry func(*Proc)
	// Metrics, when non-nil, attaches instrumentation: message/byte
	// counters, per-rank totals, per-op virtual-latency histograms and
	// cost attribution per model component (see internal/mpi/metrics.go
	// for the instrument names). nil disables instrumentation at zero
	// cost to the hot paths.
	Metrics *metrics.Registry
	// Watchdog, when its Timeout is non-zero, monitors the run for stalls
	// and dumps per-rank blocked-op/mailbox state when no transport progress
	// happens for a full timeout interval (see watchdog.go). The zero value
	// disables it.
	Watchdog Watchdog
	// Introspect, when non-nil, registers the World for the duration of the
	// run so external observers (the telemetry server's /debug/ranks) can
	// take on-demand blocked-op snapshots. See introspect.go.
	Introspect *Introspection
	// FlatCollectives disables the topology-aware hierarchical collective
	// algorithms, running every collective as a flat single-level algorithm
	// over the whole communicator (the pre-hierarchy behaviour). The
	// differential tests use it as the reference implementation.
	FlatCollectives bool
	// SpareRanks pre-allocates that many extra processes parked at startup:
	// they are not members of MPI_COMM_WORLD and run no code until a
	// Comm.ClaimSpares wakes them as replacements (the substitute recovery
	// mode).
	SpareRanks int
	// SpareHosts names the hosts the spare processes are placed on, cycled
	// when shorter than SpareRanks; empty places every spare on host 0.
	SpareHosts []string
}

// Report summarises a completed run.
type Report struct {
	// MaxVirtualTime is the latest virtual clock over all processes,
	// including failed ones at their time of death.
	MaxVirtualTime float64
	// Failed lists world ranks that died, in failure order.
	Failed []int
	// Spawned counts processes created by SpawnMultiple.
	Spawned int
	// SparesUsed counts pre-allocated spare processes consumed by
	// ClaimSpares (the substitute recovery mode).
	SparesUsed int
	// GoroutinesPeak is the high-water mark of runtime.NumGoroutine()
	// sampled over the run: O(ranks), one goroutine per process.
	// Wall-clock-dependent; excluded from every determinism fingerprint.
	GoroutinesPeak int
}

// Run executes Entry on NProcs simulated processes, one goroutine each, and
// blocks until every process (including spawned replacements) has returned
// or died.
func Run(o Options) (*Report, error) {
	if o.NProcs <= 0 {
		return nil, fmt.Errorf("mpi: NProcs must be positive, got %d", o.NProcs)
	}
	if o.Entry == nil {
		return nil, fmt.Errorf("mpi: Entry must not be nil")
	}
	m := o.Machine
	if m == nil {
		m = vtime.Generic()
	}
	cl := o.Cluster
	if cl == nil {
		cl = topo.ForRanks(o.NProcs, m.SlotsPerHost)
	}
	if cl.Slots() < o.NProcs {
		return nil, fmt.Errorf("mpi: cluster has %d slots for %d processes", cl.Slots(), o.NProcs)
	}
	w := &World{
		machine:  m,
		cluster:  cl,
		entry:    o.Entry,
		wm:       newWorldMetrics(o.Metrics),
		flatColl: o.FlatCollectives,
	}
	for t := vtime.LinkTier(0); t < vtime.NumTiers; t++ {
		w.linkAlpha[t], w.linkBeta[t] = m.LinkAlphaBeta(t)
	}

	// Block-allocate the initial process table, Proc and Comm handles: the
	// whole setup is a handful of allocations regardless of NProcs.
	sts := make([]procState, o.NProcs)
	procs := make([]*procState, o.NProcs)
	worldRanks := make([]int, o.NProcs)
	for r := 0; r < o.NProcs; r++ {
		host, rack, err := cl.Placement(r)
		if err != nil {
			return nil, err
		}
		st := &sts[r]
		st.w, st.wrank, st.host, st.rack = w, r, host, rack
		st.alive.Store(true)
		st.cond.L = &st.mu
		if w.wm != nil {
			st.clock.SetObserver(w.wm)
		}
		procs[r] = st
		worldRanks[r] = r
	}
	if o.SpareRanks > 0 {
		// Spares are parked as data: alive, in the process table (so claimed
		// ones get ordinary world ranks below the spawn range), but members
		// of no communicator and running no code until ClaimSpares launches
		// them.
		spares := make([]procState, o.SpareRanks)
		for i := 0; i < o.SpareRanks; i++ {
			host := 0
			if len(o.SpareHosts) > 0 {
				idx, err := cl.HostIndexByName(o.SpareHosts[i%len(o.SpareHosts)])
				if err != nil {
					return nil, fmt.Errorf("mpi: spare placement: %w", err)
				}
				host = idx
			}
			st := &spares[i]
			st.w, st.wrank, st.host = w, o.NProcs+i, host
			st.rack = cl.RackOfHost(st.host)
			st.alive.Store(true)
			st.cond.L = &st.mu
			if w.wm != nil {
				st.clock.SetObserver(w.wm)
			}
			procs = append(procs, st)
			w.spareFree = append(w.spareFree, st.wrank)
		}
	}
	w.procs.Store(&procs)
	worldComm := &commShared{id: 0, a: worldRanks}
	w.nextCommID = 1

	hands := make([]Proc, o.NProcs)
	comms := make([]Comm, o.NProcs)
	for r := 0; r < o.NProcs; r++ {
		p := &hands[r]
		c := &comms[r]
		c.sh, c.rank, c.p = worldComm, r, p
		p.st, p.world = procs[r], c
	}

	if o.Introspect != nil {
		o.Introspect.attach(w)
		defer o.Introspect.detach(w)
	}
	if o.Watchdog.Timeout > 0 {
		done := make(chan struct{})
		defer close(done)
		go w.watch(o.Watchdog, done)
	}

	for r := range hands {
		w.wg.Add(1)
		go w.runProc(&hands[r])
	}
	w.noteGoroutines()
	w.wg.Wait()
	w.noteGoroutines()

	w.state.Lock()
	defer w.state.Unlock()
	return &Report{
		MaxVirtualTime: w.maxTime,
		Failed:         append([]int(nil), w.failed...),
		Spawned:        w.spawned,
		SparesUsed:     w.sparesUsed,
		GoroutinesPeak: int(w.goroPeak.Load()),
	}, nil
}

// noteGoroutines folds the current runtime.NumGoroutine() into the run's
// high-water mark. The value is wall-clock noise, so it never enters golden
// outputs or fingerprints.
func (w *World) noteGoroutines() {
	n := int64(runtime.NumGoroutine())
	for {
		cur := w.goroPeak.Load()
		if n <= cur || w.goroPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// runProc wraps a process's entry, translating Kill panics into fail-stop
// process death.
func (w *World) runProc(p *Proc) {
	defer w.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSignal); ok {
				w.markFailed(p.st)
				return
			}
			panic(r)
		}
		w.finish(p.st)
	}()
	w.entry(p)
}

// finish records a normal process exit. A process that has returned from
// its entry no longer participates in communication: pending and future
// operations addressing it observe MPI_ERR_PROC_FAILED (communicating with
// an exited process is erroneous in MPI; surfacing an error instead of
// deadlocking mirrors how a real mpirun job dies). Unlike Kill, a normal
// exit is not recorded in Report.Failed.
func (w *World) finish(st *procState) {
	w.state.Lock()
	defer w.state.Unlock()
	w.endProc(st, false)
}

// markFailed records a process death and wakes every blocked process so
// pending operations can observe the failure.
func (w *World) markFailed(st *procState) {
	w.state.Lock()
	defer w.state.Unlock()
	if !st.alive.Load() {
		return
	}
	w.endProc(st, true)
}

// endProc takes a process out of the job: liveness flips first (under
// state, so failure checks and membership scans agree), the mailbox is
// drained back to the envelope pool, and everyone is woken to re-check.
// Caller holds state (write).
func (w *World) endProc(st *procState, record bool) {
	st.alive.Store(false)
	w.deaths++
	if record {
		w.failed = append(w.failed, st.wrank)
	}
	if st.clock.Now() > w.maxTime {
		w.maxTime = st.clock.Now()
	}
	st.mu.Lock()
	st.mb.drain()
	st.mu.Unlock()
	w.wakeAll()
}

// newCommLocked allocates a communicator's shared state. Caller holds
// state (write). b == nil makes an intracommunicator; otherwise a and b
// are the two groups of an intercommunicator.
func (w *World) newCommLocked(a, b []int) *commShared {
	sh := &commShared{
		id: w.nextCommID,
		a:  append([]int(nil), a...),
	}
	if b != nil {
		sh.b = append([]int(nil), b...)
	}
	w.nextCommID++
	return sh
}
