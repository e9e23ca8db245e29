package mpi

import (
	"fmt"

	"ftsg/internal/vtime"
)

// This file implements MPI dynamic process management: SpawnMultiple
// (MPI_Comm_spawn_multiple) and IntercommMerge (MPI_Intercomm_merge), the
// two calls the paper's repair procedure uses to re-create failed processes
// on their original hosts and knit them back into a full-size communicator
// (Fig. 5 lines 13-14, Fig. 3 line 22).

type spawnInput struct {
	hosts []string
}

type spawnResult struct {
	inter *commShared
	err   error
}

// SpawnMultiple starts n new processes running the world's entry function,
// placing process i on the host named hosts[i] (the MPI_Info "host" key of
// MPI_Comm_spawn_multiple). It is collective over this intracommunicator;
// hosts is significant only at root. The returned intercommunicator has the
// callers as the local group and the children as the remote group; children
// observe the mirror image via Proc.Parent. The children's virtual clocks
// start at the spawn completion time given by the beta-ULFM cost model.
func (c *Comm) SpawnMultiple(n int, hosts []string, root int) (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: SpawnMultiple on intercommunicator: %w", ErrComm))
	}
	if n <= 0 {
		return nil, c.fire(fmt.Errorf("mpi: SpawnMultiple: n = %d: %w", n, ErrComm))
	}
	var in spawnInput
	if c.rank == root {
		in.hosts = append([]string(nil), hosts...)
	}
	// Spawn completes at the last arrival plus the beta-ULFM spawn cost,
	// with the children created by spawnLocked under World.state.
	res, err := runRendezvous(c, "spawn", failOnDeath, false, in,
		func(w *World, r *rendezvous) (any, float64) {
			rootWorld := c.sh.a[root]
			rootIn, ok := r.inputs[rootWorld].(spawnInput)
			if !ok {
				return &spawnResult{err: fmt.Errorf("mpi: SpawnMultiple: missing root input: %w", ErrComm)}, 0
			}
			cost := w.machine.ULFM.SpawnCost(len(c.sh.a)+n, n)
			start := r.maxArrival(w) + cost
			inter, err := w.spawnLocked(c.sh.a, n, rootIn.hosts, start)
			return &spawnResult{inter: inter, err: err}, cost
		})
	if err != nil {
		return nil, c.fire(err)
	}
	sr := res.(*spawnResult)
	if sr.err != nil {
		return nil, c.fire(sr.err)
	}
	return &Comm{sh: sr.inter, p: c.p, side: 0, rank: c.rank}, nil
}

// spawnLocked creates n processes and launches their goroutines. Caller
// holds World.state (write); the grown process table is published as a new
// copy-on-write snapshot before any child can run. Each child starts with
// its clock at start seconds.
func (w *World) spawnLocked(parentGroup []int, n int, hosts []string, start float64) (*commShared, error) {
	placements := make([]int, n)
	for i := 0; i < n; i++ {
		if i < len(hosts) && hosts[i] != "" {
			idx, err := w.cluster.HostIndexByName(hosts[i])
			if err != nil {
				return nil, fmt.Errorf("mpi: SpawnMultiple: %w", err)
			}
			placements[i] = idx
		} else {
			// No placement constraint: let the scheduler pick host 0, as
			// mpirun would with an unconstrained spawn.
			placements[i] = 0
		}
	}
	old := w.snapshot()
	procs := make([]*procState, len(old), len(old)+n)
	copy(procs, old)
	childRanks := make([]int, n)
	children := make([]*procState, n)
	block := make([]procState, n)
	for i := 0; i < n; i++ {
		st := &block[i]
		st.w, st.wrank, st.host = w, len(procs), placements[i]
		st.rack = w.cluster.RackOfHost(st.host)
		st.alive.Store(true)
		st.cond.L = &st.mu
		st.clock.Set(start)
		if w.wm != nil {
			st.clock.SetObserver(w.wm)
		}
		procs = append(procs, st)
		childRanks[i] = st.wrank
		children[i] = st
	}
	w.procs.Store(&procs)
	w.spawned += n
	w.wm.countSpawned(n)
	childWorld := w.newCommLocked(childRanks, nil)
	inter := w.newCommLocked(parentGroup, childRanks)
	inter.repairFor = n
	for i, st := range children {
		p := &Proc{
			st:     st,
			world:  &Comm{sh: childWorld, rank: i},
			parent: &Comm{sh: inter, side: 1, rank: i},
		}
		p.world.p = p
		p.parent.p = p
		w.wg.Add(1)
		go w.runProc(p)
	}
	return inter, nil
}

// mergeEntry is the lazily interned result of one IntercommMerge instance.
type mergeEntry struct {
	sh *commShared
	// highOfSide records, per intercommunicator side, the high flag seen so
	// far (nil = no member of that side has arrived yet). Valid usage has
	// the two sides pass opposite flags.
	highOfSide [2]*bool
}

// IntercommMerge merges the two groups of an intercommunicator into one
// intracommunicator (MPI_Intercomm_merge). The group whose members pass
// high=true is ordered after the other group — the paper's parent side
// passes false and the freshly spawned children pass true, so replacements
// receive the highest ranks before being re-ordered by Split.
//
// As in Open MPI, the merge completes from locally known group information
// and does not synchronise the two sides: the paper's protocol depends on
// this, since its parent side calls merge before agree while its child side
// calls agree before merge (Fig. 5 line 14 vs. Fig. 3 lines 21-22). The
// first caller of a given merge instance interns the merged communicator;
// later callers attach to it and their flags are checked for consistency.
func (c *Comm) IntercommMerge(high bool) (*Comm, error) {
	if !c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: IntercommMerge on intracommunicator: %w", ErrComm))
	}
	st := c.p.st
	w := st.w
	st.hookOp(OpMerge)
	t0 := st.clock.Now()
	key := rvzKey{comm: c.sh.id, op: "merge", seq: c.nextSeq("merge")}

	w.state.Lock()
	if w.mergeTable == nil {
		w.mergeTable = make(map[rvzKey]*mergeEntry)
	}
	e, ok := w.mergeTable[key]
	if !ok {
		// Absolute ordering: side 0's group goes first unless side 0 passed
		// high (equivalently, unless this side-1 caller passed low).
		aFirst := (c.side == 0) != high
		low, highG := c.sh.a, c.sh.b
		if !aFirst {
			low, highG = c.sh.b, c.sh.a
		}
		merged := make([]int, 0, len(low)+len(highG))
		merged = append(merged, low...)
		merged = append(merged, highG...)
		e = &mergeEntry{sh: w.newCommLocked(merged, nil)}
		w.mergeTable[key] = e
	}
	var err error
	if prev := e.highOfSide[c.side]; prev != nil && *prev != high {
		err = fmt.Errorf("mpi: IntercommMerge: inconsistent high flags within a group: %w", ErrComm)
	}
	if other := e.highOfSide[1-c.side]; err == nil && other != nil && *other == high {
		err = fmt.Errorf("mpi: IntercommMerge: both groups passed high=%v: %w", high, ErrComm)
	}
	h := high
	e.highOfSide[c.side] = &h
	sh := e.sh
	st.clock.AdvanceAttr(w.machine.ULFM.MergeCost(len(c.sh.a)+len(c.sh.b)), vtime.CompMerge)
	w.state.Unlock()

	if err != nil {
		return nil, c.fire(err)
	}
	opEnd(c, "merge", t0)
	rank := Group(sh.a).Rank(st.wrank)
	return &Comm{sh: sh, p: c.p, rank: rank}, nil
}
