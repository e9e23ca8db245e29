package mpi

import (
	"fmt"
)

// rvzMode selects how a rendezvous-style collective treats member failure.
type rvzMode int

const (
	// failOnDeath aborts the operation with MPI_ERR_PROC_FAILED for every
	// participant if any member of the communicator is (or becomes) dead.
	// This is the behaviour of ordinary communicator-management collectives
	// such as MPI_Comm_split.
	failOnDeath rvzMode = iota
	// reportDeath completes among the survivors but returns
	// MPI_ERR_PROC_FAILED alongside the result, like OMPI_Comm_agree in the
	// presence of unacknowledged failures.
	reportDeath
	// ignoreDeath completes among the survivors and returns success: the
	// contract of OMPI_Comm_shrink.
	ignoreDeath
)

// rvzKey identifies one instance of a rendezvous collective: communicator,
// operation kind, and the per-kind sequence number (kept in lockstep by each
// member's handle).
type rvzKey struct {
	comm int
	op   string
	seq  int
}

// rendezvous is the shared state of one in-progress collective that needs a
// single, globally consistent result (split groups, shrunken communicator,
// agreement value, spawn). Guarded by World.state — these are cold
// control-plane operations, so they stay off the per-process fast path.
type rendezvous struct {
	key     rvzKey
	members []int // expected world ranks (both sides for an intercomm)
	arrived map[int]float64
	inputs  map[int]any
	done    bool
	result  any
	err     error
	t       float64
	cost    float64 // modelled cost of the operation, for attribution

	// missing (alive members not yet arrived) and anyDead cache the
	// member walk of aliveArrived as of World.deaths == deathsSeen. A member
	// only ever turns from alive to dead (spawns and spare claims set alive
	// on new world ranks, never on an existing member), so a death is the
	// only event that can make the cache stale; arrivals keep it current.
	missing    int
	anyDead    bool
	deathsSeen uint64
}

// rendezvousLocked returns the rendezvous instance for key, creating it
// over the given members on first arrival. The pointer stays valid for the
// life of the World — entries are never deleted. Caller holds World.state
// (write).
func (w *World) rendezvousLocked(key rvzKey, members []int) *rendezvous {
	if w.rvzTable == nil {
		w.rvzTable = make(map[rvzKey]*rendezvous)
	}
	r, ok := w.rvzTable[key]
	if !ok {
		r = &rendezvous{
			key:     key,
			members: append([]int(nil), members...),
			arrived: make(map[int]float64),
			inputs:  make(map[int]any),
		}
		r.recount(w)
		w.rvzTable[key] = r
	}
	return r
}

// arriveLocked registers world rank wr's arrival at virtual time t with
// its input. It reports false, registering nothing, if wr has already
// arrived. The cached missing count drops only for an alive member, the
// only kind recount counts: a dead process can still be running and
// arrive — the watchdog's abortJob fails every rank while its goroutine
// goes on into recovery. A stale count is rebuilt before it is read.
// Caller holds World.state (write).
func (r *rendezvous) arriveLocked(w *World, wr int, t float64, input any) bool {
	if _, dup := r.arrived[wr]; dup {
		return false
	}
	r.arrived[wr] = t
	r.inputs[wr] = input
	if w.alive(wr) {
		r.missing--
	}
	return true
}

// recount rebuilds the cached member walk and stamps it with the current
// death count. Caller holds World.state.
func (r *rendezvous) recount(w *World) {
	r.missing, r.anyDead = 0, false
	for _, wr := range r.members {
		if !w.alive(wr) {
			r.anyDead = true
			continue
		}
		if _, ok := r.arrived[wr]; !ok {
			r.missing++
		}
	}
	r.deathsSeen = w.deaths
}

// maxArrival returns the latest arrival time among arrived-and-alive
// members, folding the max inline (same zero identity as vtime.Max, with
// no scratch slice per call). Caller holds World.state.
func (r *rendezvous) maxArrival(w *World) float64 {
	var m float64
	for wr, t := range r.arrived {
		if w.alive(wr) && t > m {
			m = t
		}
	}
	return m
}

// aliveArrived reports whether every currently-alive expected member has
// arrived, and whether any expected member is dead. The member walk runs
// only when a process has died or exited since the last one, so a wake
// costs O(1) rather than O(members). Caller holds World.state (write).
func (r *rendezvous) aliveArrived(w *World) (complete, anyDead bool) {
	if r.deathsSeen != w.deaths {
		r.recount(w)
	}
	return r.missing == 0, r.anyDead
}

// buildFunc computes the single shared result of a rendezvous once all alive
// members have arrived. It runs under World.state (it must not block) and
// returns the result plus the modelled cost of the operation in seconds.
type buildFunc func(w *World, r *rendezvous) (any, float64)

// resolveLocked evaluates the rendezvous once and reports whether it is
// resolved. The caller that observes the group complete builds the shared
// result (or the deterministic abort) and wakes every member. Caller holds
// World.state (write).
func (r *rendezvous) resolveLocked(w *World, mode rvzMode, build buildFunc) bool {
	if r.done {
		return true
	}
	complete, anyDead := r.aliveArrived(w)
	switch {
	case complete && anyDead && mode == failOnDeath:
		// Abort only once every alive member has arrived, exactly like
		// the completion path. Aborting on the first observation of a
		// death would stamp r.t with the max over whichever members
		// happened to have arrived in real time — a timestamp (and thus
		// per-rank clocks) dependent on goroutine scheduling. Waiting
		// makes the abort time a pure function of program order, which
		// the seed-replay determinism contract requires; every alive
		// member provably arrives, since the callers of failOnDeath
		// collectives pair them with reportDeath operations over the
		// same member sets, which have always had wait-for-all-alive
		// semantics.
		r.err = failedErr(-1, -1)
		r.t = r.maxArrival(w)
		r.done = true
	case complete:
		result, cost := build(w, r)
		r.result = result
		r.cost = cost
		r.t = r.maxArrival(w) + cost
		if anyDead && mode == reportDeath {
			r.err = failedErr(-1, -1)
		}
		r.done = true
	default:
		return false
	}
	w.wakeRanks(r.members)
	return true
}

// runRendezvous executes one instance of a rendezvous collective for the
// calling process: register input, wait for the group, have exactly one
// participant build the shared result, and synchronise virtual clocks to
// completion time (max of alive arrivals plus the modelled cost).
//
// allowRevoked must be true for the ULFM calls that operate on revoked
// communicators (shrink, agree).
func runRendezvous(c *Comm, op string, mode rvzMode, allowRevoked bool, input any, build buildFunc) (any, error) {
	st := c.p.st
	w := st.w
	st.hookOp(op)
	t0 := st.clock.Now()
	key := rvzKey{comm: c.sh.id, op: op, seq: c.nextSeq(op)}

	// Like point-to-point operations, a rendezvous collective fails on
	// revocation only once the caller itself has observed it; the
	// shrink/agree family sets allowRevoked and proceeds regardless.
	if c.sawRevoked && !allowRevoked {
		return nil, ErrRevoked
	}
	w.state.Lock()
	r := w.rendezvousLocked(key, c.allMembers())
	if !r.arriveLocked(w, st.wrank, st.clock.Now(), input) {
		w.state.Unlock()
		panic(fmt.Sprintf("mpi: process %d entered %s twice (seq %d)", st.wrank, op, key.seq))
	}
	w.state.Unlock()

	for {
		// Epoch-gated park, exactly like recvRaw: resolution wakes the
		// group (resolveLocked's wakeRanks, or markFailed's wakeAll on a
		// death), bumping the epoch, so a wake landing between the read
		// and the park is never lost.
		e := st.epochNow()
		w.state.Lock()
		done := r.resolveLocked(w, mode, build)
		w.state.Unlock()
		if done {
			break
		}
		st.mu.Lock()
		if st.epoch == e {
			st.cond.Wait()
		}
		st.mu.Unlock()
	}

	// The result fields were written once, under the same state lock that
	// published done, so they are read here without it.
	result, err, t, cost := r.result, r.err, r.t, r.cost
	st.clock.SyncTo(t)
	// Attribute the op's modelled cost once per participating member and
	// record its completion latency on this member's clock. cost > 0 also
	// covers Agree's reportDeath contract (the op completed among
	// survivors, err notwithstanding); the failOnDeath abort path carries
	// zero cost and is not a completion.
	if wm := w.wm; wm != nil && (err == nil || cost > 0) {
		wm.ObserveCost(componentForRendezvousOp(op), cost)
		wm.observeOp(op, st.clock.Now()-t0)
	}
	return result, err
}
