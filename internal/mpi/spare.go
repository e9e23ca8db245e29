package mpi

import (
	"errors"
	"fmt"
)

// This file implements spare-process claiming: the substitute recovery mode's
// replacement for dynamic spawn. Options.SpareRanks parks extra processes at
// startup (alive, placed, but members of no communicator and running no
// code); ClaimSpares wakes n of them through the ordinary rendezvous
// machinery and knits them to the callers with the same intercommunicator
// shape SpawnMultiple produces, so the downstream merge/agree/split protocol
// is identical. The modelled cost is agreement-scale, not spawn-scale — the
// processes already exist, which is the entire point of pre-allocation.

// ErrNoSpares reports that a ClaimSpares call asked for more spare processes
// than remain parked. Every member of the collective receives it, so callers
// can fall back (e.g. to shrink-only recovery) deterministically.
var ErrNoSpares = errors.New("mpi: no spare processes available")

type claimResult struct {
	inter *commShared
	err   error
}

// ClaimSpares wakes n parked spare processes (Options.SpareRanks) and
// returns an intercommunicator with the callers as the local group and the
// claimed spares as the remote group — the same shape SpawnMultiple returns,
// so the claimed processes observe a non-nil Proc.Parent and attach exactly
// like re-spawned replacements. It is collective over this
// intracommunicator. If fewer than n spares remain, every member receives
// ErrNoSpares and no spare is consumed.
func (c *Comm) ClaimSpares(n int) (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: ClaimSpares on intercommunicator: %w", ErrComm))
	}
	if n <= 0 {
		return nil, c.fire(fmt.Errorf("mpi: ClaimSpares: n = %d: %w", n, ErrComm))
	}
	res, err := runRendezvous(c, "claim", failOnDeath, false, nil,
		func(w *World, r *rendezvous) (any, float64) {
			if len(w.spareFree) < n {
				return &claimResult{err: ErrNoSpares}, 0
			}
			// Waking parked processes costs one agreement round over the
			// survivors plus the joiners — no process launch, no image
			// distribution. This is the measured substitute advantage over
			// SpawnCost.
			cost := w.machine.ULFM.AgreeCost(len(c.sh.a)+n, 0)
			start := r.maxArrival(w) + cost
			inter, err := w.claimLocked(c.sh.a, n, start)
			return &claimResult{inter: inter, err: err}, cost
		})
	if err != nil {
		return nil, c.fire(err)
	}
	cr := res.(*claimResult)
	if cr.err != nil {
		return nil, c.fire(cr.err)
	}
	return &Comm{sh: cr.inter, p: c.p, side: 0, rank: c.rank}, nil
}

// claimLocked consumes the first n parked spares and launches their
// goroutines, mirroring spawnLocked's communicator construction. Caller
// holds World.state (write) and has checked len(w.spareFree) >= n.
func (w *World) claimLocked(parentGroup []int, n int, start float64) (*commShared, error) {
	childRanks := append([]int(nil), w.spareFree[:n]...)
	w.spareFree = w.spareFree[n:]
	w.sparesUsed += n
	childWorld := w.newCommLocked(childRanks, nil)
	inter := w.newCommLocked(parentGroup, childRanks)
	inter.repairFor = n
	ps := w.snapshot()
	for i, wr := range childRanks {
		st := ps[wr]
		st.clock.Set(start)
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
