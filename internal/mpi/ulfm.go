package mpi

import (
	"fmt"

	"ftsg/internal/vtime"
)

// This file implements the ULFM (User Level Failure Mitigation) extensions
// the paper's recovery protocol uses: OMPI_Comm_revoke, OMPI_Comm_shrink,
// OMPI_Comm_agree, OMPI_Comm_failure_ack and OMPI_Comm_failure_get_acked.
// Their costs follow the calibrated beta-ULFM model (vtime.ULFMModel),
// reproducing the Table I pathologies for multiple failures.

// Revoke marks the communicator revoked (OMPI_Comm_revoke). Revocation is
// not collective: any member may call it, and every pending or future
// operation on the communicator — except Shrink, Agree, FailureAck and
// FailureGetAcked — completes with MPI_ERR_REVOKED at every member.
func (c *Comm) Revoke() error {
	st := c.p.st
	w := st.w
	c.sawRevoked = true
	w.state.Lock()
	c.sh.revoked.Store(true)
	if c.sh.quiesced == nil {
		c.sh.quiesced = make(map[int]bool)
	}
	c.sh.quiesced[st.wrank] = true
	st.clock.AdvanceAttr(w.machine.ULFM.RevokeCost, vtime.CompRevoke)
	w.wm.countRevoke()
	w.wakeRanks(c.allMembers())
	w.state.Unlock()
	return nil
}

// Shrink builds a new intracommunicator containing the surviving members of
// this (possibly revoked) intracommunicator, in their original relative
// order (OMPI_Comm_shrink). It succeeds even in the presence of failures —
// that is its purpose — and its cost follows the beta-ULFM model, which is
// dramatically more expensive for two or more failures (Table I).
func (c *Comm) Shrink() (*Comm, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Shrink on intercommunicator: %w", ErrComm))
	}
	// The shared result: the survivors of the old group in their original
	// relative order, costed by the beta-ULFM shrink model.
	res, err := runRendezvous(c, "shrink", ignoreDeath, true, nil,
		func(w *World, r *rendezvous) (any, float64) {
			var alive []int
			for _, wr := range c.sh.a {
				if w.alive(wr) {
					alive = append(alive, wr)
				}
			}
			nfailed := len(c.sh.a) - len(alive)
			cost := w.machine.ULFM.ShrinkCost(len(c.sh.a), nfailed)
			return w.newCommLocked(alive, nil), cost
		})
	if err != nil {
		return nil, c.fire(err)
	}
	sh := res.(*commShared)
	rank := Group(sh.a).Rank(c.p.st.wrank)
	return &Comm{sh: sh, p: c.p, rank: rank}, nil
}

// Agree performs fault-tolerant agreement on the bitwise AND of the flags
// contributed by the surviving members (OMPI_Comm_agree). It works on
// revoked communicators and on intercommunicators (both groups participate,
// as when the paper synchronises the spawn intercommunicator's parent and
// child sides). If any member of the communicator has failed, the agreed
// flag is still returned together with MPI_ERR_PROC_FAILED.
func (c *Comm) Agree(flag int) (int, error) {
	// The shared result: bitwise AND over the inputs of surviving members,
	// costed by the beta-ULFM agreement model.
	res, err := runRendezvous(c, "agree", reportDeath, true, flag,
		func(w *World, r *rendezvous) (any, float64) {
			agreed := -1 // all bits set
			for wr, in := range r.inputs {
				if w.alive(wr) {
					agreed &= in.(int)
				}
			}
			members := c.allMembers()
			nfailed := len(w.failedOf(members))
			if c.sh.repairFor > nfailed {
				nfailed = c.sh.repairFor
			}
			return agreed, w.machine.ULFM.AgreeCost(len(members), nfailed)
		})
	if res == nil {
		return 0, c.fire(err)
	}
	return res.(int), c.fire(err)
}

// FailureAck acknowledges all currently known failures on the communicator
// (OMPI_Comm_failure_ack): wildcard receives posted after the call no longer
// report MPI_ERR_PENDING for these failures, and FailureGetAcked returns
// exactly this snapshot. Liveness reads are atomic, so no lock is needed;
// acked is owner-only handle state.
func (c *Comm) FailureAck() error {
	st := c.p.st
	w := st.w
	c.acked = w.failedOf(c.allMembers())
	st.clock.AdvanceAttr(w.machine.ULFM.GroupOpCost*float64(len(c.allMembers())), vtime.CompAck)
	return nil
}

// FailureGetAcked returns the group (world ranks) of failures acknowledged
// by the last FailureAck on this handle (OMPI_Comm_failure_get_acked).
func (c *Comm) FailureGetAcked() Group {
	return append(Group(nil), c.acked...)
}

// ChargeGroupOp charges the local cost of an MPI_Group_* manipulation over n
// elements, used by the recovery layer when it builds the failed-process
// list (paper Fig. 6).
func (c *Comm) ChargeGroupOp(n int) {
	c.p.st.clock.AdvanceAttr(c.p.st.w.machine.ULFM.GroupOpCost*float64(n), vtime.CompGroupOp)
}
