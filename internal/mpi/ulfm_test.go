package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ftsg/internal/vtime"
)

func TestKillMarksFailed(t *testing.T) {
	rep := runWorld(t, 3, func(p *Proc) {
		if p.WorldRank() == 1 {
			p.Compute(2.5)
			p.Kill()
		}
	})
	if len(rep.Failed) != 1 || rep.Failed[0] != 1 {
		t.Fatalf("Failed = %v, want [1]", rep.Failed)
	}
	if rep.MaxVirtualTime < 2.5 {
		t.Fatalf("death time not recorded: max = %g", rep.MaxVirtualTime)
	}
}

func TestRecvFromDeadReturnsProcFailed(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			p.Kill()
		}
		_, _, err := Recv[int](c, 1, 0)
		if !errors.Is(err, ErrProcFailed) {
			t.Errorf("Recv from dead rank: %v", err)
		}
		var fe *FailedError
		if !errors.As(err, &fe) || fe.Rank != 1 {
			t.Errorf("failed rank not identified: %v", err)
		}
	})
}

// TestRecvBlockedWokenByFailure covers the critical wake-up path: a receiver
// already blocked when its partner dies must be woken with the error rather
// than hang.
func TestRecvBlockedWokenByFailure(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		switch c.Rank() {
		case 0:
			_, _, err := Recv[int](c, 1, 0) // blocks; rank 1 dies later
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("blocked Recv: %v", err)
			}
		case 1:
			// Give rank 0 a chance to block first via a real handshake
			// with rank 2, then die.
			v, _, err := RecvOne[int](c, 2, 5)
			must(t, err)
			_ = v
			p.Kill()
		case 2:
			must(t, SendOne(c, 1, 5, 1))
		}
	})
}

func TestDeadPeerSendBuffersRecvFails(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			p.Kill()
		}
		// An eager buffered send completes locally even when the peer is
		// dead (the message is lost on the wire) — reporting the death at
		// the send would make the outcome depend on whether the victim's
		// goroutine has reached its kill point yet in wall-clock time.
		if err := SendOne(c, 1, 0, 1); err != nil {
			t.Errorf("Send to dead rank: %v", err)
		}
		// The failure surfaces at the receive.
		_, _, err := Recv[int](c, 1, 0)
		if !errors.Is(err, ErrProcFailed) {
			t.Errorf("Recv from dead rank: %v", err)
		}
	})
}

// TestBarrierDetectsFailure is the paper's detection idiom (Fig. 3 line 13):
// surviving ranks use a barrier and observe MPI_ERR_PROC_FAILED.
func TestBarrierDetectsFailure(t *testing.T) {
	var mu sync.Mutex
	errsSeen := 0
	runWorld(t, 6, func(p *Proc) {
		c := p.World()
		if c.Rank() == 3 {
			p.Kill()
		}
		if err := c.Barrier(); err != nil {
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("barrier error class: %v", err)
			}
			mu.Lock()
			errsSeen++
			mu.Unlock()
		}
	})
	if errsSeen == 0 {
		t.Fatal("no surviving rank detected the failure via the barrier")
	}
}

func TestErrhandlerFires(t *testing.T) {
	var mu sync.Mutex
	fired := 0
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		c.SetErrhandler(func(_ *Comm, err error) {
			if errors.Is(err, ErrProcFailed) {
				mu.Lock()
				fired++
				mu.Unlock()
			}
		})
		if c.Rank() == 2 {
			p.Kill()
		}
		_ = c.Barrier()
	})
	if fired == 0 {
		t.Fatal("error handler never fired")
	}
}

// TestAnySourcePendingAndAck verifies the ULFM failure_ack contract: a
// wildcard receive reports MPI_ERR_PENDING while a failure is unacknowledged
// and proceeds after FailureAck.
func TestAnySourcePendingAndAck(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		switch c.Rank() {
		case 0:
			// Wait until rank 2's death is visible.
			_, _, err := Recv[int](c, 2, 0)
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("named recv: %v", err)
			}
			// Rank 1 has not sent anything yet (it waits for our release),
			// so the wildcard receive must report the unacknowledged
			// failure rather than block or match.
			if _, _, err := Recv[int](c, AnySource, AnyTag); !errors.Is(err, ErrPending) {
				t.Errorf("wildcard recv before ack: %v", err)
			}
			must(t, c.FailureAck())
			acked := c.FailureGetAcked()
			if acked.Size() != 1 || acked[0] != 2 {
				t.Errorf("acked group = %v, want world rank [2]", acked)
			}
			must(t, SendOne(c, 1, 9, 0)) // release the sender
			// After ack, the wildcard receive completes with rank 1's data.
			v, st, err := RecvOne[int](c, AnySource, AnyTag)
			must(t, err)
			if v != 77 || st.Source != 1 {
				t.Errorf("post-ack wildcard recv = %d from %d", v, st.Source)
			}
			must(t, SendOne(c, 1, 10, 0)) // let the sender exit
		case 1:
			// Stay alive until rank 0 is done: a normally exited process
			// counts as departed and would perturb the ack bookkeeping.
			_, _, err := RecvOne[int](c, 0, 9)
			must(t, err)
			must(t, SendOne(c, 0, 3, 77))
			_, _, err = RecvOne[int](c, 0, 10)
			must(t, err)
		case 2:
			p.Kill()
		}
	})
}

func TestRevokeInterruptsPending(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		c := p.World()
		switch c.Rank() {
		case 0:
			// Block forever; only the revoke releases us.
			_, _, err := Recv[int](c, 1, 0)
			if !errors.Is(err, ErrRevoked) {
				t.Errorf("pending recv after revoke: %v", err)
			}
		case 1:
			// Never sends; just waits for the revoke too.
			_, _, err := Recv[int](c, 0, 0)
			if !errors.Is(err, ErrRevoked) {
				t.Errorf("pending recv after revoke: %v", err)
			}
		case 2:
			p.Compute(0.1)
			must(t, c.Revoke())
		}
	})
}

func TestRevokedCommRejectsNewOps(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		must(t, c.Revoke()) // both ranks revoke; idempotent
		if err := SendOne(c, (c.Rank()+1)%2, 0, 1); !errors.Is(err, ErrRevoked) {
			t.Errorf("Send on revoked comm: %v", err)
		}
		if _, err := c.Split(0, 0); !errors.Is(err, ErrRevoked) {
			t.Errorf("Split on revoked comm: %v", err)
		}
		// Shrink and Agree must still work.
		if _, err := c.Shrink(); err != nil {
			t.Errorf("Shrink on revoked comm: %v", err)
		}
		if _, err := c.Agree(1); err != nil {
			t.Errorf("Agree on revoked comm: %v", err)
		}
	})
}

func TestShrinkRemovesFailedPreservesOrder(t *testing.T) {
	var mu sync.Mutex
	ranks := map[int]int{} // old rank -> shrunken rank
	runWorld(t, 7, func(p *Proc) {
		c := p.World()
		if c.Rank() == 3 || c.Rank() == 5 {
			p.Kill()
		}
		// Survivors detect and shrink (paper Figs. 3/5, with ranks 3 and 5
		// failing as in Fig. 2).
		_ = c.Barrier()
		must(t, c.Revoke())
		s, err := c.Shrink()
		must(t, err)
		if s.Size() != 5 {
			t.Errorf("shrunken size = %d, want 5", s.Size())
		}
		mu.Lock()
		ranks[c.Rank()] = s.Rank()
		mu.Unlock()
		// The shrunken communicator is healthy: a barrier must succeed.
		must(t, s.Barrier())
	})
	want := map[int]int{0: 0, 1: 1, 2: 2, 4: 3, 6: 4}
	for old, newR := range want {
		if ranks[old] != newR {
			t.Errorf("old rank %d -> shrunken %d, want %d", old, ranks[old], newR)
		}
	}
}

func TestAgreeANDsFlags(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		flag := 0b1111
		if c.Rank() == 2 {
			flag = 0b1010
		}
		agreed, err := c.Agree(flag)
		must(t, err)
		if agreed != 0b1010 {
			t.Errorf("agreed = %b, want 1010", agreed)
		}
	})
}

func TestAgreeReportsFailure(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		c := p.World()
		if c.Rank() == 1 {
			p.Kill()
		}
		agreed, err := c.Agree(1)
		if !errors.Is(err, ErrProcFailed) {
			t.Errorf("Agree with dead member: err = %v", err)
		}
		if agreed != 1 {
			t.Errorf("agreed flag among survivors = %d, want 1", agreed)
		}
	})
}

// TestShrinkChargesBetaULFMCost checks that the virtual cost of shrink on a
// two-failure communicator follows the Table I model.
func TestShrinkChargesBetaULFMCost(t *testing.T) {
	var mu sync.Mutex
	var maxAfter float64
	n := 19
	rep, err := Run(Options{NProcs: n, Entry: func(p *Proc) {
		c := p.World()
		if c.Rank() == 3 || c.Rank() == 5 {
			p.Kill()
		}
		s, err := c.Shrink()
		must(t, err)
		_ = s
		mu.Lock()
		if p.Now() > maxAfter {
			maxAfter = p.Now()
		}
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	want := vtime.Generic().ULFM.ShrinkCost(n, 2)
	if maxAfter < want || maxAfter > want+0.01 {
		t.Fatalf("post-shrink clock = %g, want ~%g (Table I model)", maxAfter, want)
	}
}

// repairDance records where every process (survivors and replacements)
// ended after a full communicator reconstruction.
type repairDance struct {
	mu         sync.Mutex
	finalRanks map[int]int // world rank -> final comm rank
	finalSize  int
}

func newRepairDance() *repairDance {
	return &repairDance{finalRanks: map[int]int{}}
}

func (d *repairDance) record(p *Proc, c *Comm) {
	d.mu.Lock()
	d.finalRanks[p.WorldRank()] = c.Rank()
	d.finalSize = c.Size()
	d.mu.Unlock()
}

const danceMergeTag = 4

// blockingRepairDance is the full repair dance of the paper's Figs. 2/3/5:
// kill the victims, detect, revoke, agree, shrink, respawn (or claim
// spares), merge, agree, split back to original ranks, barrier.
// Replacements enter through the child path (Fig. 3, lines 19-26).
func blockingRepairDance(t testing.TB, p *Proc, dead func(int) bool, claim bool, d *repairDance) {
	if pc := p.Parent(); pc != nil {
		_, _ = pc.Agree(1) // failure report is expected here in general
		unordered, err := pc.IntercommMerge(true)
		must(t, err)
		oldRank, _, err := RecvOne[int](unordered, 0, danceMergeTag)
		must(t, err)
		ordered, err := unordered.Split(0, oldRank)
		must(t, err)
		d.record(p, ordered)
		must(t, ordered.Barrier()) // reconstructed comm must be fully usable
		return
	}
	c := p.World()
	if dead(c.Rank()) {
		p.Kill()
	}
	_ = c.Barrier() // detection point; non-uniform outcome is fine
	_ = c.Revoke()
	if flag, err := c.Agree(1); flag != 1 || err == nil {
		t.Errorf("Agree after failures: flag %d err %v", flag, err)
	}
	shrunk, err := c.Shrink()
	must(t, err)
	// Failed-process list via group algebra (paper Fig. 6).
	oldGroup, newGroup := c.Group(), shrunk.Group()
	failedGroup := oldGroup.Difference(newGroup)
	failedRanks := make([]int, failedGroup.Size())
	for i := range failedRanks {
		failedRanks[i] = oldGroup.Rank(failedGroup[i])
	}
	var inter *Comm
	if claim {
		inter, err = shrunk.ClaimSpares(len(failedRanks))
	} else {
		hosts, herr := p.Cluster().SpawnHosts(failedRanks)
		must(t, herr)
		inter, err = shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
	}
	must(t, err)
	unordered, err := inter.IntercommMerge(false)
	must(t, err)
	_, err = inter.Agree(1)
	must(t, err)
	// Rank 0 of the merged comm tells each child its old rank (children
	// are the highest ranks after a high merge).
	if unordered.Rank() == 0 {
		base := shrunk.Size()
		for i, fr := range failedRanks {
			must(t, SendOne(unordered, base+i, danceMergeTag, fr))
		}
	}
	ordered, err := unordered.Split(0, c.Rank())
	must(t, err)
	d.record(p, ordered)
	must(t, ordered.Barrier())
}

// checkDance verifies the reconstructed communicator: full size, survivors
// on their original ranks, replacements (world ranks nprocs.., or the
// claimed spares right after the initial ranks) on the failed ranks.
func checkDance(t *testing.T, d *repairDance, nprocs int, dead func(int) bool) {
	t.Helper()
	if d.finalSize != nprocs {
		t.Fatalf("reconstructed size = %d, want %d", d.finalSize, nprocs)
	}
	var failed []int
	for wr := 0; wr < nprocs; wr++ {
		if dead(wr) {
			failed = append(failed, wr)
			continue
		}
		if d.finalRanks[wr] != wr {
			t.Errorf("survivor world %d has rank %d", wr, d.finalRanks[wr])
		}
	}
	for i, fr := range failed {
		if got := d.finalRanks[nprocs+i]; got != fr {
			t.Errorf("replacement world %d got rank %d, want %d", nprocs+i, got, fr)
		}
	}
}

// TestSpawnMergeSplitRepairDance runs the full communicator reconstruction
// of the paper's Figs. 2/3/5 at the runtime level: kill ranks 3 and 5 of a
// 7-rank communicator, shrink, spawn two replacements, merge high, and split
// with the original ranks as keys; every process must end with its original
// rank in a full-size communicator.
func TestSpawnMergeSplitRepairDance(t *testing.T) {
	const nprocs = 7
	dead := func(me int) bool { return me == 3 || me == 5 }
	d := newRepairDance()
	rep, err := Run(Options{NProcs: nprocs, Entry: func(p *Proc) {
		blockingRepairDance(t, p, dead, false, d)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if len(rep.Failed) != 2 || rep.Spawned != 2 {
		t.Fatalf("failed %v spawned %d", rep.Failed, rep.Spawned)
	}
	checkDance(t, d, nprocs, dead)
}

// TestClaimSparesRepairDance is the substitute mode's repair round: the
// dance claims two of four pre-allocated spares instead of spawning, and
// the claimed spares attach through the same merge/agree/split protocol.
func TestClaimSparesRepairDance(t *testing.T) {
	const nprocs = 16
	dead := func(me int) bool { return me == 3 || me == 11 }
	d := newRepairDance()
	rep, err := Run(Options{NProcs: nprocs, SpareRanks: 4, Machine: vtime.OPL(),
		Watchdog: Watchdog{Timeout: 60 * time.Second},
		Entry:    func(p *Proc) { blockingRepairDance(t, p, dead, true, d) }})
	if err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	checkDance(t, d, nprocs, dead)
	if rep.SparesUsed != 2 || rep.Spawned != 0 {
		t.Errorf("SparesUsed %d Spawned %d, want 2 and 0", rep.SparesUsed, rep.Spawned)
	}
}

// TestRepair8192Smoke runs the full kill -> detect -> revoke -> shrink ->
// respawn -> merge -> split dance at 8192 ranks and checks the world is
// repaired exactly: replacements take the failed ranks, survivors keep
// theirs.
func TestRepair8192Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("8192-rank repair smoke skipped in -short")
	}
	if raceEnabled {
		// Race shadow memory multiplies the ~1 GB heap of an 8192-rank
		// world; CI runs this test in its own step without -race.
		t.Skip("8192-rank repair smoke skipped under -race")
	}
	const nprocs = 8192
	dead := func(r int) bool { return r == 1000 || r == 5000 }
	d := newRepairDance()
	rep, err := Run(Options{NProcs: nprocs, Machine: vtime.OPL(), Entry: func(p *Proc) {
		blockingRepairDance(t, p, dead, false, d)
	}})
	if err != nil {
		t.Fatal(err)
	}
	checkDance(t, d, nprocs, dead)
	if rep.Spawned != 2 {
		t.Errorf("Spawned = %d, want 2", rep.Spawned)
	}
	if len(rep.Failed) != 2 {
		t.Errorf("Failed = %v, want two ranks", rep.Failed)
	}
}

// TestVirtualTimeDeterminism: the virtual clock is independent of Go
// scheduling — repeated runs of a communication-heavy world give the exact
// same maximum virtual time.
func TestVirtualTimeDeterminism(t *testing.T) {
	run := func() float64 {
		rep, err := Run(Options{NProcs: 16, Machine: vtime.OPL(), Entry: func(p *Proc) {
			c := p.World()
			for k := 0; k < 20; k++ {
				if _, err := Allreduce(c, []float64{float64(c.Rank())}, Sum[float64]); err != nil {
					t.Error(err)
					return
				}
				right := (c.Rank() + 1) % c.Size()
				left := (c.Rank() - 1 + c.Size()) % c.Size()
				if _, _, err := Sendrecv[int, int](c, right, 3, []int{k}, left, 3); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.Barrier(); err != nil {
				t.Error(err)
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxVirtualTime
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("virtual time differs across runs: %.17g vs %.17g", got, first)
		}
	}
	if first <= 0 {
		t.Fatal("no virtual time accumulated")
	}
}
