package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ftsg/internal/vtime"
)

// TestWatchdogDetectsDeadlock drives a textbook receive-receive deadlock and
// checks that the watchdog reports it with the blocked-op state of both
// ranks, then aborts the job so Run returns instead of hanging.
func TestWatchdogDetectsDeadlock(t *testing.T) {
	dumps := make(chan string, 1)
	rep, err := Run(Options{
		NProcs:   2,
		Machine:  vtime.OPL(),
		Watchdog: Watchdog{Timeout: 50 * time.Millisecond, OnStall: func(d string) { dumps <- d }},
		Entry: func(p *Proc) {
			c := p.World()
			// Both ranks receive from each other; nobody sends first.
			other := 1 - c.Rank()
			_, _, err := Recv[int](c, other, 7)
			if !errors.Is(err, ErrProcFailed) {
				t.Errorf("rank %d: expected ErrProcFailed after watchdog abort, got %v", c.Rank(), err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case dump := <-dumps:
		for _, want := range []string{"no transport progress", "recv comm=0", "tag=7"} {
			if !strings.Contains(dump, want) {
				t.Errorf("dump missing %q:\n%s", want, dump)
			}
		}
	default:
		t.Fatal("watchdog did not fire")
	}
	if len(rep.Failed) != 2 {
		t.Errorf("abort should have failed both ranks, got %v", rep.Failed)
	}
}

// TestWatchdogAbortThenRecoveryReturns checks that an aborted job still
// drains when its ranks react to the abort the way a recovery layer does.
// abortJob fails every rank, but each goroutine keeps running: it sees
// MPI_ERR_PROC_FAILED and goes on to revoke, shrink and agree, so every
// rendezvous is entered by dead members only. Each must resolve (among no
// survivors) rather than park its callers for good.
func TestWatchdogAbortThenRecoveryReturns(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(Options{
			NProcs:   4,
			Machine:  vtime.OPL(),
			Watchdog: Watchdog{Timeout: 50 * time.Millisecond, OnStall: func(string) {}},
			Entry: func(p *Proc) {
				c := p.World()
				// A receive cycle: every rank waits on its right neighbour.
				// A rank that wakes after another has revoked sees that
				// instead of the failure.
				_, _, err := Recv[int](c, (c.Rank()+1)%c.Size(), 7)
				if !errors.Is(err, ErrProcFailed) && !errors.Is(err, ErrRevoked) {
					t.Errorf("rank %d: expected ErrProcFailed or ErrRevoked after watchdog abort, got %v", c.Rank(), err)
				}
				must(t, c.Revoke())
				if _, err := c.Shrink(); err != nil {
					t.Errorf("rank %d: shrink after abort: %v", c.Rank(), err)
				}
				if _, err := c.Agree(1); !errors.Is(err, ErrProcFailed) {
					t.Errorf("rank %d: agree after abort: expected ErrProcFailed, got %v", c.Rank(), err)
				}
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Run did not return: a rendezvous entered only by dead members never resolved")
	}
}

// TestWatchdogQuietOnCleanRun checks the watchdog never fires on a healthy
// run, including one with a real failure and repair traffic.
func TestWatchdogQuietOnCleanRun(t *testing.T) {
	fired := false
	runWorldWatched(t, 8, Watchdog{Timeout: time.Minute, OnStall: func(string) { fired = true }},
		func(p *Proc) {
			c := p.World()
			sum, err := Allreduce(c, []int{c.Rank()}, Sum[int])
			must(t, err)
			if sum[0] != 28 {
				t.Errorf("allreduce got %d", sum[0])
			}
		})
	if fired {
		t.Error("watchdog fired on a healthy run")
	}
}

// TestOpHookObservesProgramOrder checks the hook sees this process's
// operations in program order, including the ops inside a collective.
func TestOpHookObservesProgramOrder(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		c := p.World()
		var ops []string
		p.SetOpHook(func(op string) { ops = append(ops, op) })
		if c.Rank() == 0 {
			must(t, SendOne(c, 1, 3, 42))
			_, _, err := RecvOne[int](c, 1, 4)
			must(t, err)
		} else {
			v, _, err := RecvOne[int](c, 0, 3)
			must(t, err)
			must(t, SendOne(c, 0, 4, v))
		}
		must(t, c.Barrier())
		p.SetOpHook(nil)
		if len(ops) < 3 {
			t.Errorf("rank %d: hook saw too few ops: %v", c.Rank(), ops)
		}
		want := []string{OpSend, OpRecv}
		if c.Rank() == 1 {
			want = []string{OpRecv, OpSend}
		}
		for i, w := range want {
			if ops[i] != w {
				t.Errorf("rank %d: op %d = %q, want %q (all: %v)", c.Rank(), i, ops[i], w, ops)
			}
		}
	})
}

// TestOpHookKillInsideBarrier kills a rank at its first operation inside a
// barrier: the survivors must observe MPI_ERR_PROC_FAILED, not hang, and the
// outcome must be identical on every run (the hook follows program order).
func TestOpHookKillInsideBarrier(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		var failedAt []int
		rep := runWorld(t, 8, func(p *Proc) {
			c := p.World()
			if c.Rank() == 5 {
				n := 0
				p.SetOpHook(func(op string) {
					n++
					if n == 2 { // die mid-barrier, after the first dissemination round
						p.Kill()
					}
				})
			}
			err := c.Barrier()
			if c.Rank() == 5 {
				t.Error("rank 5 should have died inside the barrier")
				return
			}
			if err == nil {
				err = c.Barrier() // detection: the follow-up barrier must see it
			}
			_ = err
		})
		if len(rep.Failed) != 1 || rep.Failed[0] != 5 {
			t.Fatalf("trial %d: failed = %v, want [5]", trial, rep.Failed)
		}
		failedAt = rep.Failed
		_ = failedAt
	}
}

// TestOpHookKillInsideShrink kills a rank exactly at its shrink call — a
// failure during recovery itself. The survivors' shrink must still complete
// (ignoreDeath) and exclude the victim.
func TestOpHookKillInsideShrink(t *testing.T) {
	rep := runWorld(t, 6, func(p *Proc) {
		c := p.World()
		if c.Rank() == 2 {
			p.Kill()
		}
		_ = c.Barrier() // detect
		if c.Rank() == 4 {
			p.SetOpHook(func(op string) {
				if op == OpShrink {
					p.Kill()
				}
			})
		}
		shrunk, err := c.Shrink()
		must(t, err)
		if shrunk.Size() != 4 {
			t.Errorf("rank %d: shrunk size %d, want 4", c.Rank(), shrunk.Size())
		}
	})
	if len(rep.Failed) != 2 {
		t.Fatalf("failed = %v, want two victims", rep.Failed)
	}
}
