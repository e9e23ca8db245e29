package mpi

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestFailOnDeathAbortIsDeterministic is the regression test for a replay
// nondeterminism the chaos campaign found: a failOnDeath collective used to
// abort the moment the first arrived member observed a death, stamping the
// abort time with the max over whichever members happened to have arrived in
// real time. Survivor clocks after the error then depended on goroutine
// scheduling. The abort must instead wait for every alive member, so the
// error time is the max over ALL alive arrivals regardless of real arrival
// order.
//
// The test makes the old behaviour deterministic-in-the-wrong-direction:
// rank 3 dies first (real time), then rank 0 — carrying the SMALLEST virtual
// clock — enters Split well before the ranks with larger clocks. Under the
// old code rank 0 resolved the abort alone at virtual time 1.0; the fix
// forces every survivor to the true group maximum of 3.0.
func TestFailOnDeathAbortIsDeterministic(t *testing.T) {
	dead := make(chan struct{})
	var mu sync.Mutex
	clocks := make(map[int]float64)
	runWorld(t, 4, func(p *Proc) {
		w := p.World()
		if w.Rank() == 3 {
			close(dead)
			p.Kill()
		}
		// Distinct virtual arrival times: rank 0 -> 1.0, 1 -> 2.0, 2 -> 3.0.
		p.Compute(float64(w.Rank() + 1))
		<-dead
		// Stagger real arrivals so the rank with the SMALLEST virtual clock
		// reaches the collective first and would have resolved the abort
		// alone under the old code.
		time.Sleep(time.Duration(50*(w.Rank()+1)) * time.Millisecond)
		if _, err := w.Split(0, w.Rank()); !errors.Is(err, ErrProcFailed) {
			t.Errorf("rank %d: Split = %v, want ErrProcFailed", w.Rank(), err)
		}
		mu.Lock()
		clocks[w.Rank()] = p.Now()
		mu.Unlock()
	})
	for rank := 0; rank < 3; rank++ {
		if got := clocks[rank]; got != 3.0 {
			t.Errorf("rank %d clock after aborted Split = %v, want 3.0 (max over all alive arrivals)", rank, got)
		}
	}
}

// newBareWorld builds a World of n live processes without running any
// code on them, so a test can drive rendezvous state by hand.
func newBareWorld(n int) *World {
	w := &World{}
	sts := make([]procState, n)
	procs := make([]*procState, n)
	for i := range sts {
		st := &sts[i]
		st.w, st.wrank = w, i
		st.alive.Store(true)
		st.cond.L = &st.mu
		procs[i] = st
	}
	w.procs.Store(&procs)
	return w
}

// bruteAliveArrived is the uncached member walk aliveArrived replaces.
func bruteAliveArrived(w *World, r *rendezvous) (complete, anyDead bool) {
	complete = true
	for _, wr := range r.members {
		if !w.alive(wr) {
			anyDead = true
			continue
		}
		if _, ok := r.arrived[wr]; !ok {
			complete = false
		}
	}
	return complete, anyDead
}

// TestRendezvousAliveArrivedCache interleaves arrivals (of alive and of
// dead-but-running members), failures and normal exits at random — of
// members and of bystanders outside the communicator, before and after the
// instance exists — and checks the cached alive-arrived count against a
// brute-force member walk after every step, then checks the verdict each
// failure mode reaches on resolution.
func TestRendezvousAliveArrivedCache(t *testing.T) {
	modes := []struct {
		name string
		mode rvzMode
	}{{"failOnDeath", failOnDeath}, {"reportDeath", reportDeath}, {"ignoreDeath", ignoreDeath}}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			for seed := int64(0); seed < 200; seed++ {
				checkRendezvousCache(t, m.mode, seed)
				if t.Failed() {
					t.Fatalf("seed %d", seed)
				}
			}
		})
	}
}

func checkRendezvousCache(t *testing.T, mode rvzMode, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(30)
	w := newBareWorld(n)
	var members []int
	for wr := 0; wr < n; wr++ {
		if rng.Intn(4) != 0 {
			members = append(members, wr)
		}
	}
	if len(members) == 0 {
		members = []int{0}
	}
	end := func(wr int) {
		w.state.Lock()
		w.endProc(w.proc(wr), rng.Intn(2) == 0) // failure or normal exit
		w.state.Unlock()
	}
	for wr := 0; wr < n; wr++ {
		if rng.Intn(8) == 0 {
			end(wr) // dead before the instance exists
		}
	}

	w.state.Lock()
	r := w.rendezvousLocked(rvzKey{comm: 1, op: "test"}, members)
	w.state.Unlock()
	built := false
	build := func(w *World, r *rendezvous) (any, float64) {
		built = true
		return len(r.arrived), 1
	}

	for step := 0; ; step++ {
		// One to three actions between checks, so arrivals also land on a
		// cache a death has made stale.
		for k := 1 + rng.Intn(3); k > 0; k-- {
			// Dead members arrive too: a failed process's goroutine keeps
			// running (the watchdog's abortJob fails ranks that then enter
			// recovery collectives).
			var waiting, live []int
			for _, wr := range members {
				if _, ok := r.arrived[wr]; !ok {
					waiting = append(waiting, wr)
				}
			}
			for wr := 0; wr < n; wr++ {
				if w.alive(wr) {
					live = append(live, wr)
				}
			}
			if len(waiting) > 0 && rng.Intn(3) != 0 {
				wr := waiting[rng.Intn(len(waiting))]
				w.state.Lock()
				ok := r.arriveLocked(w, wr, rng.Float64(), wr)
				dup := r.arriveLocked(w, wr, 0, nil)
				w.state.Unlock()
				if !ok || dup {
					t.Fatalf("step %d: arrival of %d: first %v, repeat %v", step, wr, ok, dup)
				}
			} else if len(live) > 0 {
				end(live[rng.Intn(len(live))])
			}
		}

		w.state.Lock()
		wantComplete, wantDead := bruteAliveArrived(w, r)
		gotComplete, gotDead := r.aliveArrived(w)
		done := r.resolveLocked(w, mode, build)
		w.state.Unlock()
		if gotComplete != wantComplete || gotDead != wantDead {
			t.Errorf("step %d: cached (complete %v, anyDead %v), walk (%v, %v)",
				step, gotComplete, gotDead, wantComplete, wantDead)
			return
		}
		if done != wantComplete {
			t.Errorf("step %d: resolved %v with complete %v", step, done, wantComplete)
			return
		}
		if !done {
			continue
		}

		var fe *FailedError
		switch {
		case mode == failOnDeath && wantDead:
			if !errors.As(r.err, &fe) || built || r.cost != 0 {
				t.Errorf("failOnDeath abort: err %v built %v cost %v", r.err, built, r.cost)
			}
		case mode == reportDeath && wantDead:
			if !errors.As(r.err, &fe) || !built {
				t.Errorf("reportDeath with a dead member: err %v built %v", r.err, built)
			}
		default:
			if r.err != nil || !built {
				t.Errorf("clean completion: err %v built %v", r.err, built)
			}
		}
		return
	}
}
