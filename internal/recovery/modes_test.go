package recovery

import (
	"reflect"
	"sync"
	"testing"

	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

func TestModeStringParseRoundTrip(t *testing.T) {
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseMode("no-repair"); err != nil || got != ModeNoRepair {
		t.Errorf(`ParseMode("no-repair") = %v, %v`, got, err)
	}
	if _, err := ParseMode("respawn"); err == nil {
		t.Error(`ParseMode("respawn") accepted an unknown mode`)
	}
	if got := Mode(9).String(); got != "Mode(9)" {
		t.Errorf("Mode(9).String() = %q", got)
	}
}

// modeOutcome is what one process ends a ReconstructMode call with.
type modeOutcome struct {
	rank, size int
	origOf     []int
	fallbacks  int
	failed     []int
}

// reconstructModeWorld runs n ranks (plus spares pre-allocated spare
// processes), kills the ranks in kill at the start, and has every process
// — survivors, respawned children and claimed spares — call ReconstructMode
// under mode. It returns each process's outcome by world rank.
func reconstructModeWorld(t *testing.T, n, spares int, kill map[int]bool, mode Mode) (map[int]modeOutcome, *mpi.Report) {
	t.Helper()
	var mu sync.Mutex
	out := map[int]modeOutcome{}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	rep, err := mpi.Run(mpi.Options{NProcs: n, SpareRanks: spares, Machine: vtime.OPL(), Entry: func(p *mpi.Proc) {
		var st Stats
		var res *ModeResult
		var err error
		if parent := p.Parent(); parent != nil {
			res, err = ReconstructMode(p, nil, parent, &st, SameHostPlacement, mode, nil)
		} else {
			c := p.World()
			if kill[c.Rank()] {
				p.Kill()
			}
			res, err = ReconstructMode(p, c, nil, &st, SameHostPlacement, mode, identity)
		}
		if err != nil {
			t.Errorf("world rank %d: %v", p.WorldRank(), err)
			return
		}
		if err := res.Comm.Barrier(); err != nil {
			t.Errorf("world rank %d: post-repair barrier: %v", p.WorldRank(), err)
		}
		mu.Lock()
		out[p.WorldRank()] = modeOutcome{res.Rank, res.Comm.Size(), res.OrigOf, res.Fallbacks, st.FailedRanks}
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

// TestReconstructModeShrinkFamily: shrink and no-repair continue with the
// survivors in their original relative order, and OrigOf maps every new
// position back to its original rank.
func TestReconstructModeShrinkFamily(t *testing.T) {
	for _, mode := range []Mode{ModeShrink, ModeNoRepair} {
		t.Run(mode.String(), func(t *testing.T) {
			out, rep := reconstructModeWorld(t, 8, 0, map[int]bool{2: true, 5: true}, mode)
			if rep.Spawned != 0 || len(rep.Failed) != 2 {
				t.Fatalf("spawned %d, failed %v", rep.Spawned, rep.Failed)
			}
			wantOrig := []int{0, 1, 3, 4, 6, 7}
			for pos, wr := range wantOrig {
				o := out[wr]
				if o.rank != pos || o.size != 6 || !reflect.DeepEqual(o.origOf, wantOrig) {
					t.Errorf("survivor %d: rank %d size %d origOf %v; want rank %d size 6 origOf %v",
						wr, o.rank, o.size, o.origOf, pos, wantOrig)
				}
				if !reflect.DeepEqual(o.failed, []int{2, 5}) {
					t.Errorf("survivor %d: FailedRanks %v, want [2 5]", wr, o.failed)
				}
			}
		})
	}
}

// TestReconstructModeSubstitute: claimed spares take over the failed ranks
// and the communicator keeps its size and numbering; with too few spares
// the round falls back to shrink for every member alike.
func TestReconstructModeSubstitute(t *testing.T) {
	kill := map[int]bool{2: true, 5: true}
	out, rep := reconstructModeWorld(t, 8, 4, kill, ModeSubstitute)
	if rep.SparesUsed != 2 || rep.Spawned != 0 {
		t.Fatalf("spares used %d, spawned %d", rep.SparesUsed, rep.Spawned)
	}
	for wr := 0; wr < 8; wr++ {
		if kill[wr] {
			continue
		}
		if o := out[wr]; o.rank != wr || o.size != 8 || o.fallbacks != 0 {
			t.Errorf("survivor %d: %+v", wr, o)
		}
	}
	// Spares occupy the world ranks right after the initial ones, claimed
	// in creation order.
	for i, fr := range []int{2, 5} {
		if o := out[8+i]; o.rank != fr || o.size != 8 {
			t.Errorf("spare %d: rank %d size %d, want rank %d size 8", 8+i, o.rank, o.size, fr)
		}
	}

	out, rep = reconstructModeWorld(t, 8, 1, kill, ModeSubstitute)
	if rep.SparesUsed != 0 {
		t.Fatalf("fallback consumed %d spares", rep.SparesUsed)
	}
	for wr := 0; wr < 8; wr++ {
		if kill[wr] {
			continue
		}
		if o := out[wr]; o.size != 6 || o.fallbacks != 1 || !reflect.DeepEqual(o.origOf, []int{0, 1, 3, 4, 6, 7}) {
			t.Errorf("survivor %d after fallback: %+v", wr, o)
		}
	}
}

// TestReconstructModeSpawn: the spawn mode is ReconstructPlaced behind the
// mode dispatch, with OrigOf passed through unchanged.
func TestReconstructModeSpawn(t *testing.T) {
	out, rep := reconstructModeWorld(t, 7, 0, map[int]bool{3: true}, ModeSpawn)
	if rep.Spawned != 1 {
		t.Fatalf("spawned %d, want 1", rep.Spawned)
	}
	for wr := 0; wr < 7; wr++ {
		if wr == 3 {
			continue
		}
		if o := out[wr]; o.rank != wr || o.size != 7 || len(o.origOf) != 7 {
			t.Errorf("survivor %d: %+v", wr, o)
		}
	}
	if o := out[7]; o.rank != 3 || o.size != 7 || o.origOf != nil {
		t.Errorf("replacement: %+v", o)
	}
}
