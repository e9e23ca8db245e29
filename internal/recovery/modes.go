// This file adds the alternative repair strategies next to the paper's
// spawn-based protocol (recovery.go): shrink-only (continue with fewer
// ranks), substitute (wake pre-allocated spare processes instead of
// spawning), and no-repair (shrink so collectives keep working, but recover
// no data — the measured degraded baseline). All three share the paper's
// revoke/shrink/failed-procs-list primitives; substitute additionally reuses
// the merge/agree/split knitting of Fig. 5 with mpi.ClaimSpares in place of
// MPI_Comm_spawn_multiple.
package recovery

import (
	"errors"
	"fmt"

	"ftsg/internal/mpi"
)

// Mode selects how a broken communicator is repaired.
type Mode int

const (
	// ModeSpawn is the paper's protocol: re-spawn replacements and restore
	// the communicator to full size (RepairCommPlaced).
	ModeSpawn Mode = iota
	// ModeShrink repairs by shrinking: survivors continue with fewer ranks
	// and the application redistributes the dead ranks' work.
	ModeShrink
	// ModeSubstitute restores full size from pre-allocated spare processes
	// (mpi.Options.SpareRanks) via ClaimSpares; when the spares are
	// exhausted the round falls back to shrink-only, deterministically for
	// every member.
	ModeSubstitute
	// ModeNoRepair shrinks the communicator (collectives must keep working)
	// but the application recovers no data: affected sub-grids are abandoned.
	ModeNoRepair
)

// String returns the mode's flag spelling (see ParseMode).
func (m Mode) String() string {
	switch m {
	case ModeSpawn:
		return "spawn"
	case ModeShrink:
		return "shrink"
	case ModeSubstitute:
		return "substitute"
	case ModeNoRepair:
		return "norepair"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -recovery-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "spawn":
		return ModeSpawn, nil
	case "shrink":
		return ModeShrink, nil
	case "substitute":
		return ModeSubstitute, nil
	case "norepair", "no-repair":
		return ModeNoRepair, nil
	}
	return 0, fmt.Errorf("recovery: unknown mode %q (want spawn, shrink, substitute or norepair)", s)
}

// Modes lists every recovery mode in presentation order.
var Modes = []Mode{ModeSpawn, ModeShrink, ModeSubstitute, ModeNoRepair}

// ModeResult is what ReconstructMode hands back to the application.
type ModeResult struct {
	// Comm is the reconstructed communicator; Rank the caller's rank in it.
	Comm *mpi.Comm
	Rank int
	// OrigOf maps each Comm rank to its original (pre-failure) rank. Under
	// spawn and successful substitute repairs this is the identity the
	// caller passed in; shrink repairs remove the failed positions. nil for
	// attached children, which learn the mapping from the survivors'
	// recovery-info broadcast.
	OrigOf []int
	// Fallbacks counts substitute rounds that found the spares exhausted
	// and degraded to shrink-only.
	Fallbacks int
}

// RepairShrinkOnly is the shared front half of every non-spawn repair:
// revoke the broken communicator, shrink it, and derive the failed ranks
// (Fig. 6) in the broken communicator's numbering. Unlike the spawn repair
// it cannot be aborted by a further failure — shrink completes among
// whatever survives — so it always returns a usable (smaller) communicator.
func RepairShrinkOnly(p *mpi.Proc, broken *mpi.Comm, st *Stats) (*mpi.Comm, []int, error) {
	me := st.track(broken)
	t0 := p.Now()
	sp := st.span(t0, me, "revoke", "")
	_ = broken.Revoke()
	sp.End(p.Now())
	st.charge("revoke", p.Now()-t0)

	t0 = p.Now()
	sp = st.span(t0, me, "shrink", "")
	shrunk, err := broken.Shrink()
	sp.End(p.Now())
	if err != nil {
		return nil, nil, fmt.Errorf("recovery: shrink: %w", err)
	}
	st.ShrinkTime += p.Now() - t0
	st.charge("shrink", p.Now()-t0)

	t0 = p.Now()
	failedRanks := FailedProcsList(broken, shrunk)
	st.ListTime += p.Now() - t0
	if len(failedRanks) == 0 {
		return nil, nil, fmt.Errorf("recovery: repair called with no failed processes")
	}
	st.FailedRanks = append([]int(nil), failedRanks...)
	return shrunk, failedRanks, nil
}

// RepairSubstitute repairs by claiming pre-allocated spares: revoke, shrink,
// claim, then the exact merge/agree/old-rank/split knitting of Fig. 5. The
// claimed spares observe a non-nil Proc.Parent and attach via ChildAttach,
// indistinguishable from re-spawned replacements. When the spare pool cannot
// cover the failures, every member uniformly receives mpi.ErrNoSpares from
// the claim and the round returns the shrunken communicator with fellBack
// set — the deterministic fallback the regression tests pin.
//
// The claim's virtual cost is charged to Stats.SpawnTime: it occupies the
// replacement-acquisition slot of the Table I breakdown, which is exactly
// the number the spawn-vs-substitute comparison measures.
func RepairSubstitute(p *mpi.Proc, broken *mpi.Comm, st *Stats) (repaired *mpi.Comm, failedRanks []int, fellBack bool, err error) {
	shrunk, failedRanks, err := RepairShrinkOnly(p, broken, st)
	if err != nil {
		return nil, nil, false, err
	}
	totalFailed := len(failedRanks)
	me := st.track(broken)

	t0 := p.Now()
	sp := st.span(t0, me, "claim", "%d spares", totalFailed)
	inter, cerr := shrunk.ClaimSpares(totalFailed)
	sp.End(p.Now())
	if errors.Is(cerr, mpi.ErrNoSpares) {
		return shrunk, failedRanks, true, nil
	}
	if cerr != nil {
		return nil, nil, false, fmt.Errorf("recovery: claim: %w", cerr)
	}
	st.SpawnTime += p.Now() - t0
	st.charge("claim", p.Now()-t0)

	t0 = p.Now()
	sp = st.span(t0, me, "merge", "")
	unordered, err := inter.IntercommMerge(false)
	sp.End(p.Now())
	if err != nil {
		return nil, nil, false, fmt.Errorf("recovery: merge: %w", err)
	}
	st.MergeTime += p.Now() - t0
	st.charge("merge", p.Now()-t0)

	// As in RepairCommPlaced: from here the claimed spares are blocked in
	// their own ChildAttach; any failure below revokes the merged
	// communicator so they deterministically exit as orphans and the caller
	// retries from the original broken communicator (consuming fresh spares).
	abandon := func(err error) error {
		_ = unordered.Revoke()
		return err
	}

	t0 = p.Now()
	sp = st.span(t0, me, "agree", "")
	_, err = inter.Agree(1)
	sp.End(p.Now())
	if err != nil {
		return nil, nil, false, abandon(fmt.Errorf("recovery: agree: %w", err))
	}
	st.AgreeTime += p.Now() - t0
	st.charge("agree", p.Now()-t0)

	shrinkedGroupSize := shrunk.Size()
	if unordered.Rank() == 0 {
		for i, fr := range failedRanks {
			if err := mpi.SendOne(unordered, shrinkedGroupSize+i, MergeTag, fr); err != nil {
				return nil, nil, false, abandon(fmt.Errorf("recovery: send old rank: %w", err))
			}
		}
	}

	totalProcs := unordered.Size()
	key := SelectRankKey(unordered.Rank(), shrinkedGroupSize, failedRanks, totalProcs)
	t0 = p.Now()
	sp = st.span(t0, me, "split", "restore rank order, key %d", key)
	ordered, err := unordered.Split(0, key)
	sp.End(p.Now())
	if err != nil {
		return nil, nil, false, abandon(fmt.Errorf("recovery: split: %w", err))
	}
	st.SplitTime += p.Now() - t0
	st.charge("split", p.Now()-t0)
	return ordered, failedRanks, false, nil
}

// ReconstructMode is the mode-dispatching analogue of ReconstructPlaced:
// the Fig. 3 detect/repair loop with the repair step chosen by mode.
// Survivors pass their current communicator, a nil parent, and origOf — the
// original rank behind each current communicator position (identity on the
// first call; thread the returned OrigOf through subsequent calls).
// Substitute-claimed spares pass a nil communicator, their Proc.Parent, and
// nil origOf, exactly like re-spawned children.
//
// Stats.FailedRanks reports the union of ranks lost across every repair
// round of this call in ORIGINAL numbering (children, which cannot derive
// it, report none and learn the list from the application's broadcast).
func ReconstructMode(p *mpi.Proc, myWorld, parent *mpi.Comm, st *Stats, place Placement, mode Mode, origOf []int) (*ModeResult, error) {
	if mode == ModeSpawn {
		c, r, err := ReconstructPlaced(p, myWorld, parent, st, place)
		if err != nil {
			return nil, err
		}
		return &ModeResult{Comm: c, Rank: r, OrigOf: origOf}, nil
	}
	if mode == ModeShrink || mode == ModeNoRepair {
		if parent != nil {
			return nil, fmt.Errorf("recovery: mode %v has no replacement processes", mode)
		}
	}

	reconstructed := myWorld
	cur := origOf
	handler := ErrorHandler(p)
	fallbacks := 0
	var replaced map[int]bool // union of failed ORIGINAL ranks over all rounds

	for iter := 0; ; iter++ {
		st.Iterations = iter + 1
		if parent != nil {
			// Claimed-spare path: attach like a spawned child, then verify as
			// a survivor.
			t0 := p.Now()
			ordered, _, err := ChildAttach(p, parent, st)
			st.ReconstructTime += p.Now() - t0
			if err != nil {
				return nil, err
			}
			reconstructed = ordered
			parent = nil
			continue
		}

		reconstructed.SetErrhandler(handler)
		if cur != nil {
			st.orig, st.origSet = cur[reconstructed.Rank()], true
		}
		// Detection, exactly as in ReconstructPlaced: barrier first, agree
		// last, so the repair decision is uniform across members.
		t0 := p.Now()
		sp := st.span(t0, st.track(reconstructed), "detect", "barrier + agree round")
		barrierErr := reconstructed.Barrier()
		_, agreeErr := reconstructed.Agree(1)
		sp.End(p.Now())
		st.ListTime += p.Now() - t0
		st.charge("detect", p.Now()-t0)

		if agreeErr == nil && barrierErr == nil {
			if replaced != nil {
				st.FailedRanks = sortedRanks(replaced)
			}
			return &ModeResult{
				Comm:      reconstructed,
				Rank:      reconstructed.Rank(),
				OrigOf:    cur,
				Fallbacks: fallbacks,
			}, nil
		}

		t0 = p.Now()
		var repaired *mpi.Comm
		var failedBroken []int
		var rerr error
		fell := false
		switch mode {
		case ModeShrink, ModeNoRepair:
			repaired, failedBroken, rerr = RepairShrinkOnly(p, reconstructed, st)
		case ModeSubstitute:
			repaired, failedBroken, fell, rerr = RepairSubstitute(p, reconstructed, st)
		default:
			rerr = fmt.Errorf("recovery: unknown mode %v", mode)
		}
		st.ReconstructTime += p.Now() - t0
		if rerr != nil {
			if retryable(rerr) && iter+1 < maxRepairRounds {
				// A further failure hit the repair itself. Retry from the
				// SAME broken communicator: the next shrink excludes every
				// failure so far, and any spares claimed by the abandoned
				// round observed the revocation and exited as orphans.
				continue
			}
			return nil, rerr
		}

		if cur != nil {
			if replaced == nil {
				replaced = make(map[int]bool, len(failedBroken))
			}
			for _, br := range failedBroken {
				replaced[cur[br]] = true
			}
		}
		if mode != ModeSubstitute || fell {
			cur = removeIdx(cur, failedBroken)
			if fell {
				fallbacks++
			}
		}
		reconstructed = repaired
	}
}

// removeIdx returns cur without the positions listed in failed, preserving
// order — the mapping update for a shrink: survivors keep their original
// relative order (the OMPI_Comm_shrink contract).
func removeIdx(cur []int, failed []int) []int {
	if cur == nil {
		return nil
	}
	dead := make(map[int]bool, len(failed))
	for _, f := range failed {
		dead[f] = true
	}
	out := make([]int, 0, len(cur)-len(failed))
	for i, v := range cur {
		if !dead[i] {
			out = append(out, v)
		}
	}
	return out
}
