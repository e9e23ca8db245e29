package core

import (
	"fmt"
	"sort"

	"ftsg/internal/combine"
	"ftsg/internal/ftcomb"
	"ftsg/internal/grid"
	"ftsg/internal/mpi"
	"ftsg/internal/recovery"
)

// modeCtx is one rank's view of a non-spawn recovery mode's run state: the
// mapping from current communicator positions to original ranks, the
// original ranks that left permanent holes (shrunk out, never replaced), and
// the sub-grids abandoned as a consequence. Survivors evolve it locally from
// each repair's results and verify it against rank 0's broadcast; claimed
// spares adopt the broadcast wholesale. It is nil for spawn-mode runs, whose
// code paths are untouched.
type modeCtx struct {
	mode      recovery.Mode
	nprocs    int          // original communicator size
	origOf    []int        // original rank behind each current comm position
	dead      map[int]bool // original ranks shrunk out without replacement
	failed    map[int]bool // original ranks that failed (replaced or not)
	abandoned map[int]bool // sub-grid IDs abandoned (no data, coeff redistributed)
	fallbacks int          // substitute rounds degraded to shrink (spares exhausted)
}

func newModeCtx(mode recovery.Mode, nprocs int) *modeCtx {
	origOf := make([]int, nprocs)
	for i := range origOf {
		origOf[i] = i
	}
	return &modeCtx{
		mode:      mode,
		nprocs:    nprocs,
		origOf:    origOf,
		dead:      make(map[int]bool),
		failed:    make(map[int]bool),
		abandoned: make(map[int]bool),
	}
}

// traceRank returns the stable timeline identity of the calling process:
// the comm rank under spawn (positions never move), the original rank under
// a non-spawn mode. Shrink renumbers comm positions mid-run, so labeling
// spans with world.Rank() would put two different processes on the same
// trace track — and their same-instant spans would interleave by real
// scheduling order, breaking byte-identical replay.
func traceRank(world *mpi.Comm, mc *modeCtx) int {
	if mc != nil {
		return mc.origOf[world.Rank()]
	}
	return world.Rank()
}

// commRankOf returns the current communicator rank of an original rank, or
// -1 when it has been shrunk out.
func (mc *modeCtx) commRankOf(orig int) int {
	for i, o := range mc.origOf {
		if o == orig {
			return i
		}
	}
	return -1
}

// holed reports whether the grid has at least one permanently missing
// member.
func (mc *modeCtx) holed(g SubGrid) bool {
	for r := g.FirstRank; r < g.FirstRank+g.Procs; r++ {
		if mc.dead[r] {
			return true
		}
	}
	return false
}

// adopt installs rank 0's broadcast state (claimed spares joining mid-run
// have no history of their own): the position mapping, the abandoned set,
// the current event's failed ranks, and the hole set derived as the
// complement of the mapping (a hole implies a failure, so the holes fold
// into the failure history too).
func (mc *modeCtx) adopt(origOf, abandoned, failed []int) {
	mc.origOf = append([]int(nil), origOf...)
	present := make(map[int]bool, len(origOf))
	for _, o := range origOf {
		present[o] = true
	}
	for r := 0; r < mc.nprocs; r++ {
		if !present[r] {
			mc.dead[r] = true
			mc.failed[r] = true
		}
	}
	for _, f := range failed {
		mc.failed[f] = true
	}
	for _, id := range abandoned {
		mc.abandoned[id] = true
	}
}

// failedRanks returns every original rank that has failed so far —
// replaced or not — ascending. Unlike the spawn path's first-event report,
// the mode context unions across failure events.
func (mc *modeCtx) failedRanks() []int {
	out := make([]int, 0, len(mc.failed))
	for r := range mc.failed {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// abandonedList returns the abandoned grid IDs, ascending.
func (mc *modeCtx) abandonedList() []int {
	out := make([]int, 0, len(mc.abandoned))
	for id := range mc.abandoned {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// applyEvent folds one repair event into the context: origOf is the
// post-repair position mapping, failedList the original ranks lost in the
// event (both from recovery.ReconstructMode). It updates the hole and
// abandoned sets and returns the sub-grid IDs to actively recover this
// event. Every survivor derives identical results from identical inputs;
// rank 0's broadcast lets the others verify.
func (rs *runState) applyEvent(mc *modeCtx, origOf, failedList []int) []int {
	mc.origOf = append(mc.origOf[:0], origOf...)
	present := make(map[int]bool, len(origOf))
	for _, o := range origOf {
		present[o] = true
	}
	for _, f := range failedList {
		mc.failed[f] = true
		if !present[f] {
			mc.dead[f] = true
		}
	}
	damaged := rs.lostGridIDs(failedList)
	var recoverIDs []int
	for _, id := range damaged {
		if mc.abandoned[id] {
			continue
		}
		if rs.abandonGrid(mc, rs.grids[id]) {
			mc.abandoned[id] = true
			continue
		}
		recoverIDs = append(recoverIDs, id)
	}
	sort.Ints(recoverIDs)
	return recoverIDs
}

// activeRecoverIDs returns the damaged grids actively recovered in the
// event that lost failedList — the damaged set minus the abandoned set,
// which is exactly what applyEvent returns for survivors. Attached children
// receive the abandoned set by broadcast instead of deriving it, so they
// recompute the same list here. Nil-safe: spawn mode recovers per
// lostGridIDs and passes none.
func (rs *runState) activeRecoverIDs(mc *modeCtx, failedList []int) []int {
	if mc == nil {
		return nil
	}
	var out []int
	for _, id := range rs.lostGridIDs(failedList) {
		if !mc.abandoned[id] {
			out = append(out, id)
		}
	}
	return out
}

// abandonGrid decides whether a grid damaged by the current event is
// abandoned or recovered. No-repair never recovers, and Alternate
// Combination's only recovery mechanism IS abandonment (coefficients are
// redistributed over the survivors), so both abandon every damaged grid.
// For CR and RC a grid with no holes — every lost member was substituted —
// recovers exactly like spawn; a grid whose members are all gone has nobody
// left to hold data. Otherwise the technique decides what a shrunken group
// can rebuild: CR recomputes from the initial condition, RC copies from its
// partner if that partner is still usable.
func (rs *runState) abandonGrid(mc *modeCtx, g SubGrid) bool {
	if mc.mode == recovery.ModeNoRepair {
		return true
	}
	if rs.cfg.Technique == AlternateCombination {
		return true
	}
	if !mc.holed(g) {
		return false
	}
	allDead := true
	for r := g.FirstRank; r < g.FirstRank+g.Procs; r++ {
		if !mc.dead[r] {
			allDead = false
			break
		}
	}
	if allDead {
		return true
	}
	switch rs.cfg.Technique {
	case CheckpointRestart:
		return false
	default: // ResamplingCopying
		if g.Role == RoleDuplicate {
			// Duplicates exist only as copy sources; a holed duplicate is
			// written off (and recorded, so a later loss of its primary is
			// not "recovered" from a grid with holes).
			return true
		}
		p, _, err := recoveryPartner(rs.grids, g)
		if err != nil {
			return true
		}
		return mc.abandoned[p.ID] || mc.holed(p)
	}
}

// liveRootOf returns the lowest surviving original rank of the grid — the
// rank that holds position 0 of the grid's group communicator after every
// shrink (Split orders by original rank) — or -1 when none survives.
func (mc *modeCtx) liveRootOf(g SubGrid) int {
	for r := g.FirstRank; r < g.FirstRank+g.Procs; r++ {
		if !mc.dead[r] {
			return r
		}
	}
	return -1
}

// survivorScheme returns the combination scheme over the non-abandoned
// grids: the classic coefficients when nothing is abandoned, otherwise the
// hole-tolerant scheme over the surviving levels (duplicates never carry
// coefficients and are excluded from both sides).
func (rs *runState) survivorScheme(mc *modeCtx) (combine.Scheme, error) {
	if len(mc.abandoned) == 0 {
		return rs.cfg.Layout.Classic(), nil
	}
	held := make([]grid.Level, 0, len(rs.grids))
	lost := ftcomb.NewSet()
	for _, sg := range rs.grids {
		if sg.Role == RoleDuplicate {
			continue
		}
		held = append(held, sg.Lv)
		if mc.abandoned[sg.ID] {
			lost[sg.Lv] = true
		}
	}
	scheme, err := ftcomb.SurvivorScheme(held, lost)
	if err != nil {
		return nil, fmt.Errorf("core: %v survivor scheme: %w", rs.cfg.RecoveryMode, err)
	}
	return scheme, nil
}

// syncRecoveryInfoMode is the non-spawn analogue of syncRecoveryInfo: rank 0
// broadcasts the detection step, the event's failed original ranks, the
// cumulative abandoned grid set, and the full position-to-original-rank
// mapping, so claimed spares can reconstruct the run state and every
// survivor can verify its locally derived copy. The spawn-mode broadcast
// format is untouched.
func syncRecoveryInfoMode(world *mpi.Comm, step int, failed, abandoned, origOf []int) (int, []int, []int, []int, error) {
	var buf []int
	if world.Rank() == 0 {
		buf = append(buf, step, len(failed))
		buf = append(buf, failed...)
		buf = append(buf, len(abandoned))
		buf = append(buf, abandoned...)
		buf = append(buf, origOf...)
	}
	out, err := mpi.Bcast(world, 0, buf)
	if err != nil || len(out) < 2 {
		return 0, nil, nil, nil, fmt.Errorf("core: broadcast recovery info: %w", err)
	}
	nf := out[1]
	if len(out) < 3+nf {
		return 0, nil, nil, nil, fmt.Errorf("core: malformed recovery info (%d ints, %d failed)", len(out), nf)
	}
	failed = out[2 : 2+nf]
	na := out[2+nf]
	if len(out) < 3+nf+na+world.Size() {
		return 0, nil, nil, nil, fmt.Errorf("core: malformed recovery info (%d ints, %d failed, %d abandoned, size %d)",
			len(out), nf, na, world.Size())
	}
	abandoned = out[3+nf : 3+nf+na]
	origOf = out[3+nf+na:]
	if len(origOf) != world.Size() {
		return 0, nil, nil, nil, fmt.Errorf("core: recovery info maps %d positions for a size-%d communicator",
			len(origOf), world.Size())
	}
	return out[0], failed, abandoned, origOf, nil
}
