package mpi

import (
	"fmt"
	"sort"

	"ftsg/internal/vtime"
)

// Wildcards, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG. User tags must be
// non-negative; negative tags are reserved for internal collective traffic
// (AnyTag never matches them).
const (
	AnySource = -1
	AnyTag    = -1
)

// internal tag space for collectives; see internalTag.
const internalTagBase = 1000

// Status mirrors MPI_Status.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Send posts a message to rank dest of the communicator (the remote group
// for an intercommunicator). The runtime buffers eagerly, so Send never
// blocks; it returns MPI_ERR_PROC_FAILED if the destination is already dead
// and MPI_ERR_REVOKED on a revoked communicator. User tags must be >= 0.
func Send[T any](c *Comm, dest, tag int, data []T) error {
	if tag < 0 {
		return c.fire(fmt.Errorf("mpi: Send: negative tag %d is reserved: %w", tag, ErrComm))
	}
	return c.fire(sendRaw(c, dest, tag, data))
}

// SendOne sends a single value.
func SendOne[T any](c *Comm, dest, tag int, v T) error {
	return Send(c, dest, tag, []T{v})
}

// SendOwned sends data without copying it, transferring ownership of the
// slice's array to the runtime (and ultimately to the receiver). The caller
// must not read or write data after the call — typically the slice comes
// from AcquireBuf, and a cooperating receiver hands it back with
// ReleaseBuf. This is the zero-copy fast path for large payloads (gathered
// sub-grids, reduction buffers); Send's copying semantics remain the safe
// default.
func SendOwned[T any](c *Comm, dest, tag int, data []T) error {
	if tag < 0 {
		return c.fire(fmt.Errorf("mpi: SendOwned: negative tag %d is reserved: %w", tag, ErrComm))
	}
	return c.fire(sendOwned(c, dest, tag, data))
}

func sendRaw[T any](c *Comm, dest, tag int, data []T) error {
	return sendEnv(c, dest, tag, data, false)
}

func sendOwned[T any](c *Comm, dest, tag int, data []T) error {
	return sendEnv(c, dest, tag, data, true)
}

// sendEnv implements the eager send. owned hands the slice itself to the
// transport (dropped sends recycle it into the typed pool); otherwise the
// payload is copied into transport-owned memory (slab or pool; see copyIn).
// The only lock taken on the failure-free path is the destination's
// mailbox mutex.
func sendEnv[T any](c *Comm, dest, tag int, data []T, owned bool) error {
	st := c.p.st
	w := st.w
	st.hookOp(OpSend)

	// A send fails on revocation only once the sender itself has observed
	// it (program order): sends are eager and never block, so consulting
	// the shared revoked flag here would make the outcome depend on the
	// wall-clock moment another rank's Revoke became visible.
	if c.sawRevoked {
		if owned {
			putBuf(data)
		}
		return ErrRevoked
	}
	dw, err := c.peerWorld(dest)
	if err != nil {
		if owned {
			putBuf(data)
		}
		return err
	}
	st.clock.AdvanceAttr(w.machine.SendOverhead, vtime.CompOSend)
	bytes := len(data) * elemSize[T]()
	// The LogGP charge depends on where the endpoints sit: same host
	// (shared memory), same rack (the fabric), or across racks. host and
	// rack are immutable, so reading the destination's placement is safe
	// without its lock.
	dst := w.proc(dw)
	tier := vtime.TierRack
	if dst.host == st.host {
		tier = vtime.TierNode
	} else if dst.rack != st.rack {
		tier = vtime.TierXRack
	}
	if wm := w.wm; wm != nil {
		wm.countSend(st.wrank, bytes)
		wm.countHop(st.curOp, tier)
		wm.ObserveCost(vtime.CompAlpha, w.linkAlpha[tier])
		wm.ObserveCost(vtime.CompBeta, float64(bytes)*w.linkBeta[tier])
		wm.observeOp("send", w.machine.SendOverhead)
	}
	// An eager buffered send completes locally even when the destination is
	// already dead or has exited: whether the sender's goroutine runs before
	// or after the victim's sets the (wall-clock) death flag must not change
	// the outcome, so death is never reported at the send call — the message
	// is lost on the wire, and the failure surfaces at subsequent receives
	// and collectives, whose checks follow the peer's program order. This is
	// the ULFM contract too: local completion of a buffered send guarantees
	// nothing about delivery.
	if !dst.alive.Load() {
		if owned {
			putBuf(data)
		}
		return nil
	}
	env := getEnv()
	env.commID, env.src, env.tag = c.sh.id, c.rank, tag
	env.bytes = bytes
	env.arrival = st.clock.Now() + w.linkAlpha[tier] + float64(bytes)*w.linkBeta[tier]
	if owned {
		setPayload(env, data)
	} else {
		copyIn(env, st, data)
	}
	dst.mu.Lock()
	if req := dst.posted.matchArrival(env); req != nil {
		req.complete(env)
	} else {
		dst.mb.push(env)
	}
	dst.notifyLocked()
	dst.mu.Unlock()
	return nil
}

// Recv receives a message from rank src (or AnySource) with the given tag
// (or AnyTag) on the communicator. It blocks until a matching message
// arrives, and returns MPI_ERR_PROC_FAILED when a named source is dead,
// MPI_ERR_PENDING for a wildcard receive while the communicator has
// unacknowledged failures (the ULFM failure_ack contract), and
// MPI_ERR_REVOKED on a revoked communicator.
func Recv[T any](c *Comm, src, tag int) ([]T, Status, error) {
	if tag < 0 && tag != AnyTag {
		var zero []T
		return zero, Status{}, c.fire(fmt.Errorf("mpi: Recv: negative tag %d is reserved: %w", tag, ErrComm))
	}
	data, stt, err := recvRaw[T](c, src, tag, false)
	return data, stt, c.fire(err)
}

// RecvOne receives a single value.
func RecvOne[T any](c *Comm, src, tag int) (T, Status, error) {
	var zero T
	data, stt, err := Recv[T](c, src, tag)
	if err != nil {
		return zero, stt, err
	}
	if len(data) != 1 {
		return zero, stt, c.fire(fmt.Errorf("mpi: RecvOne: got %d values: %w", len(data), ErrType))
	}
	return data[0], stt, nil
}

// recvRaw is the matching engine shared by user receives and internal
// collective receives (internal=true additionally honours collective abort
// records, which propagate collective failure without deadlock).
//
// The priority order — matching message, then the source's recorded abort,
// then the source's death, then the source's quiesce after revocation —
// mirrors the source's own program order (a rank sends before it aborts or
// quiesces, and either precedes its death), so the receiver's outcome is a
// function of the source's virtual-time history alone, independent of
// wall-clock scheduling.
//
// Locking: the mailbox check takes only the caller's own mu; the failure
// checks are lock-free or take a brief state read lock (see recvVerdict).
// Because message and verdict are no longer inspected under one big lock,
// any verdict is followed by a mandatory mailbox re-check: the source's
// mailbox insert happens-before the global-state write the verdict read, so
// a matching message that raced in is visible by then and wins, exactly as
// it did under the old priority loop.
func recvRaw[T any](c *Comm, src, tag int, internal bool) ([]T, Status, error) {
	st := c.p.st
	w := st.w
	st.hookOp(OpRecv)
	t0 := st.clock.Now()
	if c.sawRevoked {
		return nil, Status{}, ErrRevoked
	}
	for {
		st.mu.Lock()
		env := st.mb.take(c.sh.id, src, tag)
		e := st.epoch
		st.mu.Unlock()
		if env != nil {
			return deliver[T](c, env, internal, t0)
		}

		if v := recvVerdict(c, src, tag, internal); v.err != nil {
			st.mu.Lock()
			env = st.mb.take(c.sh.id, src, tag)
			st.mu.Unlock()
			if env != nil {
				return deliver[T](c, env, internal, t0)
			}
			if v.abort {
				// The peer bailed out of this collective instance and
				// will never send; model the failure notification as one
				// wire latency from its abort point.
				st.clock.SyncTo(v.at + w.machine.Alpha)
				st.clock.AdvanceAttr(w.machine.RecvOverhead, vtime.CompORecv)
			}
			return nil, Status{}, v.err
		}

		if c.sh.revoked.Load() {
			// Register as blocked on this communicator before running the
			// detector, so that when the last runnable members head for
			// their final park "simultaneously", whichever takes the
			// detector's atomic snapshot last sees all the others already
			// registered and resolves the group.
			st.mu.Lock()
			st.waitSh, st.waitSrc, st.waitTag, st.waitReq = c.sh, src, tag, nil
			st.mu.Unlock()
			if revokedDeadlock(c, st.wrank) {
				st.mu.Lock()
				env = st.mb.take(c.sh.id, src, tag)
				st.waitSh = nil
				st.mu.Unlock()
				if env != nil {
					return deliver[T](c, env, internal, t0)
				}
				return nil, Status{}, ErrRevoked
			}
		}

		st.mu.Lock()
		if st.epoch == e {
			st.waitSh, st.waitSrc, st.waitTag, st.waitReq = c.sh, src, tag, nil
			st.cond.Wait()
		}
		st.waitSh = nil
		st.mu.Unlock()
	}
}

// deliver completes a matched receive: virtual-time sync, accounting, and
// payload extraction. The envelope is recycled; its buffer becomes the
// caller's.
func deliver[T any](c *Comm, env *envelope, internal bool, t0 float64) ([]T, Status, error) {
	st := c.p.st
	w := st.w
	st.clock.SyncTo(env.arrival)
	st.clock.AdvanceAttr(w.machine.RecvOverhead, vtime.CompORecv)
	if wm := w.wm; wm != nil {
		wm.countRecv(st.wrank, env.bytes)
		if !internal {
			wm.observeOp("recv", st.clock.Now()-t0)
		}
	}
	data, ok := payload[T](env)
	if !ok {
		err := fmt.Errorf("mpi: Recv: message holds []%v: %w", env.etype, ErrType)
		putEnv(env)
		return nil, Status{}, err
	}
	stt := Status{Source: env.src, Tag: env.tag, Bytes: env.bytes}
	putEnv(env)
	return data, stt, nil
}

// verdict is the outcome of a receive's failure checks.
type verdict struct {
	err   error
	abort bool    // err reports a recorded collective abort...
	at    float64 // ...at this virtual time
}

// recvVerdict evaluates, in program-order priority, the conditions under
// which a receive must stop waiting: the named source's recorded collective
// abort (internal receives only), its quiesce on a revoked communicator,
// its death; or, for a wildcard receive, unacknowledged failures in the
// group. Lock-free in the failure-free case: group membership is immutable,
// liveness is atomic, and the abort/quiesce maps are consulted (under a
// state read lock) only once their atomic gate flags say there is something
// to see. Must be called without any transport lock held.
func recvVerdict(c *Comm, src, tag int, internal bool) verdict {
	w := c.p.st.w
	if src != AnySource {
		pw, err := c.peerWorld(src)
		if err != nil {
			return verdict{err: err}
		}
		if internal && c.sh.hasAborts.Load() {
			w.state.RLock()
			at, ok := c.sh.aborts[tag][pw]
			w.state.RUnlock()
			if ok {
				return verdict{err: failedErr(-1, -1), abort: true, at: at}
			}
		}
		if c.sh.revoked.Load() {
			w.state.RLock()
			q := c.sh.quiesced[pw]
			w.state.RUnlock()
			if q {
				return verdict{err: ErrRevoked}
			}
		}
		if !w.alive(pw) {
			return verdict{err: failedErr(src, pw)}
		}
	} else if hasUnacked(w, c) {
		return verdict{err: ErrPending}
	}
	return verdict{}
}

// revokedDeadlock reports whether, on a revoked communicator, every other
// live non-quiesced member is blocked receiving on the same communicator
// with no pending resolution (no matchable message already delivered). At
// that point no member can ever send again, so the whole group must resolve
// to MPI_ERR_REVOKED — the asynchronous interruption MPI_Comm_revoke
// guarantees. Whether the group reaches this state is a function of each
// member's deterministic operation sequence, so the fallback preserves
// run-to-run determinism.
//
// The check takes an atomic snapshot: World.state freezes membership,
// quiesce and liveness transitions, and every member's mu (ascending world
// rank — the one place multiple process locks are held) freezes their
// parked state. A non-atomic scan could assemble a view that never existed
// at any instant and nondeterministically resolve a live group. Caller
// must hold no transport lock.
func revokedDeadlock(c *Comm, self int) bool {
	w := c.p.st.w
	w.state.Lock()
	locked := c.sh.lockOrder
	if locked == nil {
		ps := w.snapshot()
		members := c.allMembers()
		locked = make([]*procState, 0, len(members))
		for _, wr := range members {
			locked = append(locked, ps[wr])
		}
		sort.Slice(locked, func(i, j int) bool { return locked[i].wrank < locked[j].wrank })
		c.sh.lockOrder = locked
	}
	for _, q := range locked {
		q.mu.Lock()
	}
	dead := true
	for _, q := range locked {
		if q.wrank == self || !q.alive.Load() || c.sh.quiesced[q.wrank] {
			continue
		}
		if q.waitSh != c.sh {
			dead = false // not blocked on this communicator; it may still send
			break
		}
		if q.waitReq != nil {
			if q.waitReq.done {
				dead = false // a send already completed it; it will run on
				break
			}
		} else if q.mb.peek(c.sh.id, q.waitSrc, q.waitTag) != nil {
			dead = false // a matchable message is waiting; it will consume it
			break
		} else if pendingRecvVerdict(w, c.sh, q) {
			// The member's receive already has a failure resolution
			// recorded (source abort/quiesce/death); the wake is merely in
			// flight. Counting it as stuck would resolve the group early
			// at a wall-clock-dependent moment — the member must instead
			// error out of its collective along the deterministic
			// program-order chain.
			dead = false
			break
		}
	}
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].mu.Unlock()
	}
	w.state.Unlock()
	return dead
}

// pendingRecvVerdict reports whether a member parked on a receive already
// has a failure resolution recorded — a collective abort by its source for
// its instance tag, its source's quiesce, or its source's death. Such a
// member is about to be woken and must not be counted as permanently
// stuck by revokedDeadlock. Wildcard receives are conservatively treated
// as stuck: their resolution depends on per-handle ack state the detector
// cannot see, and no collective uses them. Caller holds World.state and
// q.mu.
func pendingRecvVerdict(w *World, sh *commShared, q *procState) bool {
	src := q.waitSrc
	if src == AnySource {
		return false
	}
	// Resolve the source's world rank: the remote group for an
	// intercommunicator member, the (only) group otherwise.
	g := sh.a
	if sh.b != nil && Group(sh.a).Rank(q.wrank) >= 0 {
		g = sh.b
	}
	if src < 0 || src >= len(g) {
		return false
	}
	pw := g[src]
	if _, ok := sh.aborts[q.waitTag][pw]; ok {
		return true
	}
	if sh.quiesced[pw] {
		return true
	}
	return !w.alive(pw)
}

// hasUnacked reports whether the communicator has failed members not yet
// acknowledged via FailureAck on this handle.
func hasUnacked(w *World, c *Comm) bool {
	for _, wr := range c.allMembers() {
		if w.alive(wr) {
			continue
		}
		acked := false
		for _, a := range c.acked {
			if a == wr {
				acked = true
				break
			}
		}
		if !acked {
			return true
		}
	}
	return false
}

// abortCollective records that the caller bailed out of collective instance
// (comm, tag) and wakes every other member, guaranteeing that peers blocked
// inside the same collective observe MPI_ERR_PROC_FAILED instead of
// deadlocking — the behaviour the paper relies on when using MPI_Barrier for
// failure detection. The abort is a per-instance record rather than an
// injected message so that a receiver consults only the fate of the specific
// peer it awaits; mailbox arrival order (wall-clock dependent) never decides
// the outcome.
func abortCollective(c *Comm, tag int) {
	st := c.p.st
	w := st.w
	w.state.Lock()
	if c.sh.aborts == nil {
		c.sh.aborts = make(map[int]map[int]float64)
	}
	m := c.sh.aborts[tag]
	if m == nil {
		m = make(map[int]float64)
		c.sh.aborts[tag] = m
	}
	if _, ok := m[st.wrank]; !ok {
		m[st.wrank] = st.clock.Now()
	}
	c.sh.hasAborts.Store(true)
	w.wakeRanks(c.allMembers())
	w.state.Unlock()
}

// internalTag builds the reserved tag for collective kind k, instance seq.
func internalTag(kind, seq int) int {
	return -(internalTagBase + seq*16 + kind)
}
