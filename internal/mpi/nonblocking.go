package mpi

import (
	"errors"
	"fmt"

	"ftsg/internal/vtime"
)

// This file implements nonblocking point-to-point communication:
// MPI_Isend / MPI_Irecv / MPI_Wait / MPI_Waitall, plus MPI_Probe and
// MPI_Iprobe. Posted receives are matched in posting order against arriving
// sends (a per-process posted-receive set, indexed by signature), exactly
// as the MPI matching rules require, so overlapping halo exchanges behave
// like the real thing.

// Request represents an outstanding nonblocking operation, mirroring
// MPI_Request. A send request is complete at creation (the runtime buffers
// eagerly); a receive request completes when a matching message arrives.
// done/env/status/err are guarded by the owning process's mailbox lock
// until completion; afterwards only the owner touches them.
type Request struct {
	c    *Comm
	src  int // requested source (receives only)
	tag  int
	recv bool

	done   bool
	env    *envelope
	status Status
	err    error

	pseq  uint64   // posting order, for the indexed posted set
	pnext *Request // intrusive link in its posted queue
}

// Isend starts a nonblocking send. The runtime buffers eagerly, so the
// returned request is already complete; Wait only reports the send status.
// The data slice is copied at call time, as if MPI_Isend's buffer were
// reusable immediately (an eager-protocol guarantee).
func Isend[T any](c *Comm, dest, tag int, data []T) (*Request, error) {
	if tag < 0 {
		return nil, c.fire(fmt.Errorf("mpi: Isend: negative tag %d is reserved: %w", tag, ErrComm))
	}
	err := sendRaw(c, dest, tag, data)
	req := &Request{c: c, tag: tag, done: true, err: err}
	if err != nil {
		return req, c.fire(err)
	}
	return req, nil
}

// IsendOwned is Isend with SendOwned's ownership-transfer semantics: the
// slice's array is handed to the transport uncopied and must not be touched
// by the caller afterwards.
func IsendOwned[T any](c *Comm, dest, tag int, data []T) (*Request, error) {
	if tag < 0 {
		return nil, c.fire(fmt.Errorf("mpi: IsendOwned: negative tag %d is reserved: %w", tag, ErrComm))
	}
	err := sendOwned(c, dest, tag, data)
	req := &Request{c: c, tag: tag, done: true, err: err}
	if err != nil {
		return req, c.fire(err)
	}
	return req, nil
}

// Irecv posts a nonblocking receive. If a matching message is already
// buffered it completes immediately; otherwise the request joins the
// process's posted set and is matched in posting order as messages
// arrive.
func Irecv[T any](c *Comm, src, tag int) (*Request, error) {
	if tag < 0 && tag != AnyTag {
		return nil, c.fire(fmt.Errorf("mpi: Irecv: negative tag %d is reserved: %w", tag, ErrComm))
	}
	st := c.p.st
	req := &Request{c: c, src: src, tag: tag, recv: true}

	if c.sawRevoked {
		req.done = true
		req.err = ErrRevoked
		return req, nil
	}
	st.mu.Lock()
	if env := st.mb.take(c.sh.id, src, tag); env != nil {
		req.complete(env)
	} else {
		st.posted.add(req)
	}
	st.mu.Unlock()
	return req, nil
}

// complete fills a receive request from an envelope. Caller holds the
// receiving process's mu (or the envelope is exclusively owned).
func (r *Request) complete(env *envelope) {
	r.done = true
	r.env = env
	r.status = Status{Source: env.src, Tag: env.tag, Bytes: env.bytes}
}

// Wait blocks until the request completes and returns its payload (nil for
// sends). The type parameter must match the matching send's element type.
func Wait[T any](r *Request) ([]T, Status, error) {
	c := r.c
	st := c.p.st
	w := st.w

	st.mu.Lock()
	for !r.done {
		e := st.epoch
		st.mu.Unlock()
		v := recvVerdict(c, r.src, r.tag, false)
		revoked := v.err == nil && c.sh.revoked.Load()
		if revoked {
			st.mu.Lock()
			if r.done {
				st.mu.Unlock()
				break
			}
			st.waitSh, st.waitReq = c.sh, r
			st.mu.Unlock()
			if !revokedDeadlock(c, st.wrank) {
				revoked = false
			}
		}
		st.mu.Lock()
		if r.done {
			// A racing send completed the request while we evaluated the
			// failure conditions; program order says it was sent first.
			st.waitSh, st.waitReq = nil, nil
			break
		}
		if v.err != nil || revoked {
			r.done = true
			r.err = v.err
			if revoked {
				r.err = ErrRevoked
			}
			st.posted.remove(r)
			st.waitSh, st.waitReq = nil, nil
			break
		}
		if st.epoch == e {
			st.waitSh, st.waitReq = c.sh, r
			st.cond.Wait()
		}
		st.waitSh, st.waitReq = nil, nil
	}
	env := r.env
	err := r.err
	stt := r.status
	st.mu.Unlock()

	if env != nil {
		st.clock.SyncTo(env.arrival)
		st.clock.AdvanceAttr(w.machine.RecvOverhead, vtime.CompORecv)
		w.wm.countRecv(st.wrank, env.bytes)
	}
	if err != nil {
		return nil, stt, c.fire(err)
	}
	if env == nil {
		return nil, stt, nil // completed send
	}
	data, ok := payload[T](env)
	if !ok {
		return nil, stt, c.fire(fmt.Errorf("mpi: Wait: message holds []%v: %w", env.etype, ErrType))
	}
	return data, stt, nil
}

// Waitall waits for every request, returning the first error encountered
// (all requests are drained regardless). Payloads are discarded; use Wait
// for receives whose data matters.
func Waitall(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if _, _, err := Wait[byte](r); err != nil {
			// A type mismatch here only means the payload was not []byte;
			// that is expected for Waitall, which discards data.
			if first == nil && !errors.Is(err, ErrType) {
				first = err
			}
		}
	}
	return first
}

// Test reports whether the request has completed, without blocking
// (MPI_Test without the status output).
func (r *Request) Test() bool {
	st := r.c.p.st
	st.mu.Lock()
	defer st.mu.Unlock()
	return r.done
}

// Probe blocks until a matching message is available and returns its
// status without receiving it (MPI_Probe). It reports the same failure
// conditions as Recv.
func (c *Comm) Probe(src, tag int) (Status, error) {
	st := c.p.st
	if c.sawRevoked {
		return Status{}, c.fire(ErrRevoked)
	}
	probe := func() (Status, bool) {
		if env := st.mb.peek(c.sh.id, src, tag); env != nil {
			stt := Status{Source: env.src, Tag: env.tag, Bytes: env.bytes}
			st.clock.SyncTo(env.arrival)
			return stt, true
		}
		return Status{}, false
	}
	for {
		st.mu.Lock()
		stt, ok := probe()
		e := st.epoch
		st.mu.Unlock()
		if ok {
			return stt, nil
		}

		if v := recvVerdict(c, src, tag, false); v.err != nil {
			st.mu.Lock()
			stt, ok = probe()
			st.mu.Unlock()
			if ok {
				return stt, nil
			}
			return Status{}, c.fire(v.err)
		}

		if c.sh.revoked.Load() {
			st.mu.Lock()
			st.waitSh, st.waitSrc, st.waitTag, st.waitReq = c.sh, src, tag, nil
			st.mu.Unlock()
			if revokedDeadlock(c, st.wrank) {
				st.mu.Lock()
				stt, ok = probe()
				st.waitSh = nil
				st.mu.Unlock()
				if ok {
					return stt, nil
				}
				return Status{}, c.fire(ErrRevoked)
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

// Iprobe reports whether a matching message is available, without blocking
// (MPI_Iprobe).
func (c *Comm) Iprobe(src, tag int) (bool, Status, error) {
	st := c.p.st
	if c.sawRevoked {
		return false, Status{}, ErrRevoked
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if env := st.mb.peek(c.sh.id, src, tag); env != nil {
		return true, Status{Source: env.src, Tag: env.tag, Bytes: env.bytes}, nil
	}
	return false, Status{}, nil
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv), the idiom
// of halo exchanges: both transfers proceed concurrently, so it cannot
// deadlock against a partner doing the mirror-image call.
func Sendrecv[S, R any](c *Comm, dest, sendTag int, data []S, src, recvTag int) ([]R, Status, error) {
	if err := Send(c, dest, sendTag, data); err != nil {
		return nil, Status{}, err
	}
	return Recv[R](c, src, recvTag)
}

// Waitany blocks until at least one of the requests completes and returns
// its index (MPI_Waitany). The caller extracts the payload with Wait on
// that request (which returns immediately once complete). It returns -1 for
// an empty request list.
func Waitany(reqs ...*Request) int {
	if len(reqs) == 0 {
		return -1
	}
	c := reqs[0].c
	st := c.p.st
	w := st.w
	for {
		st.mu.Lock()
		for i, r := range reqs {
			if r.done {
				st.mu.Unlock()
				return i
			}
		}
		e := st.epoch
		st.mu.Unlock()

		// A request whose failure condition already holds completes with
		// its error; these are the same named-source conditions Wait uses.
		for i, r := range reqs {
			if !r.recv || r.src == AnySource {
				continue
			}
			var verr error
			pw, err := r.c.peerWorld(r.src)
			switch {
			case err != nil:
				verr = err
			case r.c.sh.revoked.Load() && quiescedPeer(w, r.c, pw):
				verr = ErrRevoked
			case !w.alive(pw):
				verr = failedErr(r.src, -1)
			}
			if verr == nil {
				continue
			}
			st.mu.Lock()
			if !r.done {
				r.done = true
				r.err = verr
				r.c.p.st.posted.remove(r)
			}
			st.mu.Unlock()
			return i
		}

		st.mu.Lock()
		if st.epoch == e {
			st.cond.Wait()
		}
		st.mu.Unlock()
	}
}

// quiescedPeer reports whether world rank pw has quiesced on c's revoked
// communicator.
func quiescedPeer(w *World, c *Comm, pw int) bool {
	w.state.RLock()
	q := c.sh.quiesced[pw]
	w.state.RUnlock()
	return q
}
