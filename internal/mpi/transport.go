package mpi

// This file is the data plane of the sharded transport: pooled envelopes
// with an unboxed payload representation, per-(comm,src,tag) indexed match
// queues for mailboxes and posted receives, a per-sender slab allocator for
// small eager-send copies, and a typed buffer pool backing the zero-copy
// ownership-transfer path (SendOwned / AcquireBuf / ReleaseBuf). The
// locking hierarchy that coordinates it lives in world.go; buffer-ownership
// rules are documented in DESIGN.md ("Transport").

import (
	"reflect"
	"sync"
	"unsafe"
)

// eagerThreshold is the payload size (bytes) at which the copying send path
// switches from the per-sender slab to the typed buffer pool: larger copies
// are worth a pooled allocation that internal receivers can recycle, and
// the application layers switch to SendOwned/AcquireBuf above it to avoid
// the copy entirely. It is also the smallest buffer ReleaseBuf keeps —
// below it, reallocating is cheaper than pooling.
const eagerThreshold = 4 << 10

// elemSize returns the in-memory size of T. Unlike the previous reflect
// lookup on data[0], it is a compile-time constant and correct for
// zero-length sends.
func elemSize[T any]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// typeOf returns the reflect.Type of T without boxing a value of T.
func typeOf[T any]() reflect.Type {
	return reflect.TypeOf((*T)(nil)).Elem()
}

// envelope is one in-flight message. The payload is stored unboxed — raw
// pointer, length, capacity and element type — so queueing a message
// allocates nothing and the receiver reconstructs its slice with a cast,
// not a copy. Envelopes are pooled: the receive path recycles them once
// the payload has been extracted.
type envelope struct {
	commID  int
	src     int // sender's rank in its local group
	tag     int
	ptr     unsafe.Pointer // first payload element (keeps the buffer alive)
	n       int            // payload length, in elements
	cp      int            // payload capacity, so pooled buffers keep their size
	etype   reflect.Type   // payload element type
	bytes   int
	arrival float64
	seq     uint64    // mailbox arrival order, for wildcard FIFO matching
	next    *envelope // intrusive link in its match queue
}

var envPool = sync.Pool{New: func() any { return new(envelope) }}

func getEnv() *envelope { return envPool.Get().(*envelope) }

// putEnv recycles an envelope. The payload reference is cleared so the pool
// never pins a buffer.
func putEnv(env *envelope) {
	*env = envelope{}
	envPool.Put(env)
}

// setPayload stores data in the envelope without copying: the envelope (and
// ultimately the receiver) takes ownership of the slice's array.
func setPayload[T any](env *envelope, data []T) {
	if len(data) > 0 {
		env.ptr = unsafe.Pointer(unsafe.SliceData(data))
	} else {
		env.ptr = nil
	}
	env.n = len(data)
	env.cp = cap(data)
	env.etype = typeOf[T]()
}

// payload reconstructs the typed slice from an envelope. It reports false
// on element-type mismatch (the receive-side MPI datatype check).
func payload[T any](env *envelope) ([]T, bool) {
	if env.etype != typeOf[T]() {
		return nil, false
	}
	if env.n == 0 {
		return nil, true
	}
	return unsafe.Slice((*T)(env.ptr), env.cp)[:env.n:env.cp], true
}

// copyIn copies data into transport-owned memory and stores it in env:
// small pointer-free payloads are carved from the sender's slab, large ones
// come from the typed buffer pool (so internal receivers can recycle
// them), and anything else gets a dedicated typed allocation.
func copyIn[T any](env *envelope, st *procState, data []T) {
	n := len(data)
	if n == 0 {
		setPayload(env, data)
		return
	}
	bytes := n * elemSize[T]()
	var dst []T
	switch {
	case bytes >= eagerThreshold:
		dst = getBuf[T](n)
	case pointerFreeKind(typeOf[T]()):
		dst = unsafe.Slice((*T)(st.sl.alloc(bytes)), n)
	default:
		dst = make([]T, n)
	}
	copy(dst, data)
	setPayload(env, dst)
}

// pointerFreeKind reports whether values of t contain no pointers the
// garbage collector must see, making them safe to store in the untyped
// slab memory.
func pointerFreeKind(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return true
	}
	return false
}

// slab is a per-sender bump allocator for small eager-send copies: many
// payloads share one chunk, so the steady-state copying send allocates
// (amortised) almost nothing. Chunks are untyped bytes, invisible to the
// garbage collector's pointer scans, so only pointer-free element types are
// carved from them (see copyIn). Carved regions are handed to receivers
// with len == cap, so neighbouring messages can never be reached through
// append. A chunk is freed by the GC once no delivered payload references
// it.
type slab struct {
	buf []byte
	off int
}

const slabChunk = 64 << 10

// alloc carves n bytes from the current chunk, 8-aligned (Go's maximum
// scalar alignment), growing a fresh chunk when exhausted.
func (s *slab) alloc(n int) unsafe.Pointer {
	n = (n + 7) &^ 7
	if s.off+n > len(s.buf) {
		c := slabChunk
		if n > c {
			c = n
		}
		s.buf = make([]byte, c)
		s.off = 0
	}
	p := unsafe.Pointer(unsafe.SliceData(s.buf[s.off:]))
	s.off += n
	return p
}

// mbKey indexes one (communicator, source rank, tag) match queue.
type mbKey struct{ comm, src, tag int }

// envQueue is a FIFO of envelopes sharing one (comm,src,tag) signature.
// Stored by value in the mailbox map so steady-state queue churn allocates
// nothing.
type envQueue struct{ head, tail *envelope }

// mailbox holds a process's undelivered messages, indexed by exact
// (comm,src,tag) signature. Exact receives are O(1); wildcard receives scan
// the occupied signatures and pick the globally oldest match by arrival
// sequence, which reproduces the FIFO semantics of the previous linear
// mailbox scan (AnyTag matches user tags only, as before). Guarded by the
// owning procState.mu.
type mailbox struct {
	q   map[mbKey]envQueue
	seq uint64 // next arrival sequence number
}

// push appends an arriving envelope to its signature's queue.
func (mb *mailbox) push(env *envelope) {
	if mb.q == nil {
		mb.q = make(map[mbKey]envQueue)
	}
	env.seq = mb.seq
	mb.seq++
	env.next = nil
	k := mbKey{env.commID, env.src, env.tag}
	q := mb.q[k]
	if q.tail == nil {
		q.head, q.tail = env, env
	} else {
		q.tail.next = env
		q.tail = env
	}
	mb.q[k] = q
}

// peek returns the message a receive of (comm,src,tag) would match next,
// without removing it.
func (mb *mailbox) peek(comm, src, tag int) *envelope {
	if len(mb.q) == 0 {
		return nil
	}
	if src != AnySource && tag != AnyTag {
		return mb.q[mbKey{comm, src, tag}].head
	}
	var best *envelope
	for k, q := range mb.q {
		if k.comm != comm {
			continue
		}
		if src != AnySource && k.src != src {
			continue
		}
		if tag == AnyTag {
			if k.tag < 0 {
				continue
			}
		} else if k.tag != tag {
			continue
		}
		if q.head != nil && (best == nil || q.head.seq < best.seq) {
			best = q.head
		}
	}
	return best
}

// take removes and returns the next matching message, or nil.
func (mb *mailbox) take(comm, src, tag int) *envelope {
	env := mb.peek(comm, src, tag)
	if env == nil {
		return nil
	}
	k := mbKey{env.commID, env.src, env.tag}
	q := mb.q[k]
	q.head = env.next
	if q.head == nil {
		delete(mb.q, k)
	} else {
		mb.q[k] = q
	}
	env.next = nil
	return env
}

// drain recycles every queued envelope (process death/exit).
func (mb *mailbox) drain() {
	for k, q := range mb.q {
		for env := q.head; env != nil; {
			n := env.next
			putEnv(env)
			env = n
		}
		delete(mb.q, k)
	}
}

// reqQueue is a FIFO of posted receives sharing one signature.
type reqQueue struct{ head, tail *Request }

// postedSet indexes a process's posted nonblocking receives by their
// (comm, src, tag) signature, wildcards included as posted. An arriving
// message consults the at-most-four signatures that could match it and
// completes the oldest posted request among them, preserving the MPI
// posting-order matching rule. Guarded by the owning procState.mu.
type postedSet struct {
	q   map[mbKey]reqQueue
	seq uint64
}

// add appends a request in posting order.
func (ps *postedSet) add(r *Request) {
	if ps.q == nil {
		ps.q = make(map[mbKey]reqQueue)
	}
	r.pseq = ps.seq
	ps.seq++
	r.pnext = nil
	k := mbKey{r.c.sh.id, r.src, r.tag}
	q := ps.q[k]
	if q.tail == nil {
		q.head, q.tail = r, r
	} else {
		q.tail.pnext = r
		q.tail = r
	}
	ps.q[k] = q
}

// matchArrival finds and removes the earliest-posted receive matching the
// arriving envelope, or nil.
func (ps *postedSet) matchArrival(env *envelope) *Request {
	if len(ps.q) == 0 {
		return nil
	}
	var best *Request
	var bestKey mbKey
	consider := func(k mbKey) {
		if q, ok := ps.q[k]; ok && q.head != nil && (best == nil || q.head.pseq < best.pseq) {
			best, bestKey = q.head, k
		}
	}
	consider(mbKey{env.commID, env.src, env.tag})
	consider(mbKey{env.commID, AnySource, env.tag})
	if env.tag >= 0 { // a posted AnyTag matches user tags only
		consider(mbKey{env.commID, env.src, AnyTag})
		consider(mbKey{env.commID, AnySource, AnyTag})
	}
	if best == nil {
		return nil
	}
	q := ps.q[bestKey]
	q.head = best.pnext
	if q.head == nil {
		delete(ps.q, bestKey)
	} else {
		if q.tail == best {
			q.tail = nil // unreachable: tail==best implies head was best
		}
		ps.q[bestKey] = q
	}
	best.pnext = nil
	return best
}

// remove drops a request from the set (completion by error/cancellation).
func (ps *postedSet) remove(r *Request) {
	k := mbKey{r.c.sh.id, r.src, r.tag}
	q, ok := ps.q[k]
	if !ok {
		return
	}
	var prev *Request
	for cur := q.head; cur != nil; prev, cur = cur, cur.pnext {
		if cur != r {
			continue
		}
		if prev == nil {
			q.head = cur.pnext
		} else {
			prev.pnext = cur.pnext
		}
		if q.tail == cur {
			q.tail = prev
		}
		if q.head == nil {
			delete(ps.q, k)
		} else {
			ps.q[k] = q
		}
		r.pnext = nil
		return
	}
}

// bufPools holds one sync.Pool of []T per element type, backing the
// large-message paths: eager copies above eagerThreshold, the
// ownership-transfer buffers of AcquireBuf/SendOwned, and the reduction
// tree's accumulators.
var bufPools sync.Map // reflect.Type -> *sync.Pool

func poolFor(t reflect.Type) *sync.Pool {
	if p, ok := bufPools.Load(t); ok {
		return p.(*sync.Pool)
	}
	p, _ := bufPools.LoadOrStore(t, new(sync.Pool))
	return p.(*sync.Pool)
}

// getBuf returns a []T of length n, reusing a pooled buffer when one with
// sufficient capacity is available. Contents are unspecified; callers must
// overwrite every element.
func getBuf[T any](n int) []T {
	p := poolFor(typeOf[T]())
	if v := p.Get(); v != nil {
		if b := v.([]T); cap(b) >= n {
			return b[:n]
		}
		// Too small for this request: let the GC take it rather than
		// cycling it back for the next, likely identical, request.
	}
	return make([]T, n)
}

// putBuf returns a buffer to the typed pool. Only large buffers are kept;
// small ones are cheaper to reallocate than to pool.
func putBuf[T any](b []T) {
	if cap(b)*elemSize[T]() < eagerThreshold {
		return
	}
	poolFor(typeOf[T]()).Put(b[:0])
}

// AcquireBuf returns a []T of length n from the transport's typed buffer
// pool, for use with SendOwned/IsendOwned: fill it, send it, and never
// touch it again. Contents are unspecified.
func AcquireBuf[T any](n int) []T { return getBuf[T](n) }

// ReleaseBuf hands a buffer back to the transport's typed pool. Use it for
// large received payloads once their contents have been consumed — only
// for buffers the caller exclusively owns, and never after releasing. Small
// buffers are dropped for the GC.
func ReleaseBuf[T any](b []T) { putBuf(b) }
