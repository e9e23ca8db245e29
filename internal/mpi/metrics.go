package mpi

import (
	"sync"

	"ftsg/internal/metrics"
	"ftsg/internal/vtime"
)

// Instrument names exported by the MPI runtime when a metrics.Registry is
// attached via Options.Metrics:
//
//	counters:   mpi.sent.messages, mpi.sent.bytes, mpi.recv.messages,
//	            mpi.recv.bytes, mpi.revokes, mpi.spawned
//	hop splits: mpi.sent.intra / .inter / .xrack — every sent message
//	            classified by endpoint placement (same host, same rack,
//	            cross-rack); coll.<op>.intra / .inter / .xrack — the same
//	            split per collective op (barrier, bcast, reduce, allreduce,
//	            gather, scatter, allgather), counting the point-to-point
//	            hops the collective's algorithm generated
//	vectors:    rank.sent.messages, rank.sent.bytes, rank.recv.messages,
//	            rank.recv.bytes (indexed by world rank)
//	histograms: op.<name> — virtual latency of each successful MPI call
//	            (send, recv, barrier, bcast, ..., shrink, agree, spawn, merge)
//	time sums:  cost.<component> — modelled cost attribution per LogGP /
//	            ULFM / disk component (see vtime.Comp*)
//
// Semantics worth knowing when reading the numbers: message and byte
// counters cover real payload traffic only (collective failure-abort
// notifications are bookkeeping, not messages); op histograms record successful
// completions, measured on the caller's virtual clock from call entry to
// return, so a Recv's latency includes blocking time; rendezvous-collective
// costs (shrink, agree, spawn, split, ...) are attributed once per
// participating member, consistent with o_send/o_recv being charged per rank
// — every cost.* sum reads as "total rank-seconds spent in this component".

// mpiOps is the fixed set of per-op latency histogram keys, pre-resolved at
// world creation so the hot path never takes the registry lock.
var mpiOps = []string{
	"send", "recv", "barrier", "bcast", "reduce", "allreduce",
	"gather", "scatter", "allgather",
	"alltoall", "scan", "exscan", "reducescatter",
	"shrink", "agree", "claim", "spawn", "split", "dup", "create", "merge",
}

// collHopOps is the set of collectives whose message traffic is split by
// link tier (hop counters), pre-resolved like mpiOps. Every collective that
// sets curOp via opStart must be listed here, or countHop would silently
// drop its tier counts.
var collHopOps = []string{
	"barrier", "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
	"alltoall", "scan", "exscan", "reducescatter",
}

// tierSuffix maps a vtime.LinkTier to its hop-counter name suffix.
var tierSuffix = [vtime.NumTiers]string{"intra", "inter", "xrack"}

// costComponents is the fixed set of attribution sinks, pre-resolved like
// mpiOps.
var costComponents = []string{
	vtime.CompAlpha, vtime.CompBeta, vtime.CompOSend, vtime.CompORecv,
	vtime.CompCompute, vtime.CompDiskWrite, vtime.CompDiskRead,
	vtime.CompShrink, vtime.CompSpawn, vtime.CompAgree, vtime.CompMerge,
	vtime.CompRevoke, vtime.CompAck, vtime.CompGroupOp, vtime.CompMgmt,
}

// worldMetrics is the pre-resolved instrument set of one World. A nil
// *worldMetrics is the disabled state: every method no-ops after a single
// nil check and the instrumented paths allocate nothing.
type worldMetrics struct {
	reg *metrics.Registry

	sentMsgs  *metrics.Counter
	sentBytes *metrics.Counter
	recvMsgs  *metrics.Counter
	recvBytes *metrics.Counter
	revokes   *metrics.Counter
	spawned   *metrics.Counter

	rankSentMsgs  *metrics.CounterVec
	rankSentBytes *metrics.CounterVec
	rankRecvMsgs  *metrics.CounterVec
	rankRecvBytes *metrics.CounterVec

	// sentTier counts every sent message by link tier; opHops splits the
	// same count per collective op (read-only after construction).
	sentTier [vtime.NumTiers]*metrics.Counter
	opHops   map[string]*[vtime.NumTiers]*metrics.Counter

	ops   map[string]*metrics.Histogram // read-only after construction
	costs map[string]*metrics.TimeSum   // read-only after construction

	// extraMu guards the overflow maps below: instruments for op/component
	// names outside the pre-resolved sets, interned on first observation so
	// an unknown name hits the registry exactly once. ops/costs themselves
	// stay read-only (and therefore lock-free on the hot path).
	extraMu    sync.Mutex
	extraOps   map[string]*metrics.Histogram
	extraCosts map[string]*metrics.TimeSum
}

// newWorldMetrics resolves every instrument the runtime uses up front.
// Returns nil for a nil registry.
func newWorldMetrics(reg *metrics.Registry) *worldMetrics {
	if reg == nil {
		return nil
	}
	m := &worldMetrics{
		reg:           reg,
		sentMsgs:      reg.Counter("mpi.sent.messages"),
		sentBytes:     reg.Counter("mpi.sent.bytes"),
		recvMsgs:      reg.Counter("mpi.recv.messages"),
		recvBytes:     reg.Counter("mpi.recv.bytes"),
		revokes:       reg.Counter("mpi.revokes"),
		spawned:       reg.Counter("mpi.spawned"),
		rankSentMsgs:  reg.CounterVec("rank.sent.messages"),
		rankSentBytes: reg.CounterVec("rank.sent.bytes"),
		rankRecvMsgs:  reg.CounterVec("rank.recv.messages"),
		rankRecvBytes: reg.CounterVec("rank.recv.bytes"),
		opHops:        make(map[string]*[vtime.NumTiers]*metrics.Counter, len(collHopOps)),
		ops:           make(map[string]*metrics.Histogram, len(mpiOps)),
		costs:         make(map[string]*metrics.TimeSum, len(costComponents)),
	}
	for t, suffix := range tierSuffix {
		m.sentTier[t] = reg.Counter("mpi.sent." + suffix)
	}
	for _, op := range collHopOps {
		var cs [vtime.NumTiers]*metrics.Counter
		for t, suffix := range tierSuffix {
			cs[t] = reg.Counter("coll." + op + "." + suffix)
		}
		m.opHops[op] = &cs
	}
	for _, op := range mpiOps {
		m.ops[op] = reg.Histogram("op." + op)
	}
	for _, comp := range costComponents {
		m.costs[comp] = reg.TimeSum("cost." + comp)
	}
	return m
}

// countSend records one sent message of the given payload size from the
// given world rank.
func (m *worldMetrics) countSend(wrank, bytes int) {
	if m == nil {
		return
	}
	m.sentMsgs.Inc()
	m.sentBytes.Add(int64(bytes))
	m.rankSentMsgs.At(wrank).Inc()
	m.rankSentBytes.At(wrank).Add(int64(bytes))
}

// countRecv records one received message of the given payload size at the
// given world rank.
func (m *worldMetrics) countRecv(wrank, bytes int) {
	if m == nil {
		return
	}
	m.recvMsgs.Inc()
	m.recvBytes.Add(int64(bytes))
	m.rankRecvMsgs.At(wrank).Inc()
	m.rankRecvBytes.At(wrank).Add(int64(bytes))
}

// countHop classifies one sent message by link tier, both globally and —
// when the sender is inside a collective (op non-empty) — per op. Called
// with the nil-check already done by sendEnv's wm guard.
func (m *worldMetrics) countHop(op string, tier vtime.LinkTier) {
	m.sentTier[tier].Inc()
	if op != "" {
		if cs, ok := m.opHops[op]; ok {
			cs[tier].Inc()
		}
	}
}

// countRevoke records one OMPI_Comm_revoke call.
func (m *worldMetrics) countRevoke() {
	if m == nil {
		return
	}
	m.revokes.Inc()
}

// countSpawned records n processes created by SpawnMultiple.
func (m *worldMetrics) countSpawned(n int) {
	if m == nil {
		return
	}
	m.spawned.Add(int64(n))
}

// observeOp records the virtual latency of one successful MPI call.
func (m *worldMetrics) observeOp(op string, seconds float64) {
	if m == nil {
		return
	}
	h, ok := m.ops[op]
	if !ok {
		h = m.extraOp(op) // unknown op: interned once, then cached
	}
	h.Observe(seconds)
}

// extraOp interns the histogram for an op outside the pre-resolved set,
// touching the registry only on the first observation of each name.
func (m *worldMetrics) extraOp(op string) *metrics.Histogram {
	m.extraMu.Lock()
	defer m.extraMu.Unlock()
	h, ok := m.extraOps[op]
	if !ok {
		h = m.reg.Histogram("op." + op)
		if m.extraOps == nil {
			m.extraOps = make(map[string]*metrics.Histogram)
		}
		m.extraOps[op] = h
	}
	return h
}

// ObserveCost implements vtime.CostObserver: the per-rank clocks of an
// instrumented world all point here, so every attributed charge lands in a
// cost.<component> time sum.
func (m *worldMetrics) ObserveCost(component string, seconds float64) {
	if m == nil {
		return
	}
	t, ok := m.costs[component]
	if !ok {
		t = m.extraCost(component)
	}
	t.Add(seconds)
}

// extraCost interns the time sum for a component outside the pre-resolved
// set, touching the registry only on the first observation of each name.
func (m *worldMetrics) extraCost(component string) *metrics.TimeSum {
	m.extraMu.Lock()
	defer m.extraMu.Unlock()
	t, ok := m.extraCosts[component]
	if !ok {
		t = m.reg.TimeSum("cost." + component)
		if m.extraCosts == nil {
			m.extraCosts = make(map[string]*metrics.TimeSum)
		}
		m.extraCosts[component] = t
	}
	return t
}

// componentForRendezvousOp maps a rendezvous collective to its cost
// component.
func componentForRendezvousOp(op string) string {
	switch op {
	case "shrink":
		return vtime.CompShrink
	case "agree":
		return vtime.CompAgree
	case "spawn":
		return vtime.CompSpawn
	default: // split, dup, create: communicator management
		return vtime.CompMgmt
	}
}

// opStart samples the caller's virtual clock for an op-latency measurement
// and marks the process as inside the named collective so sendEnv can
// attribute its hops (curOp is owner-only, like the clock). Reading one's
// own clock needs no lock: only the owning goroutine advances it.
func opStart(c *Comm, op string) float64 {
	st := c.p.st
	st.curOp = op
	return st.clock.Now()
}

// opEnd records the latency of a successful call that began at t0 and
// clears the hop-attribution mark. Collective error paths clear it in
// Comm.fire instead.
func opEnd(c *Comm, op string, t0 float64) {
	st := c.p.st
	st.curOp = ""
	if wm := st.w.wm; wm != nil {
		wm.observeOp(op, st.clock.Now()-t0)
	}
}
