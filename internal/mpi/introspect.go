package mpi

import (
	"fmt"
	"sort"
	"sync"
)

// This file exposes the watchdog's stall evidence as an on-demand, structured
// snapshot: what stallDump used to render straight to text is now
// World.Snapshot(), so a live run can be introspected over HTTP
// (/debug/ranks) without waiting for the timeout path to fire. The watchdog
// renders its dump from the same snapshot.

// RendezvousSnapshot is one unresolved collective rendezvous: how many of
// the expected members have arrived at the (comm, op, seq) meeting point.
type RendezvousSnapshot struct {
	Comm    int    `json:"comm"`
	Op      string `json:"op"`
	Seq     int    `json:"seq"`
	Arrived int    `json:"arrived"`
	Members int    `json:"members"`
}

// QueueSnapshot is one (comm, src, tag) mailbox match queue and its depth —
// messages delivered but not yet received.
type QueueSnapshot struct {
	Comm  int `json:"comm"`
	Src   int `json:"src"`
	Tag   int `json:"tag"`
	Depth int `json:"depth"`
}

// RankSnapshot is one process's blocked-operation and mailbox state.
type RankSnapshot struct {
	WorldRank int  `json:"world_rank"`
	Alive     bool `json:"alive"`
	// Blocked describes the receive the process is parked in, or
	// "none recorded (running, parked in a rendezvous, or exited)" — compute
	// stretches, rendezvous parks and exited processes are indistinguishable
	// from outside without perturbing the run.
	Blocked string          `json:"blocked"`
	Mailbox int             `json:"mailbox_total"`
	Queues  []QueueSnapshot `json:"queues,omitempty"`
}

// WorldSnapshot is a point-in-time view of one World: the failure record,
// unresolved rendezvous and every process's blocked state. It reads only
// epoch-safe state (the process table, liveness flags, mailbox queues under
// each process's mutex), so taking one never perturbs virtual time.
type WorldSnapshot struct {
	Failed  []int                `json:"failed"`
	Spawned int                  `json:"spawned"`
	Pending []RendezvousSnapshot `json:"pending_rendezvous,omitempty"`
	Ranks   []RankSnapshot       `json:"ranks"`
	// GoroutinesPeak is the goroutine high-water mark sampled so far (0
	// until the first sample after launch; see Report.GoroutinesPeak).
	GoroutinesPeak int `json:"goroutines_peak,omitempty"`
}

// Snapshot captures the world's current blocked-operation state. It takes
// World.state and then each process's mutex one at a time, respecting the
// lock hierarchy, and is safe to call at any point of a run — including from
// a goroutine outside the world (the watchdog, an HTTP handler).
func (w *World) Snapshot() WorldSnapshot {
	var out WorldSnapshot

	w.state.RLock()
	out.Failed = append([]int{}, w.failed...)
	out.Spawned = w.spawned
	for key, r := range w.rvzTable {
		if !r.done {
			out.Pending = append(out.Pending, RendezvousSnapshot{
				Comm: key.comm, Op: key.op, Seq: key.seq,
				Arrived: len(r.arrived), Members: len(r.members),
			})
		}
	}
	w.state.RUnlock()

	sort.Slice(out.Pending, func(i, j int) bool {
		a, c := out.Pending[i], out.Pending[j]
		if a.Comm != c.Comm {
			return a.Comm < c.Comm
		}
		if a.Op != c.Op {
			return a.Op < c.Op
		}
		return a.Seq < c.Seq
	})

	out.GoroutinesPeak = int(w.goroPeak.Load())
	for _, st := range w.snapshot() {
		st.mu.Lock()
		rs := RankSnapshot{WorldRank: st.wrank, Alive: st.alive.Load()}
		switch {
		case st.waitSh != nil && st.waitReq != nil:
			rs.Blocked = fmt.Sprintf("Wait on posted recv, comm=%d", st.waitSh.id)
		case st.waitSh != nil:
			rs.Blocked = fmt.Sprintf("recv comm=%d src=%d tag=%d", st.waitSh.id, st.waitSrc, st.waitTag)
		default:
			rs.Blocked = "none recorded (running, parked in a rendezvous, or exited)"
		}
		for k, q := range st.mb.q {
			n := 0
			for e := q.head; e != nil; e = e.next {
				n++
			}
			rs.Mailbox += n
			rs.Queues = append(rs.Queues, QueueSnapshot{Comm: k.comm, Src: k.src, Tag: k.tag, Depth: n})
		}
		st.mu.Unlock()
		sort.Slice(rs.Queues, func(i, j int) bool {
			a, c := rs.Queues[i], rs.Queues[j]
			if a.Comm != c.Comm {
				return a.Comm < c.Comm
			}
			if a.Src != c.Src {
				return a.Src < c.Src
			}
			return a.Tag < c.Tag
		})
		out.Ranks = append(out.Ranks, rs)
	}
	return out
}

// Introspection is a registry of live Worlds, the bridge between runs and
// the telemetry HTTP server: Run attaches its World for the duration of the
// job (Options.Introspect), and /debug/ranks snapshots whatever is attached
// at that instant. Many worlds may be live at once (a sweep); they appear in
// attach order. The zero value is ready to use and a nil *Introspection is
// inert.
type Introspection struct {
	mu     sync.Mutex
	worlds []*World
}

func (in *Introspection) attach(w *World) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.worlds = append(in.worlds, w)
	in.mu.Unlock()
}

func (in *Introspection) detach(w *World) {
	if in == nil {
		return
	}
	in.mu.Lock()
	for i, x := range in.worlds {
		if x == w {
			in.worlds = append(in.worlds[:i], in.worlds[i+1:]...)
			break
		}
	}
	in.mu.Unlock()
}

// Snapshots captures every attached world's state, in attach order. The
// result is never nil, so it renders as [] rather than null in JSON.
func (in *Introspection) Snapshots() []WorldSnapshot {
	out := []WorldSnapshot{}
	if in == nil {
		return out
	}
	in.mu.Lock()
	worlds := append([]*World(nil), in.worlds...)
	in.mu.Unlock()
	for _, w := range worlds {
		out = append(out, w.Snapshot())
	}
	return out
}
