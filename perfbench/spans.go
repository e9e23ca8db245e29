package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans under the
// same root belong to one request (a workload op or a probe); Parent is
// the root's ID, 0 for a root itself.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the recorder was created
	EndNS   int64  `json:"end_ns"`
	Work    int    `json:"work,omitempty"` // cells updated, for per-cell rates
}

// spans keeps every span in memory until the run ends; simulated ranks
// record concurrently.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// record stores a finished span and returns its ID.
func (s *spans) record(name string, parent int, start, end time.Time, work int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(s.t0).Nanoseconds(), EndNS: end.Sub(s.t0).Nanoseconds(), Work: work})
	return id
}

// finish sets a root span's end after its children ran.
func (s *spans) finish(id int, end time.Time) {
	s.mu.Lock()
	s.list[id-1].EndNS = end.Sub(s.t0).Nanoseconds()
	s.mu.Unlock()
}

func (s *spans) writeJSON(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.NewEncoder(w).Encode(s.list)
}

// callStats is the median and p90 of the named spans' durations divided by
// scale (per unit of Work when perWork), and how many there were.
func (s *spans) callStats(names []string, scale float64, perWork bool) (med, p90 float64, n int) {
	s.mu.Lock()
	var xs []float64
	for _, sp := range s.list {
		for _, name := range names {
			if sp.Name != name {
				continue
			}
			v := float64(sp.EndNS-sp.StartNS) / scale
			if perWork && sp.Work > 0 {
				v /= float64(sp.Work)
			}
			xs = append(xs, v)
		}
	}
	s.mu.Unlock()
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(xs)
	return median(xs), xs[int(math.Ceil(0.9*float64(len(xs))))-1], len(xs)
}
