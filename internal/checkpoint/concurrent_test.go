package checkpoint

import (
	"fmt"
	"testing"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// TestConcurrentRanks exercises one store from many simulated ranks at once
// (run under -race in CI): concurrent generation allocation, commit and
// rotation.
func TestConcurrentRanks(t *testing.T) {
	b := NewMem()
	s, err := Open(Options{Backend: b, Generations: 2, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const nprocs = 8
	_, err = mpi.Run(mpi.Options{NProcs: nprocs, Machine: vtime.Generic(), Entry: func(p *mpi.Proc) {
		me := p.World().Rank()
		for i := 1; i <= 10; i++ {
			if err := s.Write(p, 0, me, i, []float64{float64(me), float64(i)}); err != nil {
				t.Errorf("rank %d: %v", me, err)
				return
			}
		}
		step, data, err := s.Read(p, 0, me)
		if err != nil {
			t.Errorf("rank %d: %v", me, err)
			return
		}
		if step != 10 || data[0] != float64(me) {
			t.Errorf("rank %d read (%d, %g)", me, step, data[0])
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	names, _ := b.List()
	if want := nprocs * 2; len(names) != want {
		t.Errorf("backend holds %d blobs, want %d", len(names), want)
	}
	for _, n := range names {
		var g, r, gen int
		if _, err := fmt.Sscanf(n, "grid%03d_rank%04d.gen%06d.ckpt", &g, &r, &gen); err != nil {
			t.Errorf("unexpected blob name %q", n)
		}
	}
}

// TestWriteIsDurableOnReturn: Write commits inline, so every blob is in the
// backend as soon as its Write returns — recovery reads need no barrier.
func TestWriteIsDurableOnReturn(t *testing.T) {
	b := NewMem()
	s, err := Open(Options{Backend: b, Generations: 64})
	if err != nil {
		t.Fatal(err)
	}
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		for i := 0; i < 16; i++ {
			if err := s.Write(p, 0, i, i, []float64{float64(i)}); err != nil {
				t.Error(err)
				return
			}
			if names, _ := b.List(); len(names) != i+1 {
				t.Errorf("after Write %d, backend holds %d blobs, want %d", i, len(names), i+1)
				return
			}
		}
	})
}

// TestCloseKeepsBlobs: Close leaves the backend's contents in place and is
// idempotent.
func TestCloseKeepsBlobs(t *testing.T) {
	b := NewMem()
	s, err := Open(Options{Backend: b, Generations: 64})
	if err != nil {
		t.Fatal(err)
	}
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		for i := 0; i < 8; i++ {
			_ = s.Write(p, 0, i, i, []float64{float64(i)})
		}
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close errored: %v", err)
	}
	if names, _ := b.List(); len(names) != 8 {
		t.Errorf("after Close, backend holds %d blobs, want 8", len(names))
	}
}
