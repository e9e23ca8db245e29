package mpi

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ftsg/internal/vtime"
)

// BenchmarkPingPong measures the runtime's point-to-point round-trip cost
// (real wall time of the simulation, not virtual time).
func BenchmarkPingPong(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(Options{NProcs: 2, Entry: func(p *Proc) {
			c := p.World()
			buf := make([]float64, 128)
			for k := 0; k < 100; k++ {
				if c.Rank() == 0 {
					if err := Send(c, 1, 0, buf); err != nil {
						b.Error(err)
						return
					}
					if _, _, err := Recv[float64](c, 1, 0); err != nil {
						b.Error(err)
						return
					}
				} else {
					if _, _, err := Recv[float64](c, 0, 0); err != nil {
						b.Error(err)
						return
					}
					if err := Send(c, 0, 0, buf); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100, "roundtrips/op")
}

func benchCollective(b *testing.B, nprocs int, body func(p *Proc)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Options{NProcs: nprocs, Entry: body}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarrier64(b *testing.B) {
	benchCollective(b, 64, func(p *Proc) {
		for k := 0; k < 10; k++ {
			if err := p.World().Barrier(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkAllreduce64(b *testing.B) {
	benchCollective(b, 64, func(p *Proc) {
		buf := make([]float64, 64)
		for k := 0; k < 10; k++ {
			if _, err := Allreduce(p.World(), buf, Sum[float64]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkSplit64(b *testing.B) {
	benchCollective(b, 64, func(p *Proc) {
		c := p.World()
		if _, err := c.Split(c.Rank()%8, c.Rank()); err != nil {
			b.Error(err)
		}
	})
}

// BenchmarkRepairDance measures the full shrink/spawn/merge/split repair of
// a 19-rank communicator with two dead members — the inner loop of every
// recovery in the application.
func BenchmarkRepairDance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := Run(Options{NProcs: 19, Machine: vtime.OPL(), Entry: func(p *Proc) {
			if p.Parent() != nil {
				_, _ = p.Parent().Agree(1)
				unordered, err := p.Parent().IntercommMerge(true)
				if err != nil {
					b.Error(err)
					return
				}
				oldRank, _, err := RecvOne[int](unordered, 0, 5)
				if err != nil {
					b.Error(err)
					return
				}
				if _, err := unordered.Split(0, oldRank); err != nil {
					b.Error(err)
				}
				return
			}
			c := p.World()
			if c.Rank() == 3 || c.Rank() == 5 {
				p.Kill()
			}
			_ = c.Barrier()
			_ = c.Revoke()
			shrunk, err := c.Shrink()
			if err != nil {
				b.Error(err)
				return
			}
			failed := c.Group().Difference(shrunk.Group())
			failedRanks := make([]int, failed.Size())
			for j := range failedRanks {
				failedRanks[j] = c.Group().Rank(failed[j])
			}
			hosts, err := p.Cluster().SpawnHosts(failedRanks)
			if err != nil {
				b.Error(err)
				return
			}
			inter, err := shrunk.SpawnMultiple(len(failedRanks), hosts, 0)
			if err != nil {
				b.Error(err)
				return
			}
			unordered, err := inter.IntercommMerge(false)
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = inter.Agree(1)
			if unordered.Rank() == 0 {
				for j, fr := range failedRanks {
					if err := SendOne(unordered, shrunk.Size()+j, 5, fr); err != nil {
						b.Error(err)
						return
					}
				}
			}
			if _, err := unordered.Split(0, c.Rank()); err != nil {
				b.Error(err)
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// stackSampler samples runtime.MemStats.StackInuse on a short period and
// keeps the maximum, quantifying the stack footprint of goroutine-per-rank
// execution. ReadMemStats is a brief stop-the-world, so the period is
// coarse; the number is indicative, not a gate.
type stackSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startStackSampler() *stackSampler {
	s := &stackSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var ms runtime.MemStats
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.StackInuse > s.peak.Load() {
				s.peak.Store(ms.StackInuse)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *stackSampler) peakKiB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak.Load()) / 1024
}

// benchWeakScaling measures the collective stack at a given cluster scale:
// per Run, 5 rounds of Barrier + small Allreduce + 64 KiB Allreduce (the
// ring path) on the machine's default host shape. ns/op is simulator wall
// cost; the reported vs/op metric is the run's final virtual time, the
// number the weak-scaling gate in scripts/bench_compare.sh watches — with
// the hierarchical collectives it should grow ~O(log nodes), not O(n).
// peak-goroutines and peak-stack-KiB quantify the goroutine-per-rank
// memory footprint.
func benchWeakScaling(b *testing.B, machine func() *vtime.Machine, nprocs int) {
	b.Helper()
	b.ReportAllocs()
	var virt float64
	var peak int
	ss := startStackSampler()
	for i := 0; i < b.N; i++ {
		rep, err := Run(Options{NProcs: nprocs, Machine: machine(), Entry: func(p *Proc) {
			c := p.World()
			small := make([]float64, 16)
			big := make([]float64, 8192) // 64 KiB: past collRingCutover
			for k := 0; k < 5; k++ {
				if err := c.Barrier(); err != nil {
					b.Error(err)
					return
				}
				if _, err := Allreduce(c, small, Sum[float64]); err != nil {
					b.Error(err)
					return
				}
				if _, err := Allreduce(c, big, Sum[float64]); err != nil {
					b.Error(err)
					return
				}
			}
		}})
		if err != nil {
			b.Fatal(err)
		}
		virt = rep.MaxVirtualTime
		peak = rep.GoroutinesPeak
	}
	b.ReportMetric(ss.peakKiB(), "peak-stack-KiB")
	b.ReportMetric(virt, "vs/op")
	b.ReportMetric(float64(peak), "peak-goroutines")
}

func BenchmarkWeakScaleOPL64(b *testing.B)      { benchWeakScaling(b, vtime.OPL, 64) }
func BenchmarkWeakScaleOPL512(b *testing.B)     { benchWeakScaling(b, vtime.OPL, 512) }
func BenchmarkWeakScaleOPL4096(b *testing.B)    { benchWeakScaling(b, vtime.OPL, 4096) }
func BenchmarkWeakScaleOPL8192(b *testing.B)    { benchWeakScaling(b, vtime.OPL, 8192) }
func BenchmarkWeakScaleRaijin64(b *testing.B)   { benchWeakScaling(b, vtime.Raijin, 64) }
func BenchmarkWeakScaleRaijin512(b *testing.B)  { benchWeakScaling(b, vtime.Raijin, 512) }
func BenchmarkWeakScaleRaijin4096(b *testing.B) { benchWeakScaling(b, vtime.Raijin, 4096) }
func BenchmarkWeakScaleRaijin8192(b *testing.B) { benchWeakScaling(b, vtime.Raijin, 8192) }

// benchWeakScalingRepair runs one full kill -> detect -> revoke -> shrink
// -> respawn -> merge -> split round per op at the given scale (two
// victims; the dance helpers from ulfm_test.go do the protocol). Repair
// wall clock is dominated by the ULFM rendezvous and revoke paths,
// so the 4096 -> 8192 ratio shows how much per-wake work still scales with
// the communicator size.
func benchWeakScalingRepair(b *testing.B, machine func() *vtime.Machine, nprocs int) {
	b.Helper()
	b.ReportAllocs()
	dead := func(r int) bool { return r == nprocs/4 || r == nprocs/2+1 }
	var virt float64
	var peak int
	for i := 0; i < b.N; i++ {
		d := newRepairDance()
		rep, err := Run(Options{NProcs: nprocs, Machine: machine(), Entry: func(p *Proc) {
			blockingRepairDance(b, p, dead, false, d)
		}})
		if err != nil {
			b.Fatal(err)
		}
		virt = rep.MaxVirtualTime
		peak = rep.GoroutinesPeak
	}
	b.ReportMetric(virt, "vs/op")
	b.ReportMetric(float64(peak), "peak-goroutines")
}

func BenchmarkWeakScaleRepairOPL512(b *testing.B)  { benchWeakScalingRepair(b, vtime.OPL, 512) }
func BenchmarkWeakScaleRepairOPL4096(b *testing.B) { benchWeakScalingRepair(b, vtime.OPL, 4096) }
func BenchmarkWeakScaleRepairOPL8192(b *testing.B) { benchWeakScalingRepair(b, vtime.OPL, 8192) }
