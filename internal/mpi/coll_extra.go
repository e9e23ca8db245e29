package mpi

import "fmt"

// Additional collectives beyond the minimal set the recovery protocol
// needs: Alltoall, Scan, Exscan and ReduceScatterBlock. They follow the
// same construction as coll.go — real message-passing algorithms over the
// p2p layer, with failure-abort propagation so a dead member cannot deadlock the
// operation.

const (
	kindAlltoall = iota + 8
	kindScan
	kindExscan
	kindReduceScatter
)

// Alltoall sends parts[i] to rank i and returns the parts received from
// every rank, in rank order (MPI_Alltoallv, since parts may have different
// lengths). parts must have exactly Size slices.
func Alltoall[T any](c *Comm, parts [][]T) ([][]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Alltoall on intercommunicator: %w", ErrComm))
	}
	n := c.Size()
	if len(parts) != n {
		return nil, c.fire(fmt.Errorf("mpi: Alltoall: %d parts for %d ranks: %w", len(parts), n, ErrType))
	}
	t0 := opStart(c, "alltoall")
	tag := internalTag(kindAlltoall, c.nextSeq("alltoall"))
	me := c.rank
	out := make([][]T, n)
	out[me] = append([]T(nil), parts[me]...)
	// Pairwise exchange: in round k, exchange with rank me^k when valid;
	// otherwise use a linear schedule for non-power-of-two sizes.
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		if err := sendRaw(c, r, tag, parts[r]); err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
	}
	for r := 0; r < n; r++ {
		if r == me {
			continue
		}
		got, _, err := recvRaw[T](c, r, tag, true)
		if err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		out[r] = got
	}
	opEnd(c, "alltoall", t0)
	return out, nil
}

// Scan computes the inclusive prefix reduction: rank r receives
// op(data_0, ..., data_r) elementwise (MPI_Scan). Linear-chain algorithm.
func Scan[T any](c *Comm, data []T, op func(T, T) T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Scan on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "scan")
	tag := internalTag(kindScan, c.nextSeq("scan"))
	acc := append([]T(nil), data...)
	if c.rank > 0 {
		prev, _, err := recvRaw[T](c, c.rank-1, tag, true)
		if err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		if len(prev) != len(acc) {
			return nil, c.fire(fmt.Errorf("mpi: Scan: length mismatch: %w", ErrType))
		}
		for i := range acc {
			acc[i] = op(prev[i], acc[i])
		}
	}
	if c.rank < c.Size()-1 {
		if err := sendRaw(c, c.rank+1, tag, acc); err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
	}
	opEnd(c, "scan", t0)
	return acc, nil
}

// Exscan computes the exclusive prefix reduction: rank r receives
// op(data_0, ..., data_{r-1}); rank 0 receives nil (MPI_Exscan).
func Exscan[T any](c *Comm, data []T, op func(T, T) T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Exscan on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "exscan")
	tag := internalTag(kindExscan, c.nextSeq("exscan"))
	var acc []T
	if c.rank > 0 {
		prev, _, err := recvRaw[T](c, c.rank-1, tag, true)
		if err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		acc = prev
	}
	if c.rank < c.Size()-1 {
		next := getBuf[T](len(data))
		copy(next, data)
		if acc != nil {
			if len(acc) != len(next) {
				return nil, c.fire(fmt.Errorf("mpi: Exscan: length mismatch: %w", ErrType))
			}
			for i := range next {
				next[i] = op(acc[i], next[i])
			}
		}
		if err := sendOwned(c, c.rank+1, tag, next); err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
	}
	opEnd(c, "exscan", t0)
	return acc, nil
}

// ReduceScatterBlock reduces equal-length contributions elementwise and
// scatters the result in equal blocks: with Size*blockLen inputs per rank,
// rank r receives elements [r*blockLen, (r+1)*blockLen) of the elementwise
// reduction (MPI_Reduce_scatter_block).
func ReduceScatterBlock[T any](c *Comm, data []T, op func(T, T) T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: ReduceScatterBlock on intercommunicator: %w", ErrComm))
	}
	n := c.Size()
	if len(data)%n != 0 {
		return nil, c.fire(fmt.Errorf("mpi: ReduceScatterBlock: %d elements not divisible by %d ranks: %w",
			len(data), n, ErrType))
	}
	t0 := opStart(c, "reducescatter")
	tag := internalTag(kindReduceScatter, c.nextSeq("reducescatter"))
	block := len(data) / n
	reduced, err := reduceTree(c, 0, tag, data, op)
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	if c.rank == 0 {
		for r := 1; r < n; r++ {
			if err := sendRaw(c, r, tag, reduced[r*block:(r+1)*block]); err != nil {
				abortCollective(c, tag)
				return nil, c.fire(err)
			}
		}
		out := append([]T(nil), reduced[:block]...)
		putBuf(reduced) // the pooled accumulator from reduceTree
		opEnd(c, "reducescatter", t0)
		return out, nil
	}
	got, _, err := recvRaw[T](c, 0, tag, true)
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	opEnd(c, "reducescatter", t0)
	return got, nil
}
