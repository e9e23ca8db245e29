package mpi

import "fmt"

// Blocking collectives over the p2p layer.

// Collective kinds for internal tag construction.
const (
	kindBarrier = iota + 1
	kindBcast
	kindReduce
	kindGather
	kindScatter
	kindAllgather
	kindAllreduce
)

// Number constrains the element types usable with the built-in reduction
// operators.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~float32 | ~float64
}

// Sum is the MPI_SUM reduction operator.
func Sum[T Number](a, b T) T { return a + b }

// MaxOp is the MPI_MAX reduction operator.
func MaxOp[T Number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// MinOp is the MPI_MIN reduction operator.
func MinOp[T Number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

// BAnd is the MPI_BAND reduction operator on ints.
func BAnd(a, b int) int { return a & b }

// barrierToken is the 1-byte payload of every barrier dissemination
// message. It is shared and immutable, and sendOwned never pools buffers
// this small, so barrier rounds move no payload bytes and allocate nothing.
var barrierToken = []byte{1}

// Barrier blocks until all members of the intracommunicator have entered it
// (dissemination algorithm over point-to-point messages). If any member has
// failed, the barrier terminates at every rank — possibly non-uniformly,
// some ranks succeeding and others reporting MPI_ERR_PROC_FAILED — which is
// exactly the detection idiom the paper builds on (Fig. 3, line 13).
func (c *Comm) Barrier() error {
	if c.IsInter() {
		return c.fire(fmt.Errorf("mpi: Barrier on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "barrier")
	tag := internalTag(kindBarrier, c.nextSeq("barrier"))
	var err error
	if t := c.hierTopo(); t != nil {
		err = hierBarrier(c, t, tag)
	} else {
		err = flatBarrier(c, tag)
	}
	if err != nil {
		abortCollective(c, tag)
		return c.fire(err)
	}
	opEnd(c, "barrier", t0)
	return nil
}

// flatBarrier is the dissemination barrier used on single-host
// communicators (and as the FlatCollectives reference).
func flatBarrier(c *Comm, tag int) error {
	n, me := c.Size(), c.rank
	for k := 1; k < n; k <<= 1 {
		if err := sendOwned(c, (me+k)%n, tag, barrierToken); err != nil {
			return err
		}
		if _, _, err := recvRaw[byte](c, (me-k+n)%n, tag, true); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts root's buffer to all members of the intracommunicator
// using a binomial tree. Non-root callers pass nil and receive the data in
// the return value.
func Bcast[T any](c *Comm, root int, data []T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Bcast on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "bcast")
	tag := internalTag(kindBcast, c.nextSeq("bcast"))
	var buf []T
	var err error
	if t := c.hierTopo(); t != nil {
		buf, err = hierBcast(c, t, tag, root, data)
	} else {
		buf, err = bcastTree(c, root, tag, data)
	}
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	opEnd(c, "bcast", t0)
	return buf, nil
}

// bcastTree is the binomial broadcast shared by Bcast and Allreduce.
func bcastTree[T any](c *Comm, root, tag int, data []T) ([]T, error) {
	n := c.Size()
	vr := (c.rank - root + n) % n
	buf := data
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (vr - mask + root) % n
			got, _, err := recvRaw[T](c, src, tag, true)
			if err != nil {
				return nil, err
			}
			buf = got
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < n {
			dst := (vr + mask + root) % n
			if err := sendRaw(c, dst, tag, buf); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return buf, nil
}

// Reduce combines every member's buffer elementwise with op into a single
// buffer delivered at root (binomial reduction tree). Non-root callers
// receive nil.
func Reduce[T any](c *Comm, root int, data []T, op func(T, T) T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Reduce on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "reduce")
	tag := internalTag(kindReduce, c.nextSeq("reduce"))
	var buf []T
	var err error
	if t := c.hierTopo(); t != nil {
		buf, err = hierReduce(c, t, tag, root, data, op)
	} else {
		buf, err = reduceTree(c, root, tag, data, op)
	}
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	opEnd(c, "reduce", t0)
	return buf, nil
}

// reduceTree is the binomial reduction shared by Reduce, Allreduce and
// ReduceScatterBlock. Contributions move through the tree by ownership
// transfer: each received buffer is folded into a pooled accumulator and
// recycled, and the accumulator itself is handed uncopied to the parent —
// one pooled buffer per subtree instead of a copy per edge. The
// accumulator is materialised lazily (a leaf copies data only at its send;
// an interior node's first fold combines data and the received buffer
// directly), and the fold order op(accumulated, received) is exactly that
// of the previous copy-always tree, so floating-point results are
// bit-identical.
func reduceTree[T any](c *Comm, root, tag int, data []T, op func(T, T) T) ([]T, error) {
	n := c.Size()
	vr := (c.rank - root + n) % n
	var acc []T
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask == 0 {
			srcVr := vr + mask
			if srcVr < n {
				got, _, err := recvRaw[T](c, (srcVr+root)%n, tag, true)
				if err != nil {
					return nil, err
				}
				if len(got) != len(data) {
					return nil, fmt.Errorf("mpi: Reduce: length mismatch %d vs %d: %w", len(got), len(data), ErrType)
				}
				if acc == nil {
					acc = getBuf[T](len(data))
					for i := range acc {
						acc[i] = op(data[i], got[i])
					}
				} else {
					for i := range acc {
						acc[i] = op(acc[i], got[i])
					}
				}
				putBuf(got)
			}
		} else {
			if acc == nil {
				acc = getBuf[T](len(data))
				copy(acc, data)
			}
			if err := sendOwned(c, (vr-mask+root)%n, tag, acc); err != nil {
				return nil, err
			}
			return nil, nil // non-root contributors are done
		}
	}
	if c.rank == root {
		if acc == nil {
			acc = getBuf[T](len(data))
			copy(acc, data)
		}
		return acc, nil
	}
	return nil, nil
}

// ReduceSum is Reduce specialised to the Sum operator: same binomial tree,
// same fold order — bit-identical results — but the elementwise addition is
// fused into the fold loop instead of an indirect call per element, which
// matters when the reduced buffer is a full combination target grid.
func ReduceSum[T Number](c *Comm, root int, data []T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Reduce on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "reduce")
	tag := internalTag(kindReduce, c.nextSeq("reduce"))
	var buf []T
	var err error
	if t := c.hierTopo(); t != nil {
		buf, err = hierReduceSum(c, t, tag, root, data)
	} else {
		buf, err = reduceTreeSum(c, root, tag, data)
	}
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	opEnd(c, "reduce", t0)
	return buf, nil
}

// reduceTreeSum mirrors reduceTree with op = Sum fused in (see ReduceSum).
func reduceTreeSum[T Number](c *Comm, root, tag int, data []T) ([]T, error) {
	n := c.Size()
	vr := (c.rank - root + n) % n
	var acc []T
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask == 0 {
			srcVr := vr + mask
			if srcVr < n {
				got, _, err := recvRaw[T](c, (srcVr+root)%n, tag, true)
				if err != nil {
					return nil, err
				}
				if len(got) != len(data) {
					return nil, fmt.Errorf("mpi: Reduce: length mismatch %d vs %d: %w", len(got), len(data), ErrType)
				}
				if acc == nil {
					acc = getBuf[T](len(data))
					for i := range acc {
						acc[i] = data[i] + got[i]
					}
				} else {
					for i := range acc {
						acc[i] += got[i]
					}
				}
				putBuf(got)
			}
		} else {
			if acc == nil {
				acc = getBuf[T](len(data))
				copy(acc, data)
			}
			if err := sendOwned(c, (vr-mask+root)%n, tag, acc); err != nil {
				return nil, err
			}
			return nil, nil // non-root contributors are done
		}
	}
	if c.rank == root {
		if acc == nil {
			acc = getBuf[T](len(data))
			copy(acc, data)
		}
		return acc, nil
	}
	return nil, nil
}

// Allreduce combines all buffers with op and delivers the result to every
// member. Flat: reduce to rank 0, then broadcast, sharing one internal tag
// so failure-abort propagation covers both phases. Hierarchical: the same
// two trees over node leaders for small payloads, or a ring
// reduce-scatter/allgather over leaders past collRingCutover bytes.
func Allreduce[T any](c *Comm, data []T, op func(T, T) T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Allreduce on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "allreduce")
	tag := internalTag(kindAllreduce, c.nextSeq("allreduce"))
	var buf []T
	var err error
	if t := c.hierTopo(); t != nil {
		if useRing(len(data)*elemSize[T](), len(t.leaders)) {
			buf, err = hierAllreduceRing(c, t, tag, data, op)
		} else {
			buf, err = hierAllreduce(c, t, tag, data, op)
		}
	} else {
		buf, err = reduceTree(c, 0, tag, data, op)
		if err == nil {
			buf, err = bcastTree(c, 0, tag, buf)
		}
	}
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	opEnd(c, "allreduce", t0)
	return buf, nil
}

// Gather collects every member's buffer at root. At root the result has one
// slice per rank (rank order); elsewhere the result is nil.
func Gather[T any](c *Comm, root int, data []T) ([][]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Gather on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "gather")
	tag := internalTag(kindGather, c.nextSeq("gather"))
	if t := c.hierTopo(); t != nil {
		out, err := hierGather(c, t, tag, root, data)
		if err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		opEnd(c, "gather", t0)
		return out, nil
	}
	n := c.Size()
	if c.rank != root {
		if err := sendRaw(c, root, tag, data); err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		opEnd(c, "gather", t0)
		return nil, nil
	}
	out := make([][]T, n)
	out[root] = append([]T(nil), data...)
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		got, _, err := recvRaw[T](c, r, tag, true)
		if err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		out[r] = got
	}
	opEnd(c, "gather", t0)
	return out, nil
}

// Scatter distributes parts[i] from root to rank i. Only root's parts
// argument is significant; it must have exactly Size slices.
func Scatter[T any](c *Comm, root int, parts [][]T) ([]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Scatter on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "scatter")
	tag := internalTag(kindScatter, c.nextSeq("scatter"))
	n := c.Size()
	if c.rank == root && len(parts) != n {
		return nil, c.fire(fmt.Errorf("mpi: Scatter: %d parts for %d ranks: %w", len(parts), n, ErrType))
	}
	if t := c.hierTopo(); t != nil {
		got, err := hierScatter(c, t, tag, root, parts)
		if err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		opEnd(c, "scatter", t0)
		return got, nil
	}
	if c.rank == root {
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			if err := sendRaw(c, r, tag, parts[r]); err != nil {
				abortCollective(c, tag)
				return nil, c.fire(err)
			}
		}
		opEnd(c, "scatter", t0)
		return append([]T(nil), parts[root]...), nil
	}
	got, _, err := recvRaw[T](c, root, tag, true)
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	opEnd(c, "scatter", t0)
	return got, nil
}

// Allgather collects equal-length buffers from every member and delivers the
// full rank-ordered set to all members (gather to rank 0 plus broadcast of
// the flattened buffer, one internal tag).
func Allgather[T any](c *Comm, data []T) ([][]T, error) {
	if c.IsInter() {
		return nil, c.fire(fmt.Errorf("mpi: Allgather on intercommunicator: %w", ErrComm))
	}
	t0 := opStart(c, "allgather")
	tag := internalTag(kindAllgather, c.nextSeq("allgather"))
	if t := c.hierTopo(); t != nil {
		out, err := hierAllgather(c, t, tag, data)
		if err != nil {
			abortCollective(c, tag)
			return nil, c.fire(err)
		}
		opEnd(c, "allgather", t0)
		return out, nil
	}
	n := c.Size()
	m := len(data)
	var flat []T
	var err error
	if c.rank == 0 {
		flat = make([]T, 0, n*m)
		flat = append(flat, data...)
		pieces := make([][]T, n)
		pieces[0] = data
		for r := 1; r < n; r++ {
			var got []T
			got, _, err = recvRaw[T](c, r, tag, true)
			if err == nil && len(got) != m {
				err = fmt.Errorf("mpi: Allgather: unequal contribution (%d vs %d): %w", len(got), m, ErrType)
			}
			if err != nil {
				break
			}
			pieces[r] = got
		}
		if err == nil {
			flat = flat[:0]
			for _, p := range pieces {
				flat = append(flat, p...)
			}
			for r := 1; r < n; r++ {
				putBuf(pieces[r]) // transport-owned; pieces[0] is the caller's
			}
		}
	} else {
		err = sendRaw(c, 0, tag, data)
	}
	if err == nil {
		flat, err = bcastTree(c, 0, tag, flat)
	}
	if err != nil {
		abortCollective(c, tag)
		return nil, c.fire(err)
	}
	if len(flat) != n*m {
		return nil, c.fire(fmt.Errorf("mpi: Allgather: bad flattened length %d: %w", len(flat), ErrType))
	}
	opEnd(c, "allgather", t0)
	out := make([][]T, n)
	for r := 0; r < n; r++ {
		out[r] = flat[r*m : (r+1)*m : (r+1)*m]
	}
	return out, nil
}
