package pde

import (
	"fmt"

	"ftsg/internal/grid"
	"ftsg/internal/mpi"
)

// Halo-exchange tags used on the solver's dedicated communicator.
const (
	tagHaloUp   = 101 // carries a rank's top row to the rank above
	tagHaloDown = 102 // carries a rank's bottom row to the rank below
)

// ParallelSolver advances one sub-grid of the combination technique on a
// process group, decomposing the grid by rows with one halo row on each
// side, exactly one Lax–Wendroff stencil deep. All members of the
// communicator construct it with identical arguments.
type ParallelSolver struct {
	Comm *mpi.Comm
	Prob *Problem
	Lv   grid.Level
	Dt   float64

	// Charge, when non-nil, is called once per step with the number of
	// cell updates performed locally, letting the application charge
	// virtual compute time.
	Charge func(cells int)

	// Nonblocking switches the halo exchange to the Irecv-first overlapped
	// idiom (post both receives, send both rows, wait) instead of the
	// blocking send/recv sequence. Results are bitwise identical; only the
	// communication schedule differs.
	Nonblocking bool

	// StepCount is the number of steps taken so far.
	StepCount int

	nx, ny   int // periodic unknowns per dimension
	r0, r1   int // owned global rows [r0, r1)
	local    []float64
	scratch  []float64
	rowWidth int
}

// rowsFor computes the contiguous block of rows owned by rank of nprocs.
func rowsFor(rank, nprocs, ny int) (int, int) {
	r0 := rank * ny / nprocs
	r1 := (rank + 1) * ny / nprocs
	return r0, r1
}

// NewParallelSolver initialises the local block from the problem's initial
// condition. The communicator must have at most 2^lv.J members (at least
// one row each).
func NewParallelSolver(c *mpi.Comm, prob *Problem, lv grid.Level, dt float64) (*ParallelSolver, error) {
	ny := 1 << lv.J
	if c.Size() > ny {
		return nil, fmt.Errorf("pde: %d processes for %d rows of %v", c.Size(), ny, lv)
	}
	if err := CheckStable(lv, prob, dt); err != nil {
		return nil, err
	}
	s := &ParallelSolver{
		Comm: c,
		Prob: prob,
		Lv:   lv,
		Dt:   dt,
		nx:   1 << lv.I,
		ny:   ny,
	}
	s.r0, s.r1 = rowsFor(c.Rank(), c.Size(), ny)
	s.rowWidth = s.nx
	nloc := s.r1 - s.r0
	s.local = make([]float64, (nloc+2)*s.nx)
	s.scratch = make([]float64, (nloc+2)*s.nx)
	hx := 1.0 / float64(s.nx)
	hy := 1.0 / float64(s.ny)
	for k := 0; k < nloc; k++ {
		y := float64(s.r0+k) * hy
		row := (k + 1) * s.nx
		for i := 0; i < s.nx; i++ {
			s.local[row+i] = prob.U0(float64(i)*hx, y)
		}
	}
	return s, nil
}

// OwnedRows returns the solver's owned global row range [r0, r1).
func (s *ParallelSolver) OwnedRows() (int, int) { return s.r0, s.r1 }

// exchangeHalos refreshes the two halo rows from the neighbouring ranks
// (periodic in rank space, matching the periodic domain).
func (s *ParallelSolver) exchangeHalos() error {
	p := s.Comm.Size()
	nloc := s.r1 - s.r0
	top := s.local[nloc*s.nx : (nloc+1)*s.nx]
	bottom := s.local[s.nx : 2*s.nx]
	if p == 1 {
		copy(s.local[0:s.nx], top)
		copy(s.local[(nloc+1)*s.nx:], bottom)
		return nil
	}
	up := (s.Comm.Rank() + 1) % p
	down := (s.Comm.Rank() - 1 + p) % p
	if s.Nonblocking {
		return s.exchangeHalosNonblocking(up, down, top, bottom)
	}
	if err := mpi.Send(s.Comm, up, tagHaloUp, top); err != nil {
		return err
	}
	if err := mpi.Send(s.Comm, down, tagHaloDown, bottom); err != nil {
		return err
	}
	lower, _, err := mpi.Recv[float64](s.Comm, down, tagHaloUp)
	if err != nil {
		return err
	}
	copy(s.local[0:s.nx], lower)
	mpi.ReleaseBuf(lower)
	upper, _, err := mpi.Recv[float64](s.Comm, up, tagHaloDown)
	if err != nil {
		return err
	}
	copy(s.local[(nloc+1)*s.nx:], upper)
	mpi.ReleaseBuf(upper)
	return nil
}

// exchangeHalosNonblocking is the overlapped variant: receives are posted
// before any send, so arriving halo rows match immediately regardless of
// neighbour pacing.
func (s *ParallelSolver) exchangeHalosNonblocking(up, down int, top, bottom []float64) error {
	nloc := s.r1 - s.r0
	rLower, err := mpi.Irecv[float64](s.Comm, down, tagHaloUp)
	if err != nil {
		return err
	}
	rUpper, err := mpi.Irecv[float64](s.Comm, up, tagHaloDown)
	if err != nil {
		return err
	}
	sUp, err := mpi.Isend(s.Comm, up, tagHaloUp, top)
	if err != nil {
		return err
	}
	sDown, err := mpi.Isend(s.Comm, down, tagHaloDown, bottom)
	if err != nil {
		return err
	}
	if err := mpi.Waitall(sUp, sDown); err != nil {
		return err
	}
	lower, _, err := mpi.Wait[float64](rLower)
	if err != nil {
		return err
	}
	copy(s.local[0:s.nx], lower)
	upper, _, err := mpi.Wait[float64](rUpper)
	if err != nil {
		return err
	}
	copy(s.local[(nloc+1)*s.nx:], upper)
	return nil
}

// Step advances the local block one timestep (halo exchange followed by the
// Lax–Wendroff update). It returns MPI errors from the halo exchange, which
// is how a process group first observes a peer failure mid-solve.
func (s *ParallelSolver) Step() error {
	if err := s.exchangeHalos(); err != nil {
		return err
	}
	nloc := s.r1 - s.r0
	cx := s.Prob.Ax * s.Dt * float64(s.nx)
	cy := s.Prob.Ay * s.Dt * float64(s.ny)
	v, w := s.local, s.scratch
	nx := s.nx
	for k := 1; k <= nloc; k++ {
		row, rowM, rowP := k*nx, (k-1)*nx, (k+1)*nx
		for i := 0; i < nx; i++ {
			im := (i - 1 + nx) % nx
			ip := (i + 1) % nx
			u := v[row+i]
			uE, uW := v[row+ip], v[row+im]
			uN, uS := v[rowP+i], v[rowM+i]
			uNE, uNW := v[rowP+ip], v[rowP+im]
			uSE, uSW := v[rowM+ip], v[rowM+im]
			w[row+i] = u -
				0.5*cx*(uE-uW) - 0.5*cy*(uN-uS) +
				0.5*cx*cx*(uE-2*u+uW) + 0.5*cy*cy*(uN-2*u+uS) +
				0.25*cx*cy*(uNE-uNW-uSE+uSW)
		}
	}
	copy(v[nx:(nloc+1)*nx], w[nx:(nloc+1)*nx])
	s.StepCount++
	if s.Charge != nil {
		s.Charge(nloc * nx)
	}
	return nil
}

// Run advances n steps, stopping at the first error.
func (s *ParallelSolver) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Gather assembles the full sub-grid (with periodic duplicate row/column)
// at root; other ranks receive nil.
func (s *ParallelSolver) Gather(root int) (*grid.Grid, error) {
	nloc := s.r1 - s.r0
	mine := s.local[s.nx : (nloc+1)*s.nx]
	pieces, err := mpi.Gather(s.Comm, root, mine)
	if err != nil {
		return nil, err
	}
	if s.Comm.Rank() != root {
		return nil, nil
	}
	g := grid.New(s.Lv)
	row := 0
	for r, piece := range pieces {
		wantRows := func() int { a, b := rowsFor(r, s.Comm.Size(), s.ny); return b - a }()
		if len(piece) != wantRows*s.nx {
			return nil, fmt.Errorf("pde: Gather: rank %d sent %d values, want %d", r, len(piece), wantRows*s.nx)
		}
		for k := 0; k < wantRows; k++ {
			copy(g.V[row*g.Nx:row*g.Nx+s.nx], piece[k*s.nx:(k+1)*s.nx])
			g.V[row*g.Nx+s.nx] = piece[k*s.nx] // duplicate column
			row++
		}
		mpi.ReleaseBuf(piece) // Gather hands ownership of every piece to root
	}
	// Duplicate row.
	copy(g.V[s.ny*g.Nx:], g.V[:g.Nx])
	return g, nil
}

// State returns a copy of the owned rows (no halos), for checkpointing and
// replication-based recovery.
func (s *ParallelSolver) State() []float64 {
	return s.AppendState(nil)
}

// AppendState appends the owned rows to dst (StateAppender interface).
func (s *ParallelSolver) AppendState(dst []float64) []float64 {
	nloc := s.r1 - s.r0
	return append(dst, s.local[s.nx:(nloc+1)*s.nx]...)
}

// Restore overwrites the owned rows and step counter from a checkpoint.
func (s *ParallelSolver) Restore(step int, rows []float64) error {
	nloc := s.r1 - s.r0
	if len(rows) != nloc*s.nx {
		return fmt.Errorf("pde: Restore: %d values for %d owned cells", len(rows), nloc*s.nx)
	}
	copy(s.local[s.nx:(nloc+1)*s.nx], rows)
	s.StepCount = step
	return nil
}

// SetFromGrid overwrites the owned rows by sampling the given full grid of
// the same level — used when recovering a lost sub-grid from a duplicate, a
// finer grid's restriction, or an alternate-combination approximation.
func (s *ParallelSolver) SetFromGrid(g *grid.Grid, step int) error {
	if g.Lv != s.Lv {
		return fmt.Errorf("pde: SetFromGrid: level %v != %v", g.Lv, s.Lv)
	}
	nloc := s.r1 - s.r0
	for k := 0; k < nloc; k++ {
		gy := s.r0 + k
		copy(s.local[(k+1)*s.nx:(k+2)*s.nx], g.V[gy*g.Nx:gy*g.Nx+s.nx])
	}
	s.StepCount = step
	return nil
}

// Steps returns the number of steps taken (Solver interface).
func (s *ParallelSolver) Steps() int { return s.StepCount }

// SetCharge installs the virtual-compute hook (Solver interface).
func (s *ParallelSolver) SetCharge(f func(cells int)) { s.Charge = f }

// GroupComm returns the solver's communicator (Solver interface).
func (s *ParallelSolver) GroupComm() *mpi.Comm { return s.Comm }
