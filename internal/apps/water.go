package apps

import (
	"fmt"
	"math"

	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
	"actdsm/internal/vm"
)

// water models SPLASH-2 Water-Nsquared: n molecules with O(n²/2) pairwise
// interactions. Each thread owns a contiguous molecule block and computes
// the interactions between its molecules and the following n/2 molecules
// (wrapping), accumulating partner forces privately and merging them into
// the shared force fields under per-block locks. Every thread therefore
// reads the positions of half the molecule array starting at its own block
// — producing the paper's distinctive Water correlation map, where
// nearest-neighbour sharing starts high, decreases with distance, and
// rises again as the half-window wraps.
//
// A molecule record is 42 float64s (336 bytes), matching Table 1's 44
// shared pages for 512 molecules.
type water struct {
	threads int
	iters   int
	nmol    int
	verify  bool
	mol     memlayout.Region
}

// Molecule record layout in float64 slots.
const (
	wRec   = 42 // slots per molecule
	wPos   = 0  // 3 atom positions × 3 coords
	wVel   = 9
	wForce = 18
	wAcc   = 27 // previous-step force for Verlet-style integration
	wMisc  = 36 // 6 spare slots (potential terms in the original)
)

const (
	waterDT       = 1e-3
	waterLockBase = int32(7000)
)

func newWater(cfg Config) (*water, error) {
	nmol := 256
	if cfg.Scale == ScalePaper {
		nmol = 512
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 5
	}
	if cfg.Threads > nmol {
		return nil, fmt.Errorf("apps: Water: %d threads exceed %d molecules", cfg.Threads, nmol)
	}
	return &water{threads: cfg.Threads, iters: iters, nmol: nmol, verify: cfg.Verify}, nil
}

func (w *water) Name() string    { return "Water" }
func (w *water) Threads() int    { return w.threads }
func (w *water) Iterations() int { return w.iters }

func (w *water) Setup(l *memlayout.Layout) error {
	var err error
	w.mol, err = l.Alloc("water.mol", w.nmol*wRec*8)
	if err != nil {
		return fmt.Errorf("apps: Water setup: %w", err)
	}
	return nil
}

// initPos places molecule centres on a jittered lattice.
func (w *water) initPos(i int) (x, y, z float64) {
	side := int(math.Cbrt(float64(w.nmol))) + 1
	x = float64(i%side) + 0.3*float64((i*7)%10)/10
	y = float64((i/side)%side) + 0.3*float64((i*13)%10)/10
	z = float64(i/(side*side)) + 0.3*float64((i*29)%10)/10
	return x, y, z
}

func (w *water) Body(tid int) threads.Body {
	return func(ctx *threads.Ctx) error {
		if tid == 0 {
			v, err := ctx.F64(w.mol, 0, w.nmol*wRec, vm.Write)
			if err != nil {
				return err
			}
			for i := 0; i < w.nmol; i++ {
				x, y, z := w.initPos(i)
				base := i * wRec
				// Three atoms at small rigid offsets around the
				// centre.
				for a := 0; a < 3; a++ {
					v.Set(base+wPos+3*a, x+0.05*float64(a))
					v.Set(base+wPos+3*a+1, y-0.05*float64(a))
					v.Set(base+wPos+3*a+2, z)
				}
			}
			ctx.Compute(w.nmol * wRec)
		}
		ctx.Barrier()

		start, count := BlockRange(w.nmol, w.threads, tid)
		window := w.nmol / 2
		// The thread's private force scratch: f[mol] accumulates its
		// contributions to molecule mol, hit[mol] marks the molecules
		// it touched. merge writes both back to zero.
		f, hit := make([][3]float64, w.nmol), make([]bool, w.nmol)
		for iter := 0; iter < w.iters; iter++ {
			// Force phase: private accumulation over own block ×
			// half-window.
			if err := w.forces(ctx, start, count, window, f, hit); err != nil {
				return err
			}
			ctx.Barrier()
			// Merge phase: per-block locks serialize updates to
			// each owner's force fields.
			if err := w.merge(ctx, f, hit); err != nil {
				return err
			}
			ctx.Barrier()
			// Integrate own molecules.
			if err := w.integrate(ctx, start, count); err != nil {
				return err
			}
			if w.verify && iter == w.iters-1 {
				ctx.Barrier()
				if tid == 0 {
					if err := w.check(ctx); err != nil {
						return err
					}
				}
			}
			ctx.EndIteration()
		}
		return nil
	}
}

// pairForce is a capped inverse-square attraction/repulsion between
// molecule centres.
func pairForce(xi, yi, zi, xj, yj, zj float64) (fx, fy, fz float64) {
	dx, dy, dz := xj-xi, yj-yi, zj-zi
	r2 := dx*dx + dy*dy + dz*dz + 0.25 // softened
	inv := 1 / (r2 * math.Sqrt(r2))
	// Repulsive core, weak attraction tail.
	s := inv - 0.02/r2
	return s * dx, s * dy, s * dz
}

func (w *water) forces(ctx *threads.Ctx, start, count, window int, f [][3]float64, hit []bool) error {
	// Each molecule of our block reads its own positions as one span,
	// then each partner's in the half-window that follows it
	// (wrapping) as one span each.
	for i := start; i < start+count; i++ {
		base := i * wRec
		me, err := ctx.F64(w.mol, base+wPos, 3, vm.Read)
		if err != nil {
			return err
		}
		xi, yi, zi := me.Get(0), me.Get(1), me.Get(2)
		for k := 1; k <= window; k++ {
			j := (i + k) % w.nmol
			// With an even molecule count the k = n/2 pair would
			// be visited from both ends; keep only one.
			if k == window && w.nmol%2 == 0 && i > j {
				continue
			}
			other, err := ctx.F64(w.mol, j*wRec+wPos, 3, vm.Read)
			if err != nil {
				return err
			}
			fx, fy, fz := pairForce(xi, yi, zi, other.Get(0), other.Get(1), other.Get(2))
			f[i] = [3]float64{f[i][0] + fx, f[i][1] + fy, f[i][2] + fz}
			f[j] = [3]float64{f[j][0] - fx, f[j][1] - fy, f[j][2] - fz}
			hit[i], hit[j] = true, true
		}
		ctx.Compute(window * 12)
	}
	return nil
}

// merge adds this thread's private force contributions into the shared
// force fields under the owning block's lock: block by block in lock
// order, each block's touched molecules in ascending order. It clears
// the scratch as it goes.
func (w *water) merge(ctx *threads.Ctx, f [][3]float64, hit []bool) error {
	for b := 0; b < w.threads; b++ {
		start, count := BlockRange(w.nmol, w.threads, b)
		lock, n := waterLockBase+int32(b), 0
		for mol := start; mol < start+count; mol++ {
			if !hit[mol] {
				continue
			}
			if n == 0 {
				if err := ctx.Lock(lock); err != nil {
					return err
				}
			}
			n++
			fv, err := ctx.F64(w.mol, mol*wRec+wForce, 3, vm.Write)
			if err != nil {
				return err
			}
			fv.Set(0, fv.Get(0)+f[mol][0])
			fv.Set(1, fv.Get(1)+f[mol][1])
			fv.Set(2, fv.Get(2)+f[mol][2])
			f[mol], hit[mol] = [3]float64{}, false
		}
		if n == 0 {
			continue
		}
		if err := ctx.Unlock(lock); err != nil {
			return err
		}
		ctx.Compute(n * 6)
	}
	return nil
}

func (w *water) integrate(ctx *threads.Ctx, start, count int) error {
	v, err := ctx.F64(w.mol, start*wRec, count*wRec, vm.Write)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		base := i * wRec
		for d := 0; d < 3; d++ {
			f := v.Get(base + wForce + d)
			vel := v.Get(base+wVel+d) + f*waterDT
			v.Set(base+wVel+d, vel)
			// Move all three atoms rigidly.
			for a := 0; a < 3; a++ {
				p := v.Get(base + wPos + 3*a + d)
				v.Set(base+wPos+3*a+d, p+vel*waterDT)
			}
			v.Set(base+wAcc+d, f)
			v.Set(base+wForce+d, 0)
		}
	}
	ctx.Compute(count * 30)
	return nil
}

// check verifies momentum conservation (forces are applied antisymmetric
// pairs, so total velocity must remain ~0) and that positions are finite.
func (w *water) check(ctx *threads.Ctx) error {
	v, err := ctx.F64(w.mol, 0, w.nmol*wRec, vm.Read)
	if err != nil {
		return err
	}
	var px, py, pz float64
	for i := 0; i < w.nmol; i++ {
		base := i * wRec
		px += v.Get(base + wVel)
		py += v.Get(base + wVel + 1)
		pz += v.Get(base + wVel + 2)
		for s := 0; s < 9; s++ {
			if p := v.Get(base + wPos + s); math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("apps: Water: molecule %d position not finite", i)
			}
		}
	}
	tol := 1e-9 * float64(w.nmol)
	if math.Abs(px) > tol || math.Abs(py) > tol || math.Abs(pz) > tol {
		return fmt.Errorf("apps: Water: momentum drift (%g, %g, %g)", px, py, pz)
	}
	return nil
}
