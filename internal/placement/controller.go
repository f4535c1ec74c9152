package placement

import (
	"errors"
	"fmt"

	"actdsm/internal/core"
	"actdsm/internal/dsm"
	"actdsm/internal/threads"
)

// ControllerConfig tunes the online placement controller (placement v2,
// DESIGN.md §14). The trigger/hysteresis/budget structure follows the
// NUMA migration-strategy taxonomy: a periodic trigger bounds decision
// overhead, hysteresis suppresses low-gain churn, and per-epoch move
// budgets bound migration rate.
type ControllerConfig struct {
	// TrackIteration is the 0-based iteration the facade arms the
	// tracker for when the user has not armed one (default 1, skipping
	// the initialization-skewed iteration 0). The controller itself
	// ignores it; it evaluates whenever its tracker has a complete
	// window.
	TrackIteration int
	// Period is the minimum number of iterations between controller
	// evaluations (default 2). With Retrack the controller re-arms the
	// tracker so a fresh window is ready for the next evaluation.
	Period int
	// Hysteresis is the minimum fractional joint-cost improvement
	// (predicted new cost vs current) required to act on an evaluation
	// (default 0.05). Evaluations below it count as PlacementSkipped.
	Hysteresis float64
	// ThreadBudget caps thread migrations per applied evaluation:
	// 0 disables the thread side entirely, negative is unbounded.
	ThreadBudget int
	// HomeBudget caps explicit page-home moves per applied evaluation:
	// 0 disables the data side entirely, negative is unbounded.
	HomeBudget int
	// Smoothing is the EWMA weight of the newest correlation matrix
	// (default 0.5, in (0, 1]). Smoothing < 1 blends successive tracked
	// windows so an alternating two-phase workload converges to its
	// average instead of dragging placement back and forth.
	Smoothing float64
	// Retrack re-arms the tracker after each evaluation so the
	// controller keeps adapting (default true via NewController's
	// DefaultControllerConfig; zero-value false leaves the single
	// armed window).
	Retrack bool
}

// DefaultControllerConfig returns the controller defaults: evaluate
// every 2 iterations over an EWMA-smoothed matrix, act above 5%
// predicted improvement, unbounded budgets, continuous re-tracking.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		TrackIteration: 1,
		Period:         2,
		Hysteresis:     0.05,
		ThreadBudget:   -1,
		HomeBudget:     -1,
		Smoothing:      0.5,
		Retrack:        true,
	}
}

// Controller is the reactive online placement controller: at iteration
// boundaries (threads parked) it scores the current joint (thread →
// node, page → home) assignment under the unified cost model and, when
// a budgeted candidate improves it past the hysteresis threshold,
// issues thread migrations and explicit page-home moves together — so
// the two sides cannot fight (threads chasing data a separate home rule
// just moved away). Decisions and move counts surface in
// dsm.Stats (PlacementTriggers/Applied/Skipped/ThreadMoves/HomeMoves).
type Controller struct {
	cfg     ControllerConfig
	cluster *dsm.Cluster
	engine  *threads.Engine
	tracker *core.ActiveTracker

	smoothed []float64 // EWMA-blended correlation, row-major threads×threads
	prevHist [][]int64 // WriteHistory snapshot at the previous evaluation
	nextEval int       // first iteration eligible for the next evaluation
	err      error     // first apply-side failure (sticky)
}

// NewController builds a controller over a cluster, engine, and an
// armed active tracker (the tracker supplies the correlation matrix and
// access bitmaps; the caller composes hooks so the tracker wraps the
// controller — see Hooks). Zero config fields take their defaults; a
// home budget other than 0 requires the multi-writer protocol (explicit
// home moves ride barrier releases).
func NewController(cl *dsm.Cluster, eng *threads.Engine, tracker *core.ActiveTracker, cfg ControllerConfig) (*Controller, error) {
	if cl == nil || eng == nil || tracker == nil {
		return nil, errors.New("placement: controller needs a cluster, an engine, and a tracker")
	}
	if cfg.Period <= 0 {
		cfg.Period = 2
	}
	if cfg.Smoothing <= 0 || cfg.Smoothing > 1 {
		cfg.Smoothing = 0.5
	}
	if cfg.Hysteresis < 0 {
		return nil, fmt.Errorf("placement: negative hysteresis %v", cfg.Hysteresis)
	}
	return &Controller{cfg: cfg, cluster: cl, engine: eng, tracker: tracker}, nil
}

// Err returns the first error the controller hit applying a decision
// (nil when none). Hook callbacks cannot return errors; check after the
// run.
func (c *Controller) Err() error { return c.err }

// Hooks wraps next with the controller's iteration callback. Compose so
// the tracker wraps the controller (tracker.Hooks(ctrl.Hooks(user))):
// the tracker finishes its window bookkeeping first, so the controller
// sees a complete matrix in the same iteration the window closes.
func (c *Controller) Hooks(next threads.Hooks) threads.Hooks {
	return threads.Hooks{
		OnIteration: func(iter int) {
			c.onIteration(iter)
			if next.OnIteration != nil {
				next.OnIteration(iter)
			}
		},
		OnBarrier:   next.OnBarrier,
		OnThreadRun: next.OnThreadRun,
	}
}

// blend folds the newest correlation matrix into the EWMA state and
// returns the blended matrix (entries rounded to int64 for the discrete
// heuristics).
func (c *Controller) blend(m *core.Matrix) *core.Matrix {
	n := m.N()
	if len(c.smoothed) != n*n {
		c.smoothed = make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c.smoothed[i*n+j] = float64(m.At(i, j))
			}
		}
	} else {
		a := c.cfg.Smoothing
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				c.smoothed[i*n+j] = a*float64(m.At(i, j)) + (1-a)*c.smoothed[i*n+j]
			}
		}
	}
	out := core.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			// Round symmetrically; +0.5 keeps sub-unit blended sharing
			// from vanishing entirely.
			out.Set(i, j, int64(c.smoothed[i*n+j]+0.5))
		}
	}
	return out
}

// onIteration runs one controller evaluation when the tracker has a
// complete window and the trigger period has elapsed. All threads are
// parked: placement reads and migrations are safe.
func (c *Controller) onIteration(iter int) {
	if !c.tracker.Done() || iter < c.nextEval {
		// Keep the write window aligned with the tracked window: rolling
		// the snapshot forward on idle iterations keeps initialization
		// writes (thread 0 populating the whole segment) and long-stale
		// traffic out of the next evaluation's delta.
		c.prevHist = c.cluster.WriteHistory()
		return
	}
	c.nextEval = iter + c.cfg.Period
	st := c.cluster.Stats()
	st.PlacementTriggers.Add(1)

	nodes := c.cluster.NumNodes()
	sm := c.blend(c.tracker.Matrix())
	cur := c.engine.Placement()
	homes := c.cluster.Homes()
	hist := c.cluster.WriteHistory()
	writes := subHistory(hist, c.prevHist)
	c.prevHist = hist
	in := CostInput{
		Matrix:  sm,
		Bitmaps: c.tracker.Bitmaps(),
		Writes:  writes,
		Topo:    c.cluster.Topology(),
		Nodes:   nodes,
	}
	curCost := JointCost(in, cur, homes)

	// Thread side: the paper's min-cost heuristic on the smoothed
	// matrix — capacity-aware on heterogeneous topologies, so slow
	// nodes host proportionally fewer threads — labels aligned to
	// minimize moves, clamped to the budget (keeping the individually
	// best moves when over).
	target := cur
	if c.cfg.ThreadBudget != 0 {
		t := AlignLabels(c.minCostTarget(sm, nodes), cur, nodes)
		moves := Plan(cur, t, nodes)
		if c.cfg.ThreadBudget > 0 && len(moves) > c.cfg.ThreadBudget {
			moves = topThreadMoves(in, cur, homes, moves, c.cfg.ThreadBudget)
		}
		if len(moves) > 0 {
			target = append([]int(nil), cur...)
			for _, mv := range moves {
				target[mv.Thread] = mv.To
			}
		}
	}

	// Data side: best home per priced page under the candidate thread
	// assignment, budget-clamped by gain.
	homeMoves := BestHomes(in, target, homes, c.cfg.HomeBudget)
	newHomes := homes
	if len(homeMoves) > 0 {
		newHomes = append([]int(nil), homes...)
		for _, hm := range homeMoves {
			newHomes[hm.Page] = hm.To
		}
	}

	// Hysteresis: act only when the joint prediction clears the
	// threshold; otherwise record the skip and leave placement alone.
	newCost := JointCost(in, target, newHomes)
	if curCost <= 0 || curCost-newCost <= c.cfg.Hysteresis*curCost {
		st.PlacementSkipped.Add(1)
	} else {
		moved, err := c.engine.ApplyPlacement(target)
		if err != nil && c.err == nil {
			c.err = fmt.Errorf("placement: controller apply at iteration %d: %w", iter, err)
		}
		st.PlacementThreadMoves.Add(int64(moved))
		if len(homeMoves) > 0 {
			mv := make(map[int]int, len(homeMoves))
			for _, hm := range homeMoves {
				mv[hm.Page] = hm.To
			}
			if err := c.cluster.QueueHomeMoves(mv); err != nil && c.err == nil {
				c.err = fmt.Errorf("placement: controller home moves at iteration %d: %w", iter, err)
			}
		}
		st.PlacementApplied.Add(1)
	}

	if c.cfg.Retrack {
		// Re-arm for the window before the next eligible evaluation.
		// Inside OnIteration(iter) the engine is already at iter+1, and
		// Retrack requires a strictly future iteration.
		next := c.nextEval
		if next < iter+2 {
			next = iter + 2
		}
		// The only failure mode is the run ending before the window —
		// harmless, so the error is not sticky.
		_ = c.tracker.Retrack(next)
	}
}

// minCostTarget computes the thread side's target placement: the
// balanced min-cost heuristic on a uniform cluster, the capacity-aware
// variant (capacities proportional to inverse compute scale) when the
// topology is heterogeneous — piling a balanced share onto a 2x-slow
// node would trade the saved communication for compute serialization.
func (c *Controller) minCostTarget(m *core.Matrix, nodes int) []int {
	topo := c.cluster.Topology()
	if topo == nil {
		return MinCost(m, nodes)
	}
	speeds := make([]float64, nodes)
	uniform := true
	for n := 0; n < nodes; n++ {
		scale := topo.ComputeScale(n)
		if scale <= 0 {
			scale = 1
		}
		speeds[n] = 1 / scale
		if scale != 1 {
			uniform = false
		}
	}
	if uniform {
		return MinCost(m, nodes)
	}
	caps, err := CapacitiesForSpeeds(m.N(), speeds)
	if err != nil {
		return MinCost(m, nodes)
	}
	target, err := MinCostCapacities(m, caps)
	if err != nil {
		return MinCost(m, nodes)
	}
	return target
}

// topThreadMoves keeps the budget's individually best moves by
// single-move joint-cost improvement (ties: lower thread id first, for
// determinism).
func topThreadMoves(in CostInput, cur []int, homes []int, moves []Move, budget int) []Move {
	type scored struct {
		mv   Move
		gain float64
	}
	base := JointCost(in, cur, homes)
	ranked := make([]scored, 0, len(moves))
	trial := append([]int(nil), cur...)
	for _, mv := range moves {
		trial[mv.Thread] = mv.To
		ranked = append(ranked, scored{mv, base - JointCost(in, trial, homes)})
		trial[mv.Thread] = cur[mv.Thread]
	}
	// Insertion-sort by gain descending, thread ascending on ties: the
	// move lists here are small (bounded by thread count).
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0; j-- {
			a, b := ranked[j-1], ranked[j]
			if b.gain > a.gain || (b.gain == a.gain && b.mv.Thread < a.mv.Thread) {
				ranked[j-1], ranked[j] = b, a
			} else {
				break
			}
		}
	}
	out := make([]Move, 0, budget)
	for i := 0; i < budget && i < len(ranked); i++ {
		out = append(out, ranked[i].mv)
	}
	return out
}

// subHistory returns cur - prev element-wise (prev nil or short rows
// count as zero).
func subHistory(cur, prev [][]int64) [][]int64 {
	out := make([][]int64, len(cur))
	for p, row := range cur {
		d := append([]int64(nil), row...)
		if p < len(prev) {
			for i := range d {
				if i < len(prev[p]) {
					d[i] -= prev[p][i]
				}
			}
		}
		out[p] = d
	}
	return out
}
