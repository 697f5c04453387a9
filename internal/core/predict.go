package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"pktpredict/internal/apps"
	"pktpredict/internal/hw"
)

// CurvePoint is one sample of a target flow's drop-versus-competition
// profile.
type CurvePoint struct {
	CompetingRefsPerSec float64
	Drop                float64
}

// Curve is a flow type's contention profile: measured performance drop as
// a function of aggregate competing L3 references per second, obtained by
// co-running the flow with SYN competitors at ramped rates (the paper's
// Section 4, step 2).
type Curve struct {
	Target apps.FlowType
	Points []CurvePoint // sorted by CompetingRefsPerSec, first is (0,0)
}

// DropAt interpolates the curve linearly at the given competition level;
// beyond the last measured point the curve is held flat, which the
// paper's "turning point" observation justifies.
func (c Curve) DropAt(refsPerSec float64) float64 {
	pts := c.Points
	if len(pts) == 0 || refsPerSec <= 0 {
		return 0
	}
	if refsPerSec >= pts[len(pts)-1].CompetingRefsPerSec {
		return pts[len(pts)-1].Drop
	}
	for i := 1; i < len(pts); i++ {
		if refsPerSec <= pts[i].CompetingRefsPerSec {
			x0, y0 := pts[i-1].CompetingRefsPerSec, pts[i-1].Drop
			x1, y1 := pts[i].CompetingRefsPerSec, pts[i].Drop
			if x1 == x0 {
				return y1
			}
			return y0 + (y1-y0)*(refsPerSec-x0)/(x1-x0)
		}
	}
	return pts[len(pts)-1].Drop
}

// String renders the curve compactly.
func (c Curve) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", c.Target)
	for _, p := range c.Points {
		fmt.Fprintf(&b, " (%.0fM,%.1f%%)", p.CompetingRefsPerSec/1e6, p.Drop*100)
	}
	return b.String()
}

// DefaultSweepGrid is the set of SYN compute-per-access values used to
// ramp competing references per second, from idle competitors to
// SYN_MAX. Lower compute means more refs/sec.
var DefaultSweepGrid = []int{3200, 1600, 800, 400, 200, 100, 50, 25, 0}

// Predictor implements the paper's three-step prediction method over a
// fixed platform configuration and workload scale. It memoises solo
// profiles and sweep curves: everything is derived from offline profiling
// and reused across predictions, exactly as an operator would use it.
//
// A Predictor is safe for concurrent use. Its simulations are
// independent deterministic-engine runs, each on its own platform with
// seeds fixed by flow type and slot, so it runs them concurrently —
// at most GOMAXPROCS (read by NewPredictor) at a time — and places each
// result by its index; the outputs are bit-identical to a serial run.
// A failed simulation's error is memoised like a result.
type Predictor struct {
	Cfg       hw.Config
	Params    apps.Params
	Warmup    float64
	Window    float64
	SweepGrid []int
	// Competitors is the number of SYN co-runners used in sweeps (the
	// paper uses 5: one target plus five competitors fill a socket).
	Competitors int

	slots chan struct{} // one token per simulation in flight

	solo   memo[apps.FlowType, hw.FlowStats]
	curves memo[apps.FlowType, Curve]
	sweeps memo[apps.FlowType, []SweepSample]
	mixes  memo[string, []hw.FlowStats]
}

// memo is a concurrency-safe memo table: the first caller of a key
// computes its value, and concurrent callers of the key wait for it.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	cells map[K]*memoCell[V]
}

type memoCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (m *memo[K, V]) get(k K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.cells == nil {
		m.cells = make(map[K]*memoCell[V])
	}
	c := m.cells[k]
	if c == nil {
		c = new(memoCell[V])
		m.cells[k] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.v, c.err = compute() })
	return c.v, c.err
}

// SweepSample is one full measurement of a sweep run: the aggregate
// competition and the target's complete window statistics, from which
// both the drop curve and hit-to-miss conversion rates (Figure 7) are
// derived.
type SweepSample struct {
	CompetingRefsPerSec float64
	Target              hw.FlowStats
}

// NewPredictor builds a predictor with the paper's sweep setup.
func NewPredictor(cfg hw.Config, params apps.Params, warmup, window float64) *Predictor {
	return &Predictor{
		Cfg:         cfg,
		Params:      params,
		Warmup:      warmup,
		Window:      window,
		SweepGrid:   DefaultSweepGrid,
		Competitors: cfg.CoresPerSocket - 1,
		slots:       make(chan struct{}, runtime.GOMAXPROCS(0)),
	}
}

// Simulate runs fn while holding one of the predictor's simulation
// slots, so that simulations a caller runs beside the predictor's own
// (such as runtime baselines taken while profiling) share its GOMAXPROCS
// bound. fn must not call back into the predictor.
func (p *Predictor) Simulate(fn func() error) error {
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	return fn()
}

// run builds and measures one scenario in a simulation slot.
func (p *Predictor) run(flows []FlowSpec) (*RunResult, error) {
	var res *RunResult
	err := p.Simulate(func() (err error) {
		res, err = Scenario{Cfg: p.Cfg, Params: p.Params, Flows: flows,
			Warmup: p.Warmup, Window: p.Window}.Run()
		return err
	})
	return res, err
}

// Solo returns the memoised solo-run statistics of flow type t — the
// offline profile from which both the flow's aggressiveness (refs/sec)
// and its baseline throughput are read.
func (p *Predictor) Solo(t apps.FlowType) (hw.FlowStats, error) {
	return p.solo.get(t, func() (hw.FlowStats, error) {
		res, err := p.run([]FlowSpec{{Type: t, Core: 0, Domain: 0, Seed: SeedFor(t, 0)}})
		if err != nil {
			return hw.FlowStats{}, err
		}
		return res.Stats[0], nil
	})
}

// Sweep returns the memoised sweep samples of flow type t: the target's
// full statistics when co-running with SYN competitors at each grid rate
// (step 2 of the method), sorted by competition. The grid points run
// concurrently; each lands at its grid index, so the sort sees the same
// input order as a serial sweep.
func (p *Predictor) Sweep(t apps.FlowType) ([]SweepSample, error) {
	return p.sweeps.get(t, func() ([]SweepSample, error) {
		samples := make([]SweepSample, len(p.SweepGrid))
		errs := make([]error, len(p.SweepGrid))
		var wg sync.WaitGroup
		for i, k := range p.SweepGrid {
			wg.Add(1)
			go func() {
				defer wg.Done()
				samples[i], errs[i] = p.sweepPoint(t, k)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		sort.Slice(samples, func(i, j int) bool {
			return samples[i].CompetingRefsPerSec < samples[j].CompetingRefsPerSec
		})
		return samples, nil
	})
}

// sweepPoint co-runs t with the SYN competitors at compute setting k.
func (p *Predictor) sweepPoint(t apps.FlowType, k int) (SweepSample, error) {
	flows := []FlowSpec{{Type: t, Core: 0, Domain: 0, Seed: SeedFor(t, 0)}}
	for i := 1; i <= p.Competitors; i++ {
		flows = append(flows, FlowSpec{
			Type: apps.SYN, Core: i, Domain: 0,
			Seed: SeedFor(apps.SYN, i), SynCompute: k,
		})
	}
	res, err := p.run(flows)
	if err != nil {
		return SweepSample{}, err
	}
	var competing float64
	for i := 1; i <= p.Competitors; i++ {
		competing += res.Stats[i].L3RefsPerSec()
	}
	return SweepSample{CompetingRefsPerSec: competing, Target: res.Stats[0]}, nil
}

// Curve returns the memoised drop-versus-competition curve of flow type
// t, derived from the sweep samples. The solo run overlaps the sweep.
func (p *Predictor) Curve(t apps.FlowType) (Curve, error) {
	return p.curves.get(t, func() (Curve, error) {
		var solo hw.FlowStats
		var soloErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			solo, soloErr = p.Solo(t)
		}()
		samples, err := p.Sweep(t)
		<-done
		if soloErr != nil {
			return Curve{}, soloErr
		}
		if err != nil {
			return Curve{}, err
		}
		curve := Curve{Target: t, Points: []CurvePoint{{0, 0}}}
		for _, s := range samples {
			curve.Points = append(curve.Points, CurvePoint{
				CompetingRefsPerSec: s.CompetingRefsPerSec,
				Drop:                hw.PerformanceDrop(solo, s.Target),
			})
		}
		return curve, nil
	})
}

// Prediction is the predicted contention-induced drop for one flow.
type Prediction struct {
	Target              apps.FlowType
	CompetingRefsPerSec float64 // assumed competition (sum of solo rates)
	Drop                float64
}

// Predict runs the paper's step 3: sum the competitors' solo refs/sec and
// read the target's curve at that level.
func (p *Predictor) Predict(target apps.FlowType, competitors []apps.FlowType) (Prediction, error) {
	var sum float64
	for _, c := range competitors {
		s, err := p.Solo(c)
		if err != nil {
			return Prediction{}, err
		}
		sum += s.L3RefsPerSec()
	}
	curve, err := p.Curve(target)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{Target: target, CompetingRefsPerSec: sum, Drop: curve.DropAt(sum)}, nil
}

// PredictAt reads the target's curve at a known competition level — the
// paper's "prediction assuming perfect knowledge of the competition"
// (Figure 8(b)), where the competitors' actual co-run refs/sec replace
// the solo-run estimate.
func (p *Predictor) PredictAt(target apps.FlowType, competingRefsPerSec float64) (Prediction, error) {
	curve, err := p.Curve(target)
	if err != nil {
		return Prediction{}, err
	}
	return Prediction{
		Target:              target,
		CompetingRefsPerSec: competingRefsPerSec,
		Drop:                curve.DropAt(competingRefsPerSec),
	}, nil
}

// mixKey canonicalises a multiset of flow types.
func mixKey(mix []apps.FlowType) string {
	s := make([]string, len(mix))
	for i, t := range mix {
		s[i] = string(t)
	}
	sort.Strings(s)
	return strings.Join(s, ",")
}

// MeasureMix co-runs the given flows on one socket (cores 0..n-1, data
// local) and returns their window statistics, memoised by multiset. The
// slice is ordered by the sorted multiset, not the input order.
func (p *Predictor) MeasureMix(mix []apps.FlowType) ([]hw.FlowStats, []apps.FlowType, error) {
	if len(mix) == 0 || len(mix) > p.Cfg.CoresPerSocket {
		return nil, nil, fmt.Errorf("core: mix of %d flows does not fit a %d-core socket",
			len(mix), p.Cfg.CoresPerSocket)
	}
	sorted := append([]apps.FlowType(nil), mix...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	stats, err := p.mixes.get(mixKey(sorted), func() ([]hw.FlowStats, error) {
		flows := make([]FlowSpec, len(sorted))
		for i, t := range sorted {
			flows[i] = FlowSpec{Type: t, Core: i, Domain: 0, Seed: SeedFor(t, i)}
		}
		res, err := p.run(flows)
		if err != nil {
			return nil, err
		}
		return res.Stats, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return stats, sorted, nil
}

// MeasuredDrops returns each flow's measured contention-induced drop in
// the given mix, ordered like MeasureMix's sorted result.
func (p *Predictor) MeasuredDrops(mix []apps.FlowType) ([]float64, []apps.FlowType, error) {
	stats, sorted, err := p.MeasureMix(mix)
	if err != nil {
		return nil, nil, err
	}
	drops := make([]float64, len(sorted))
	for i, t := range sorted {
		solo, err := p.Solo(t)
		if err != nil {
			return nil, nil, err
		}
		drops[i] = hw.PerformanceDrop(solo, stats[i])
	}
	return drops, sorted, nil
}

// PredictMix predicts every flow's drop in a mix from solo profiles only.
// Results are ordered like MeasureMix's sorted order so measured and
// predicted values align index-wise.
func (p *Predictor) PredictMix(mix []apps.FlowType) ([]Prediction, []apps.FlowType, error) {
	sorted := append([]apps.FlowType(nil), mix...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	preds := make([]Prediction, len(sorted))
	for i, t := range sorted {
		competitors := make([]apps.FlowType, 0, len(sorted)-1)
		competitors = append(competitors, sorted[:i]...)
		competitors = append(competitors, sorted[i+1:]...)
		pr, err := p.Predict(t, competitors)
		if err != nil {
			return nil, nil, err
		}
		preds[i] = pr
	}
	return preds, sorted, nil
}
