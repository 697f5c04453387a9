package runtime

import (
	"slices"
	"sync"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/hw"
)

// ProfileFlows runs the paper's offline profiling for the given flow
// types on the deterministic engine: a solo run per type (Table 1) and a
// SYN competition sweep per type (the drop-versus-competition curve).
// The result plugs straight into Config.Profiles, giving the runtime its
// admission limits, drop baselines, and prediction curves — the exact
// artefacts an operator would ship from a profiling testbed to
// production.
//
// Flow types, their sweep points and their element-baseline runs all
// proceed concurrently, at most GOMAXPROCS simulations at a time (see
// core.Predictor); the engine outputs equal a serial run's bit for bit.
func ProfileFlows(cfg hw.Config, params apps.Params, warmup, window float64, grid []int, types []apps.FlowType) (map[apps.FlowType]FlowProfile, error) {
	p := core.NewPredictor(cfg, params, warmup, window)
	if len(grid) > 0 {
		p.SweepGrid = grid
	}
	var uniq []apps.FlowType
	for _, t := range types {
		if !slices.Contains(uniq, t) {
			uniq = append(uniq, t)
		}
	}
	profs := make([]FlowProfile, len(uniq))
	errs := make([]error, len(uniq))
	var wg sync.WaitGroup
	for i, t := range uniq {
		wg.Add(1)
		go func() {
			defer wg.Done()
			profs[i], errs[i] = profileFlow(p, cfg, params, t, warmup, window)
		}()
	}
	wg.Wait()
	out := make(map[apps.FlowType]FlowProfile, len(uniq))
	for i, t := range uniq {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[t] = profs[i]
	}
	return out, nil
}

// profileFlow profiles one flow type: the predictor's solo run and
// curve, and — beside them, in one of the predictor's slots — the
// runtime's per-element baselines.
func profileFlow(p *core.Predictor, cfg hw.Config, params apps.Params, t apps.FlowType, warmup, window float64) (FlowProfile, error) {
	var elems map[string]ElemBaseline
	var elemErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		if t.Synthetic() {
			return
		}
		// Per-element baselines come from a brief solo run on the
		// runtime itself rather than the engine: the runtime's build
		// path (graph surgery, receive rings, recycling) is the one
		// the live tables will measure, so node names and overhead
		// attribution match exactly.
		elemErr = p.Simulate(func() (err error) {
			elems, err = soloElementBaselines(cfg, params, t, warmup, window)
			return err
		})
	}()
	curve, curveErr := p.Curve(t)
	solo, soloErr := p.Solo(t)
	<-done
	for _, err := range []error{soloErr, curveErr, elemErr} {
		if err != nil {
			return FlowProfile{}, err
		}
	}
	return FlowProfile{
		SoloPPS:        solo.Throughput(),
		SoloRefsPerSec: solo.L3RefsPerSec(),
		Curve:          curve,
		Elements:       elems,
	}, nil
}

// soloElementBaselines measures one flow type's per-element per-packet
// costs with a single saturated replica and no co-runners — the offline
// side of online drift detection.
func soloElementBaselines(cfg hw.Config, params apps.Params, t apps.FlowType, warmup, window float64) (map[string]ElemBaseline, error) {
	rt, err := NewRuntime(Config{
		Cfg:    cfg,
		Params: params,
		Apps:   []AppSpec{{Name: "solo", Type: t, Workers: 1}},
		Warmup: warmup,
	})
	if err != nil {
		return nil, err
	}
	if _, err := rt.Run(window); err != nil {
		return nil, err
	}
	return rt.ElementBaselines(), nil
}

// ElementBaselines aggregates per-element costs since measurement start
// across every flow of the runtime, per packet entering a flow. Call it
// after Run returns (no workers are writing the tables then). It is
// meant for single-type profiling runs; a mixed runtime folds all apps'
// same-named elements together.
func (r *Runtime) ElementBaselines() map[string]ElemBaseline {
	totals := map[string]hw.ElemCell{}
	var pkts uint64
	add := func(f *flow, cur, base []hw.ElemCell) {
		nodes := f.pipe.Nodes()
		for i := range cur {
			var b hw.ElemCell
			if i < len(base) {
				b = base[i]
			}
			d := cur[i].Sub(b)
			name := overheadElem
			if i > 0 {
				name = nodes[i-1].Name
			}
			c := totals[name]
			c.Cycles += d.Cycles
			c.L3Refs += d.L3Refs
			c.L3Hits += d.L3Hits
			c.L3Misses += d.L3Misses
			totals[name] = c
		}
	}
	for _, f := range r.flows {
		if f.pipe == nil {
			continue
		}
		pkts += f.packets
		add(f, f.elems, f.baseElems)
		for _, u := range f.stages {
			add(f, u.elems, u.baseElems)
		}
	}
	if pkts == 0 {
		return nil
	}
	out := make(map[string]ElemBaseline, len(totals))
	for name, c := range totals {
		out[name] = ElemBaseline{
			CyclesPerPacket: float64(c.Cycles) / float64(pkts),
			RefsPerPacket:   float64(c.L3Refs) / float64(pkts),
		}
	}
	return out
}
