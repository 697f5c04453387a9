package main

import (
	"encoding/json"
	"io"
	"time"

	"pktpredict/internal/apps"
	"pktpredict/internal/core"
	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
)

// span is one timed call from the benchmark into a layer of the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"` // e.g. the profiled flow type
	Start  float64 `json:"start_s"`          // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced path shares the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, detail string, parent int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Detail: detail,
		Start: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// total sums the durations of every span with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.spans)
}

// setUp goes from scenario text to a ready runtime: parse, offline
// profiling and NewRuntime. The returned configuration carries the
// profiles, so later runs rebuild from it without profiling again.
//
// Untraced (tr == nil), profiling is one runtime.ProfileFlows call, as a
// user makes it. Traced, the same work is split into spans around
// core.Predictor.Solo, Predictor.Curve and the element-baseline solo
// run; its profile_digest must equal the untraced one.
func setUp(text string, scale exp.Scale, tr *tracer) (runtime.Config, *runtime.Runtime, error) {
	root := tr.begin("setup", "", 0)
	defer tr.end(root)

	sp := tr.begin("scenario.load", "", root)
	cfg, err := loadScenario(text, scale)
	tr.end(sp)
	if err != nil {
		return cfg, nil, err
	}

	sp = tr.begin("profile", "", root)
	if tr == nil {
		cfg.Profiles, err = runtime.ProfileFlows(cfg.Cfg, cfg.Params, scale.Warmup, scale.Window,
			scale.SweepGrid, cfg.FlowTypes())
	} else {
		cfg.Profiles, err = profileSplit(cfg, scale, tr, sp)
	}
	tr.end(sp)
	if err != nil {
		return cfg, nil, err
	}

	sp = tr.begin("runtime.build", "", root)
	rt, err := runtime.NewRuntime(cfg)
	tr.end(sp)
	return cfg, rt, err
}

// profileSplit does what runtime.ProfileFlows does, one public call at a
// time, so that each call gets its own span.
func profileSplit(cfg runtime.Config, scale exp.Scale, tr *tracer, parent int) (map[apps.FlowType]runtime.FlowProfile, error) {
	p := core.NewPredictor(cfg.Cfg, cfg.Params, scale.Warmup, scale.Window)
	p.SweepGrid = scale.SweepGrid
	out := map[apps.FlowType]runtime.FlowProfile{}
	for _, t := range cfg.FlowTypes() {
		if _, done := out[t]; done {
			continue
		}
		sp := tr.begin("profile.solo", string(t), parent)
		solo, err := p.Solo(t)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("profile.curve", string(t), parent)
		curve, err := p.Curve(t)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		prof := runtime.FlowProfile{
			SoloPPS:        solo.Throughput(),
			SoloRefsPerSec: solo.L3RefsPerSec(),
			Curve:          curve,
		}
		if !t.Synthetic() {
			sp = tr.begin("profile.elem", string(t), parent)
			prof.Elements, err = elementBaselines(cfg, scale, t)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
		out[t] = prof
	}
	return out, nil
}

// elementBaselines is ProfileFlows' per-element step: one saturated
// replica of t with no co-runners on the runtime.
func elementBaselines(cfg runtime.Config, scale exp.Scale, t apps.FlowType) (map[string]runtime.ElemBaseline, error) {
	rt, err := runtime.NewRuntime(runtime.Config{
		Cfg:    cfg.Cfg,
		Params: cfg.Params,
		Apps:   []runtime.AppSpec{{Name: "solo", Type: t, Workers: 1}},
		Warmup: scale.Warmup,
	})
	if err != nil {
		return nil, err
	}
	if _, err := rt.Run(scale.Window); err != nil {
		return nil, err
	}
	return rt.ElementBaselines(), nil
}
