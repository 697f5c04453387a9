package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pktpredict/internal/apps"
	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
	"pktpredict/internal/scenario"
)

// runVirtualSeconds is the measured virtual time of every Runtime.Run.
// It is long enough for thrash_migrate's control loop to decide and
// perform its swap (around the eleventh quantum) and to settle after it.
const runVirtualSeconds = 0.01

// workload is one benchmark input: a shipped scenario file run on the
// quick-scale platform. README.md says why each was chosen.
type workload struct {
	name string
	file string // scenario file, relative to the checkout root
	// tol bounds each realistic app's |observed − predicted drop|; it is
	// the bound the validation suite applies to the same scenario.
	tol float64
	// seeded reports whether --seed reaches the workload's traffic.
	// Builtin flow types derive their seeds inside the program
	// (core.SeedFor), so only a scenario with a FromDevice source can
	// take one.
	seeded bool
}

var workloads = []workload{
	{name: "mixed", file: "examples/scenarios/mixed.click", tol: 0.15},
	{name: "ids_staged", file: "examples/scenarios/ids_chain_staged.click", tol: 0.15, seeded: true},
	{name: "thrash_migrate", file: "examples/scenarios/thrash_migrate.click", tol: 0.20},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// text returns the workload's scenario text with the seed applied.
func (w workload) text(seed uint64) (string, error) {
	b, err := os.ReadFile(filepath.FromSlash(w.file))
	if err != nil {
		return "", err
	}
	if !w.seeded {
		return string(b), nil
	}
	return seedIDS(string(b), seed)
}

// seedIDS points the IDS chain's traffic at seed: the FromDevice
// source's flow/payload seed and signature seed, and the
// SignatureClassifier's signature seed, which must stay equal to the
// source's so that SIG_HIT remains the exact match rate.
func seedIDS(text string, seed uint64) (string, error) {
	const sig = "SIG_SEED 11"
	if n := strings.Count(text, sig); n != 2 {
		return "", fmt.Errorf("ids scenario: want %q on the source and the classifier, found %d", sig, n)
	}
	text = strings.ReplaceAll(text, sig, fmt.Sprintf("SIG_SEED %d", seed))
	const src = "FromDevice("
	if n := strings.Count(text, src); n != 1 {
		return "", fmt.Errorf("ids scenario: want one %s source, found %d", src, n)
	}
	return strings.Replace(text, src, fmt.Sprintf("%sSEED %d, ", src, seed), 1), nil
}

// loadScenario turns scenario text into a runtime configuration on the
// scale's platform, layered the way cmd/dataplane layers it.
func loadScenario(text string, scale exp.Scale) (runtime.Config, error) {
	sc, err := scenario.Parse(text)
	if err != nil {
		return runtime.Config{}, err
	}
	hwCfg, err := sc.PlatformConfig(scale.Cfg)
	if err != nil {
		return runtime.Config{}, err
	}
	cfg, err := sc.ConfigOn(hwCfg, scale.Params)
	if err != nil {
		return runtime.Config{}, err
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = scale.Warmup
	}
	return cfg, nil
}

// profileDigest hashes the deterministic engine's profile outputs —
// solo pps, solo refs/s and every curve point per flow type — bit for
// bit. Element baselines come from a concurrent runtime run and are
// left out.
func profileDigest(profiles map[apps.FlowType]runtime.FlowProfile) string {
	types := make([]string, 0, len(profiles))
	for t := range profiles {
		types = append(types, string(t))
	}
	sort.Strings(types)
	h := sha256.New()
	for _, t := range types {
		p := profiles[apps.FlowType(t)]
		fmt.Fprintf(h, "%s %x %x", t, math.Float64bits(p.SoloPPS), math.Float64bits(p.SoloRefsPerSec))
		for _, pt := range p.Curve.Points {
			fmt.Fprintf(h, " %x %x", math.Float64bits(pt.CompetingRefsPerSec), math.Float64bits(pt.Drop))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checks counts the benchmark's output checks; a failure is recorded,
// never fatal.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// realistic reports whether an app is a prediction target: not the
// synthetic SYN probe and not the hidden adversary.
func realistic(a runtime.AppReport, cfg runtime.Config) bool {
	if a.Type.Synthetic() {
		return false
	}
	for _, s := range cfg.Apps {
		if s.Name == a.Name {
			return s.HiddenTrigger == 0
		}
	}
	return true
}

// checkReport applies the output checks to one run: packet conservation
// and progress for every app, and the validation suite's prediction
// tolerance for every realistic app.
func checkReport(c *checks, w workload, cfg runtime.Config, rep *runtime.Report) {
	for _, a := range rep.Apps {
		err := a.CheckConservation()
		c.check(err == nil, "conservation: %v", err)
		c.check(a.Processed > 0, "app %s processed no packets", a.Name)
		if realistic(a, cfg) {
			e := a.PredictionError()
			c.check(a.SoloPPS > 0 && math.Abs(e) <= w.tol,
				"app %s: prediction error %+.1fpp exceeds ±%.0fpp (solo pps %.0f)", a.Name, e*100, w.tol*100, a.SoloPPS)
		}
	}
}

// runSample holds one Runtime.Run's end-to-end figures.
type runSample struct {
	hostNSPerPkt float64
	simMpps      float64
	predErrPP    float64
	latP99Cycles float64
}

// sampleOf takes one run's figures; hostNS is the run's host CPU time.
func sampleOf(cfg runtime.Config, rep *runtime.Report, hostNS float64) runSample {
	s := runSample{}
	pkts := float64(rep.TotalProcessed())
	if pkts > 0 {
		s.hostNSPerPkt = hostNS / pkts
	}
	if rep.Duration > 0 {
		s.simMpps = pkts / rep.Duration / 1e6
	}
	for _, a := range rep.Apps {
		if realistic(a, cfg) {
			s.predErrPP = math.Max(s.predErrPP, math.Abs(a.PredictionError())*100)
		}
		s.latP99Cycles = math.Max(s.latP99Cycles, a.LatP99US*cfg.Cfg.ClockHz/1e6)
	}
	return s
}
