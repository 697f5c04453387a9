package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/pprof"
	"time"

	"pktpredict/internal/exp"
	"pktpredict/internal/obs"
	"pktpredict/internal/runtime"
)

// layerTotals pools the traced runs' per-layer counts; ratios are taken
// over the pooled totals.
type layerTotals struct {
	runs      int
	pkts      float64
	cpuNS     map[string]float64 // cpu.* bucket -> CPU ns
	hw        map[string]float64 // dataplane_worker_hw_total by counter
	pushPolls float64
	popPolls  float64
	fillSum   float64 // hand-off ring fill, summed over sampled windows
	fillN     int
	occSum    float64 // worker batch occupancy, summed over workers
	occN      int
	clipped   float64
	offered   float64
	nicDrops  float64
	migr      float64
	copyCyc   float64
	throttles float64
	offWin    float64
	series    int
	allocB    float64
	mallocs   float64
	gcs       float64
	windowsMS []float64 // host ms between consecutive OnWindow calls
	cpuTotal  float64   // CPU ns of all profile samples
	workers   []workerTotals
}

// workerTotals pools one worker's batch figures over the traced runs.
type workerTotals struct {
	app          string
	stage        int
	occ, clipped float64
}

// runTraced produces the per-layer metrics. One traced set-up records
// spans around scenario parsing, each profiling call and NewRuntime.
// The run phase then alternates untraced runs with traced ones (metrics
// registry, OnWindow timestamps, CPU profile, MemStats); the difference
// of their host ns/pkt medians is the observability overhead. The spans
// are written to .bench_build/perfbench/.
func runTraced(out io.Writer, w workload, text string, scale exp.Scale, budget time.Duration, c *checks) []namedMetric {
	tr := newTracer()
	cfg, rt, err := setUp(text, scale, tr)
	c.check(err == nil, "set-up: %v", err)
	if err != nil {
		return nil
	}
	fmt.Fprintf(out, "profile_digest %s\n", profileDigest(cfg.Profiles))

	lt := layerTotals{cpuNS: map[string]float64{}, hw: map[string]float64{}}
	var plain, traced []float64 // host ns/pkt per run
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline) || len(traced) == 0; i++ {
		goruntime.GC() // as in runUntraced
		if i%2 == 0 {
			if i > 0 {
				rt, err = runtime.NewRuntime(cfg)
				c.check(err == nil, "build: %v", err)
				if err != nil {
					break
				}
			}
			sw := startWatch()
			rep, err := rt.Run(runVirtualSeconds)
			_, cpu := sw.elapsed()
			c.check(err == nil, "run: %v", err)
			if err != nil {
				break
			}
			checkReport(c, w, cfg, rep)
			plain = append(plain, sampleOf(cfg, rep, float64(cpu.Nanoseconds())).hostNSPerPkt)
			continue
		}
		ns, err := tracedRun(w, cfg, tr, &lt, c)
		c.check(err == nil, "traced run: %v", err)
		if err != nil {
			break
		}
		traced = append(traced, ns)
	}
	fmt.Fprintf(out, "samples: %d untraced and %d traced runs of %g virtual s, %d windows\n",
		len(plain), len(traced), runVirtualSeconds, len(lt.windowsMS))
	for i, wt := range lt.workers {
		fmt.Fprintf(out, "worker %d %s stage %d: batch_occupancy %.3f, clipped_batches %.0f/run\n",
			i, wt.app, wt.stage, ratio(wt.occ, float64(lt.runs)), ratio(wt.clipped, float64(lt.runs)))
	}
	fmt.Fprintf(out, "cpu profile: %.6g ns/pkt in all, the sum of the cpu.* metrics\n", ratio(lt.cpuTotal, lt.pkts))
	if err := writeSpans(out, w.name, tr); err != nil {
		fmt.Fprintf(out, "spans not written: %v\n", err)
	}
	return layerMetrics(tr, &lt, median(traced)-median(plain))
}

// tracedRun builds a runtime with a metrics registry and a window hook,
// runs it under the CPU profiler and pools its layer counts into lt.
// It returns the run's host CPU ns per processed packet.
func tracedRun(w workload, cfg runtime.Config, tr *tracer, lt *layerTotals, c *checks) (float64, error) {
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	var marks []time.Time
	cfg.OnWindow = func(runtime.ControlSample, []obs.Residual) { marks = append(marks, time.Now()) }
	sp := tr.begin("run.build", "", 0)
	rt, err := runtime.NewRuntime(cfg)
	tr.end(sp)
	if err != nil {
		return 0, err
	}

	var ms0, ms1 goruntime.MemStats
	var prof bytes.Buffer
	goruntime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return 0, err
	}
	sp = tr.begin("run", "", 0)
	sw := startWatch()
	rep, err := rt.Run(runVirtualSeconds)
	_, cpu := sw.elapsed()
	tr.end(sp)
	pprof.StopCPUProfile()
	goruntime.ReadMemStats(&ms1)
	if err != nil {
		return 0, err
	}
	checkReport(c, w, cfg, rep)

	cp, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return 0, err
	}
	for fn, ns := range cp.selfNS {
		lt.cpuNS[bucketOf(funcPackage(fn))] += float64(ns)
	}
	lt.cpuTotal += float64(cp.totalNS)
	pkts := float64(rep.TotalProcessed())
	lt.runs++
	lt.pkts += pkts
	for i := 1; i < len(marks); i++ {
		lt.windowsMS = append(lt.windowsMS, float64(marks[i].Sub(marks[i-1]).Nanoseconds())/1e6)
	}
	lt.allocB += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	lt.mallocs += float64(ms1.Mallocs - ms0.Mallocs)
	lt.gcs += float64(ms1.NumGC - ms0.NumGC)

	snap := reg.Snapshot()
	lt.series = 0
	for _, f := range snap.Families {
		lt.series += len(f.Series)
		for _, s := range f.Series {
			switch f.Name {
			case "dataplane_worker_hw_total":
				lt.hw[s.LabelValues[1]] += s.Value
			case "dataplane_handoff_push_polls_total":
				lt.pushPolls += s.Value
			case "dataplane_handoff_pop_polls_total":
				lt.popPolls += s.Value
			case "dataplane_migrations_total":
				lt.migr += s.Value
			case "dataplane_state_copy_cycles_total":
				lt.copyCyc += s.Value
			case "dataplane_throttle_events_total":
				lt.throttles += s.Value
			}
		}
	}
	// A later chain stage's RingDepth/RingCap describe its hand-off ring.
	for _, cs := range rt.Stats().Samples() {
		for _, wt := range cs.Workers {
			if wt.Stage > 0 && wt.RingCap > 0 {
				lt.fillSum += float64(wt.RingDepth) / float64(wt.RingCap)
				lt.fillN++
			}
		}
	}
	for i, wr := range rep.Workers {
		lt.occSum += wr.BatchOccupancy
		lt.occN++
		lt.clipped += float64(wr.ClippedBatches)
		if i == len(lt.workers) {
			lt.workers = append(lt.workers, workerTotals{app: wr.App, stage: wr.Stage})
		}
		lt.workers[i].occ += wr.BatchOccupancy
		lt.workers[i].clipped += float64(wr.ClippedBatches)
	}
	for _, a := range rep.Apps {
		lt.offered += float64(a.Offered)
		lt.nicDrops += float64(a.NICDrops)
	}
	for _, r := range rep.Residuals {
		if r.Cause != obs.CauseNone {
			lt.offWin++
		}
	}
	return ratio(float64(cpu.Nanoseconds()), pkts), nil
}

// layerMetrics turns the spans and pooled counts into the per-layer
// metrics, in README.md's order.
func layerMetrics(tr *tracer, lt *layerTotals, obsOverhead float64) []namedMetric {
	perPkt := func(x float64) float64 { return ratio(x, lt.pkts) }
	perRun := func(x float64) float64 { return ratio(x, float64(lt.runs)) }
	types := map[string]bool{}
	for _, sp := range tr.spans {
		if sp.Name == "profile.solo" {
			types[sp.Detail] = true
		}
	}
	m := []namedMetric{
		{"scenario.load_ms", metric{tr.total("scenario.load") * 1e3, "ms"}},
		{"profile.solo_s", metric{tr.total("profile.solo"), "s"}},
		{"profile.curve_s", metric{tr.total("profile.curve"), "s"}},
		{"profile.elem_s", metric{tr.total("profile.elem"), "s"}},
		{"profile.types", metric{float64(len(types)), "count"}},
		{"runtime.build_ms", metric{tr.total("runtime.build") * 1e3, "ms"}},
		{"runtime.window_ms_p50", metric{quantile(lt.windowsMS, 0.5), "ms"}},
		{"runtime.window_ms_p99", metric{quantile(lt.windowsMS, 0.99), "ms"}},
		{"runtime.windows", metric{float64(len(lt.windowsMS)), "count"}},
		{"runtime.batch_occupancy", metric{ratio(lt.occSum, float64(lt.occN)), "ratio"}},
		{"runtime.clipped_batches", metric{perRun(lt.clipped), "count/run"}},
		{"runtime.nic_drop_ratio", metric{ratio(lt.nicDrops, lt.offered), "ratio"}},
		{"hw.host_ns_per_ref", metric{ratio(lt.cpuNS["hw"], lt.hw["l1_refs"]), "ns/ref"}},
		{"hw.l1_refs_per_pkt", metric{perPkt(lt.hw["l1_refs"]), "refs/pkt"}},
		{"hw.l1_hit_ratio", metric{ratio(lt.hw["l1_hits"], lt.hw["l1_refs"]), "ratio"}},
		{"hw.l2_hit_ratio", metric{ratio(lt.hw["l2_hits"], lt.hw["l2_refs"]), "ratio"}},
		{"hw.l3_hit_ratio", metric{ratio(lt.hw["l3_hits"], lt.hw["l3_refs"]), "ratio"}},
		{"hw.l3_misses_per_pkt", metric{perPkt(lt.hw["l3_misses"]), "refs/pkt"}},
		{"hw.remote_refs_per_pkt", metric{perPkt(lt.hw["remote_refs"]), "refs/pkt"}},
		{"hw.mem_queue_cycles_per_pkt", metric{perPkt(lt.hw["mem_queue_cycles"]), "cycles/pkt"}},
		{"hw.qpi_queue_cycles_per_pkt", metric{perPkt(lt.hw["qpi_queue_cycles"]), "cycles/pkt"}},
		{"hw.cycles_per_pkt", metric{perPkt(lt.hw["cycles"]), "cycles/pkt"}},
		{"handoff.push_polls_per_pkt", metric{perPkt(lt.pushPolls), "polls/pkt"}},
		{"handoff.pop_polls_per_pkt", metric{perPkt(lt.popPolls), "polls/pkt"}},
		{"handoff.fill", metric{ratio(lt.fillSum, float64(lt.fillN)), "ratio"}},
		{"control.migrations", metric{perRun(lt.migr), "count/run"}},
		{"control.state_copy_cycles", metric{perRun(lt.copyCyc), "cycles/run"}},
		{"control.throttle_events", metric{perRun(lt.throttles), "count/run"}},
		{"control.residual_off_windows", metric{perRun(lt.offWin), "count/run"}},
		{"obs.overhead_ns_per_pkt", metric{obsOverhead, "ns/pkt"}},
		{"obs.series", metric{float64(lt.series), "count"}},
		{"go.alloc_bytes_per_pkt", metric{perPkt(lt.allocB), "B/pkt"}},
		{"go.mallocs_per_pkt", metric{perPkt(lt.mallocs), "allocs/pkt"}},
		{"go.gc_cycles", metric{perRun(lt.gcs), "count/run"}},
	}
	for _, b := range cpuBuckets {
		m = append(m, namedMetric{"cpu." + b + "_ns_pkt", metric{perPkt(lt.cpuNS[b]), "ns/pkt"}})
	}
	return m
}

// writeSpans writes the traced run's spans as JSON under .bench_build,
// which the repository ignores.
func writeSpans(out io.Writer, workload string, tr *tracer) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	return nil
}
