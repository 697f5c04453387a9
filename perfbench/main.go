// Command perfbench is the repository's layered host-cost benchmark.
//
// It runs one workload (a shipped scenario on the quick-scale platform)
// from scenario text through offline profiling to repeated concurrent
// Runtime.Run calls, checks the outputs, and prints the end-to-end
// metrics (--trace 0) or the per-layer split of host time (--trace 1).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mixed --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --compare before.txt after.txt
//
// README.md in this directory documents the workloads, every metric,
// and how to read the traced output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"pktpredict/internal/exp"
	"pktpredict/internal/runtime"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedMetric keeps the print order.
type namedMetric struct {
	name string
	metric
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit code: 0 after printing
// a result, 1 when --compare flags the two outputs, 2 on a usage or
// input error (nothing printed to out).
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	wname := fs.String("workload", "", "workload: mixed, ids_staged or thrash_migrate")
	seed := fs.Uint64("seed", 1, "input seed (reaches the traffic of ids_staged only)")
	seconds := fs.Float64("seconds", 10, "host seconds of the measured run phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer split")
	compare := fs.Bool("compare", false, "compare two saved outputs (file arguments) for comparability")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(errOut, "perfbench: "+format+"\n", args...)
		return 2
	}

	if *compare {
		if fs.NArg() != 2 {
			return fail("--compare takes two saved output files")
		}
		ok, err := compareOutputs(out, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail("%v", err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*wname)
	if !ok {
		return fail("unknown --workload %q", *wname)
	}
	if *trace != 0 && *trace != 1 {
		return fail("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fail("--seconds must be positive")
	}

	goruntime.GOMAXPROCS(min(goruntime.NumCPU(), 2))
	scale := exp.Quick()
	env := currentEnv(scale.Name)
	text, err := w.text(*seed)
	if err != nil {
		return fail("%s: %v", w.name, err)
	}

	envJSON, _ := json.Marshal(env) // plain struct of strings and ints: cannot fail
	fmt.Fprintf(out, "env %s\n", envJSON)
	if w.seeded {
		fmt.Fprintf(out, "workload %s seed %d\n", w.name, *seed)
	} else {
		fmt.Fprintf(out, "workload %s seed %d (unused: builtin flow types derive their seeds in core.SeedFor)\n", w.name, *seed)
	}

	budget := time.Duration(*seconds * float64(time.Second))
	var c checks
	var metrics []namedMetric
	if *trace == 0 {
		metrics = runUntraced(out, w, text, scale, budget, &c)
	} else {
		metrics = runTraced(out, w, text, scale, budget, &c)
	}

	for _, n := range c.notes {
		fmt.Fprintf(out, "check failed: %s\n", n)
	}
	fmt.Fprintf(out, "fail_ratio %.4g (%d of %d checks failed)\n", ratio(float64(c.failed), float64(c.attempted)), c.failed, c.attempted)
	res := result{Correct: c.failed == 0 && c.attempted > 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metric{}}
	for _, m := range metrics {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", m.name, m.Value, m.Unit)
		res.Metrics[m.name] = m.metric
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail("encode result: %v", err) // a non-finite metric: a bug in the benchmark
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// runsPerSetup is how many runs each cold set-up of an untraced run
// feeds: its first run, then runs rebuilt from its profiled
// configuration.
const runsPerSetup = 3

// runUntraced measures the end-to-end metrics. Until budget is spent it
// repeats a cycle of one cold set-up and runsPerSetup runs. Interleaving
// spreads the set-up and run samples over the whole budget, so a slow
// drift in the host's speed weighs on every median alike.
func runUntraced(out io.Writer, w workload, text string, scale exp.Scale, budget time.Duration, c *checks) []namedMetric {
	var (
		setupS, wallS []float64
		samples       []runSample
		digests       = map[string]bool{}
		cfg           runtime.Config
		rt            *runtime.Runtime
		setupWall     time.Duration
		left          int // runs left in the current cycle
		err           error
		rssMB         []float64
	)
	// Each cycle's peak RSS is one sample when the kernel lets the
	// high-water mark be reset; otherwise the process's peak is the only one.
	perCycleRSS := resetPeakRSS() == nil
	for deadline := time.Now().Add(budget); len(samples) == 0 || time.Now().Before(deadline); {
		// Collect the previous step's garbage outside the timed region, so
		// neither a timing nor the peak RSS depends on where the
		// collector's cycle happened to fall.
		goruntime.GC()
		if left == 0 {
			if perCycleRSS && len(setupS) > 0 {
				rssMB = append(rssMB, peakRSSMB())
				perCycleRSS = resetPeakRSS() == nil
			}
			sw := startWatch()
			cfg, rt, err = setUp(text, scale, nil)
			var setupCPU time.Duration
			setupWall, setupCPU = sw.elapsed()
			c.check(err == nil, "set-up: %v", err)
			if err != nil {
				break
			}
			setupS = append(setupS, setupCPU.Seconds())
			digests[profileDigest(cfg.Profiles)] = true
			left = runsPerSetup
		} else {
			rt, err = runtime.NewRuntime(cfg)
			c.check(err == nil, "build: %v", err)
			if err != nil {
				break
			}
		}
		sw := startWatch()
		rep, err := rt.Run(runVirtualSeconds)
		wall, cpu := sw.elapsed()
		c.check(err == nil, "run: %v", err)
		if err != nil {
			break
		}
		if left == runsPerSetup {
			wallS = append(wallS, (setupWall + wall).Seconds())
		}
		left--
		checkReport(c, w, cfg, rep)
		samples = append(samples, sampleOf(cfg, rep, float64(cpu.Nanoseconds())))
	}
	rssMB = append(rssMB, peakRSSMB())
	c.check(len(digests) <= 1, "profile digest differs between set-ups of one run: %v", digests)
	for d := range digests {
		fmt.Fprintf(out, "profile_digest %s\n", d)
	}
	fmt.Fprintf(out, "samples: %d set-ups, %d runs of %g virtual s\n", len(setupS), len(samples), runVirtualSeconds)

	pick := func(f func(runSample) float64) float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s)
		}
		return median(xs)
	}
	return []namedMetric{
		{"setup_s", metric{median(setupS), "s"}},
		{"host_ns_per_pkt", metric{pick(func(s runSample) float64 { return s.hostNSPerPkt }), "ns/pkt"}},
		{"wall_s", metric{median(wallS), "s"}},
		{"peak_rss_mb", metric{median(rssMB), "MB"}},
		{"sim_mpps", metric{pick(func(s runSample) float64 { return s.simMpps }), "Mpps"}},
		{"pred_err_pp", metric{pick(func(s runSample) float64 { return s.predErrPP }), "pp"}},
		{"lat_p99_cycles", metric{pick(func(s runSample) float64 { return s.latP99Cycles }), "cycles"}},
	}
}

// stopwatch reads wall-clock and process CPU time together. The host
// costs setup_s and host_ns_per_pkt are CPU time: on a shared VM, wall
// time also counts the time the hypervisor steals from the process,
// which drifts with the neighbours' load. wall_s keeps the wall clock.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// elapsed returns the wall-clock and CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// cpuTime is the process's user plus system CPU time, over all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS sets the process's RSS high-water mark back to its
// current RSS (Linux clear_refs code 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go heap's total obtained memory where /proc is missing.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
