package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct{ Name, Unit string }

// TestEveryWorkloadPrintsEveryMetric runs each workload briefly, untraced
// and traced, and checks that the result line carries every metric
// BENCHMARK.json names, finite and with its unit, and that the output
// checks ran and passed.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every workload; skipped in -short mode")
	}
	t.Chdir("..") // the workloads read scenario files relative to the repository root
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for trace, want := range map[string][]metricSpec{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", wl.Name, "--seed", "3", "--seconds", "0.5", "--trace", trace}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.String())
				}
				if res.Attempted == 0 || !res.Correct || res.Failed != 0 {
					t.Fatalf("checks: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case got.Unit == "" || got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestSeedIDSKeepsSignatureSeedsEqual(t *testing.T) {
	text := "src :: FromDevice(SIZE 512, SIG_SEED 11, SIG_HIT 0.06);\nsig :: SignatureClassifier(SIG_SEED 11);"
	got, err := seedIDS(text, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := "src :: FromDevice(SEED 42, SIZE 512, SIG_SEED 42, SIG_HIT 0.06);\nsig :: SignatureClassifier(SIG_SEED 42);"
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if _, err := seedIDS("sig :: SignatureClassifier(SIG_SEED 11);", 1); err == nil {
		t.Fatal("a text without the source's seed must be refused")
	}
}

func TestFuncPackageAndBuckets(t *testing.T) {
	for _, c := range []struct{ fn, pkg, bucket string }{
		{"pktpredict/internal/hw.(*Cache).Access", "pktpredict/internal/hw", "hw"},
		{"pktpredict/internal/runtime.(*Runtime).run.func1", "pktpredict/internal/runtime", "runtime"},
		{"runtime.mallocgc", "runtime", "go"},
		{"internal/runtime/atomic.(*Uint32).Load", "internal/runtime/atomic", "go"},
		{"sync/atomic.(*Pointer[go.shape.struct { a/b.c int }]).Load", "sync/atomic", "lock"},
		{"sync.(*Mutex).Lock", "sync", "lock"},
		{"pktpredict/internal/trafficgen.(*Gen).Next", "pktpredict/internal/trafficgen", "traffic"},
		{"pktpredict/internal/core.Curve.DropAt", "pktpredict/internal/core", "other"},
		{"main.run", "main", "other"},
	} {
		if got := funcPackage(c.fn); got != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := bucketOf(c.pkg); got != c.bucket {
			t.Errorf("bucketOf(%q) = %q, want %q", c.pkg, got, c.bucket)
		}
	}
}
