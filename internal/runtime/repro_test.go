package runtime

import (
	"fmt"
	gort "runtime"
	"testing"

	"pktpredict/internal/apps"
)

// TestRuntimeSingleSocketReproducible: one goroutine drives each socket
// and replays its workers' batches in virtual-time order, so a run
// confined to one socket does not depend on host scheduling. The same
// configuration must give the same Report — every counter, rate and
// float bit, compared through its printed form so NaN fields compare
// equal — twice at GOMAXPROCS 2 and once at GOMAXPROCS 1. The cases
// cover a saturated realistic mix and a 2-stage chain whose stages share
// the socket and hand off within each quantum.
func TestRuntimeSingleSocketReproducible(t *testing.T) {
	chainParams := withCustom(apps.Small(), "MONC", monStyleGraph(apps.Small()), map[string]int{"nf": 1})
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"mix", func() Config {
			return testConfig([]AppSpec{
				{Name: "ipfwd", Type: apps.IP, Workers: 2},
				{Name: "mon", Type: apps.MON, Workers: 1},
				{Name: "vpn", Type: apps.VPN, Workers: 1},
				{Name: "fw", Type: apps.FW, Workers: 1},
			})
		}},
		{"chain", func() Config {
			cfg := testConfig([]AppSpec{{Name: "monc", Type: "MONC", Workers: 1}})
			cfg.Params = chainParams
			cfg.Cores = []int{0, 1}
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(procs int) string {
				defer gort.GOMAXPROCS(gort.GOMAXPROCS(procs))
				r, err := NewRuntime(tc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				rep, err := r.Run(0.003)
				if err != nil {
					t.Fatal(err)
				}
				checkConservation(t, rep)
				if rep.TotalProcessed() == 0 {
					t.Fatal("run processed nothing")
				}
				return fmt.Sprintf("%+v", *rep)
			}
			first := run(2)
			for i, procs := range []int{2, 1} {
				if got := run(procs); got != first {
					t.Fatalf("run %d (GOMAXPROCS %d) differs from the first:\n%s\nwant:\n%s", i+2, procs, got, first)
				}
			}
		})
	}
}
