package runtime

import (
	"reflect"
	gort "runtime"
	"testing"

	"pktpredict/internal/apps"
)

// TestProfileFlowsParallelismInvariant profiles the same flow types with
// one and with four simulations in flight: the engine outputs must be
// deep-equal, because each simulation owns its platform and seeds and
// lands at its own index.
func TestProfileFlowsParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles twice; CI runs it in the dedicated -race step")
	}
	// Short windows keep the test cheap under the race detector; the
	// property does not depend on them.
	types := []apps.FlowType{apps.MON, apps.IP, apps.SYNMAX, apps.MON}
	profile := func(procs int) map[apps.FlowType]FlowProfile {
		defer gort.GOMAXPROCS(gort.GOMAXPROCS(procs))
		profiles, err := ProfileFlows(testCfg(), apps.Small(), 0.0002, 0.0005,
			[]int{400, 100, 0}, types)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for typ, p := range profiles {
			if (len(p.Elements) == 0) != typ.Synthetic() {
				t.Errorf("GOMAXPROCS %d: %s has %d element baselines", procs, typ, len(p.Elements))
			}
			// Element baselines come from the concurrent runtime, whose
			// figures vary with host interleaving; the engine outputs
			// are the deterministic part.
			p.Elements = nil
			profiles[typ] = p
		}
		return profiles
	}
	serial, parallel := profile(1), profile(4)
	if len(serial) != 3 {
		t.Fatalf("profiled %d types, want 3", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("profiles differ with parallelism:\nGOMAXPROCS 1: %+v\nGOMAXPROCS 4: %+v", serial, parallel)
	}
}
