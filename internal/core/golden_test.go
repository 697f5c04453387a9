package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pktpredict/internal/apps"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// profileHash hashes the engine outputs of one flow type's offline
// profile bit for bit: solo pps, solo L3 refs/s and every curve point.
// These are the fields perfbench's profile_digest covers.
func profileHash(t apps.FlowType, p *Predictor) (string, error) {
	solo, err := p.Solo(t)
	if err != nil {
		return "", err
	}
	curve, err := p.Curve(t)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%x %x", math.Float64bits(solo.Throughput()), math.Float64bits(solo.L3RefsPerSec()))
	for _, pt := range curve.Points {
		fmt.Fprintf(h, " %x %x", math.Float64bits(pt.CompetingRefsPerSec), math.Float64bits(pt.Drop))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// TestProfileGolden pins the quick-scale offline profile of every builtin
// flow type. Host-side speed-ups of the cache model, the engine or the
// profiling pool must leave it bit-identical; a deliberate model change
// regenerates it with
//
//	go test ./internal/core -run TestProfileGolden -update-golden
func TestProfileGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every builtin flow type")
	}
	types := append(append([]apps.FlowType(nil), apps.RealisticTypes...), apps.SYN, apps.SYNMAX)
	p := testPredictor()
	var b strings.Builder
	for _, ft := range types {
		h, err := profileHash(ft, p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", ft, h)
	}
	golden := filepath.Join("testdata", "profile_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("quick-scale profiles drifted from %s.\ngot:\n%swant:\n%s", golden, b.String(), want)
	}
}
