package core

import (
	"reflect"
	"sync"
	"testing"

	"pktpredict/internal/apps"
)

// TestPredictorConcurrentCallers calls one predictor's memoised
// accessors from several goroutines at once, the same keys racing: each
// caller must see the serial predictor's results.
func TestPredictorConcurrentCallers(t *testing.T) {
	newP := func() *Predictor {
		p := NewPredictor(testCfg(), apps.Small(), 0.0002, 0.0005)
		p.SweepGrid = []int{400, 0}
		return p
	}
	type result struct {
		curve Curve
		mix   []float64
	}
	measure := func(p *Predictor) (result, error) {
		curve, err := p.Curve(apps.IP)
		if err != nil {
			return result{}, err
		}
		drops, _, err := p.MeasuredDrops([]apps.FlowType{apps.IP, apps.SYN})
		return result{curve, drops}, err
	}
	want, err := measure(newP())
	if err != nil {
		t.Fatal(err)
	}
	p := newP()
	got := make([]result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = measure(p)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("caller %d got %+v, serial predictor %+v", i, got[i], want)
		}
	}
}
