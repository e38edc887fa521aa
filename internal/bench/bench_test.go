package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"canary/internal/workload"
)

func TestFitLinearPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, r2 := FitLinear(xs, ys)
	if math.Abs(slope-2) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Fatalf("fit = %v, %v", slope, intercept)
	}
	if math.Abs(r2-1) > 1e-9 {
		t.Fatalf("R² = %v, want 1", r2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2.1, 3.9, 6.2, 7.8, 10.1, 11.9} // ≈ 2x
	slope, _, r2 := FitLinear(xs, ys)
	if slope < 1.8 || slope > 2.2 {
		t.Fatalf("slope = %v", slope)
	}
	if r2 < 0.99 {
		t.Fatalf("R² = %v, want near 1", r2)
	}
}

func TestFitLinearDegenerate(t *testing.T) {
	if s, _, r2 := FitLinear([]float64{1}, []float64{2}); s != 0 || r2 != 0 {
		t.Error("single point should yield zeros")
	}
	// Constant x: undefined slope.
	if s, _, _ := FitLinear([]float64{3, 3, 3}, []float64{1, 2, 3}); s != 0 {
		t.Error("vertical data should not produce a slope")
	}
	// Constant y: perfect fit with zero slope.
	if _, _, r2 := FitLinear([]float64{1, 2, 3}, []float64{5, 5, 5}); r2 != 1 {
		t.Error("constant y is a perfect fit")
	}
}

func TestFitLinearUncorrelated(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{5, 1, 9, 2, 8, 1, 9, 3}
	_, _, r2 := FitLinear(xs, ys)
	if r2 > 0.5 {
		t.Fatalf("uncorrelated data should have low R², got %v", r2)
	}
}

func TestMeasureReportsWork(t *testing.T) {
	m, err := Measure(func() error {
		// Allocate ~8 MiB and hold it through the measurement window.
		buf := make([][]byte, 0, 64)
		for i := 0; i < 64; i++ {
			buf = append(buf, make([]byte, 128*1024))
			time.Sleep(200 * time.Microsecond)
		}
		_ = buf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Time <= 0 {
		t.Error("no elapsed time measured")
	}
	if m.PeakBytes < 4<<20 {
		t.Errorf("peak memory under-measured: %d bytes", m.PeakBytes)
	}
}

func tinyProjects() []workload.Project {
	ps := workload.Projects(0.004)[:3] // lrzip, lwan, leveldb
	for i := range ps {
		ps[i].Lines = 250 // keep the unit test fast
	}
	return ps
}

func TestRunSubjectEndToEnd(t *testing.T) {
	e := &Experiments{Timeout: 30 * time.Second}
	rs, err := e.RunAll(tinyProjects())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("want 3 subjects, got %d", len(rs))
	}
	for _, r := range rs {
		if r.Canary.TimedOut {
			t.Errorf("%s: canary must finish", r.Name)
		}
		if r.Canary.BuildTime <= 0 {
			t.Errorf("%s: no canary build time", r.Name)
		}
	}
	// Ground truth: measured Canary reports equal the paper-seeded counts.
	for i, want := range []struct{ reports, fps int }{{2, 0}, {1, 0}, {1, 1}} {
		if rs[i].Canary.Reports != want.reports || rs[i].Canary.FPs != want.fps {
			t.Errorf("%s: canary reports=%d fps=%d, want %d/%d",
				rs[i].Name, rs[i].Canary.Reports, rs[i].Canary.FPs, want.reports, want.fps)
		}
	}
	var buf bytes.Buffer
	PrintFig7a(&buf, rs)
	PrintFig7b(&buf, rs)
	PrintTable1(&buf, rs)
	out := buf.String()
	for _, needle := range []string{"Fig. 7a", "Fig. 7b", "Table 1", "lrzip", "leveldb"} {
		if !strings.Contains(out, needle) {
			t.Errorf("printed output missing %q", needle)
		}
	}
}

func TestRunFig8SweepAndFit(t *testing.T) {
	e := &Experiments{}
	specs := workload.SizeSweep(3, 300, 1200)
	res, err := e.RunFig8(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("want 3 points, got %d", len(res.Points))
	}
	var buf bytes.Buffer
	PrintFig8(&buf, res)
	if !strings.Contains(buf.String(), "R²") {
		t.Error("Fig. 8 output missing fit statistics")
	}
}

// TestRunParallelSweep runs a small worker sweep: every count has the
// 1-worker reports and a median time to the µs.
func TestRunParallelSweep(t *testing.T) {
	e := &Experiments{}
	spec := workload.SizeSweep(1, 400, 400)[0]
	res, err := e.RunParallel(spec, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 || res.Points[0].Reports == 0 || res.Points[1].Reports != res.Points[0].Reports {
		t.Fatalf("sweep points %+v", res.Points)
	}
	for _, pt := range res.Points {
		if pt.BuildTime <= 0 || pt.BuildTime%time.Microsecond != 0 {
			t.Errorf("%d workers: build time %v is not a positive whole number of µs", pt.Workers, pt.BuildTime)
		}
	}
}

func TestMedianDuration(t *testing.T) {
	ds := []time.Duration{5 * time.Millisecond, 1500 * time.Nanosecond, 3*time.Microsecond + 400, 9 * time.Second, 0}
	if got := medianDuration(ds); got != 3*time.Microsecond {
		t.Errorf("median %v, want 3µs", got)
	}
	if ds[0] != 5*time.Millisecond {
		t.Error("medianDuration reordered its argument")
	}
}
