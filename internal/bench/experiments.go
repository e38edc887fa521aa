package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"canary/internal/baseline"
	"canary/internal/core"
	"canary/internal/ir"
	"canary/internal/lang"
	"canary/internal/workload"
)

// ToolRun is one tool's cost and report outcome on one subject.
type ToolRun struct {
	BuildTime time.Duration
	BuildMem  uint64
	CheckTime time.Duration
	Reports   int
	TPs       int
	FPs       int
	TimedOut  bool
}

// FPRate returns the false-positive rate in percent (0 when no reports).
func (t ToolRun) FPRate() float64 {
	if t.Reports == 0 {
		return 0
	}
	return 100 * float64(t.FPs) / float64(t.Reports)
}

// SubjectResult is one catalogue subject's full comparison row.
type SubjectResult struct {
	Name   string
	KLoC   float64
	Lines  int
	Saber  ToolRun
	Fsam   ToolRun
	Canary ToolRun
	// Paper columns for side-by-side printing (-1 = NA).
	PaperSaberReports, PaperFsamReports, PaperCanaryReports, PaperCanaryFPs int
}

// Experiments drives the evaluation.
type Experiments struct {
	// Timeout bounds each baseline's VFG construction (the paper's 12 h,
	// scaled to the subject sizes in use).
	Timeout time.Duration
	// Checker is the property used for report counting (the paper checks
	// inter-thread use-after-free in §7.2).
	Checker string
	// Out receives progress lines; nil silences them.
	Out io.Writer
}

func (e *Experiments) logf(format string, args ...interface{}) {
	if e.Out != nil {
		fmt.Fprintf(e.Out, format, args...)
	}
}

func (e *Experiments) checker() string {
	if e.Checker == "" {
		return core.CheckUAF
	}
	return e.Checker
}

// lowerSubject generates and lowers a subject (outside any measured
// region: the paper measures analysis cost, not compilation).
func lowerSubject(spec workload.Spec) (*ir.Program, error) {
	src := workload.Generate(spec)
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("workload %s does not parse: %w", spec.Name, err)
	}
	return ir.Lower(ast, ir.DefaultOptions())
}

// RunSubject measures all three tools on one subject: VFG construction
// cost (Fig. 7) and bug reports with ground-truth classification (Table 1).
func (e *Experiments) RunSubject(p workload.Project) (SubjectResult, error) {
	res := SubjectResult{
		Name: p.Name, KLoC: p.KLoC, Lines: p.Lines,
		PaperSaberReports:  p.PaperSaberReports,
		PaperFsamReports:   p.PaperFsamReports,
		PaperCanaryReports: p.PaperCanaryReports,
		PaperCanaryFPs:     p.PaperCanaryFPs,
	}

	// Baselines.
	for _, tool := range []baseline.Tool{baseline.Saber{}, baseline.Fsam{}} {
		prog, err := lowerSubject(p.Spec)
		if err != nil {
			return res, err
		}
		run, err := e.runBaseline(tool, prog)
		if err != nil {
			return res, err
		}
		if tool.Name() == "saber" {
			res.Saber = run
		} else {
			res.Fsam = run
		}
		e.logf("  %-12s %-6s build=%-12v mem=%-8s reports=%d timeout=%v\n",
			p.Name, tool.Name(), run.BuildTime.Round(time.Millisecond),
			fmtBytes(run.BuildMem), run.Reports, run.TimedOut)
	}

	// Canary.
	prog, err := lowerSubject(p.Spec)
	if err != nil {
		return res, err
	}
	run, err := e.runCanary(prog)
	if err != nil {
		return res, err
	}
	res.Canary = run
	e.logf("  %-12s canary build=%-12v mem=%-8s reports=%d (tp=%d fp=%d)\n",
		p.Name, run.BuildTime.Round(time.Millisecond), fmtBytes(run.BuildMem),
		run.Reports, run.TPs, run.FPs)
	return res, nil
}

func (e *Experiments) runBaseline(tool baseline.Tool, prog *ir.Program) (ToolRun, error) {
	var run ToolRun
	timeout := e.Timeout
	if timeout <= 0 {
		timeout = time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var result *baseline.Result
	m, err := Measure(func() error {
		var berr error
		result, berr = tool.BuildVFG(ctx, prog)
		return berr
	})
	run.BuildTime = m.Time
	run.BuildMem = m.PeakBytes
	if err != nil {
		run.TimedOut = true
		return run, nil // NA row, like the paper's timeouts
	}
	t0 := time.Now()
	reports := baseline.CheckReachability(result.G, e.checker())
	run.CheckTime = time.Since(t0)
	run.Reports = len(reports)
	for _, r := range reports {
		if workload.TruePositive(prog.FnName(prog.Inst(r.Source))) {
			run.TPs++
		} else {
			run.FPs++
		}
	}
	return run, nil
}

func (e *Experiments) runCanary(prog *ir.Program) (ToolRun, error) {
	var run ToolRun
	var b *core.Builder
	m, err := Measure(func() error {
		b = core.Build(prog, core.DefaultBuild())
		return nil
	})
	if err != nil {
		return run, err
	}
	run.BuildTime = m.Time
	run.BuildMem = m.PeakBytes
	opt := core.DefaultCheck()
	opt.Checkers = []string{e.checker()}
	t0 := time.Now()
	reports, _ := b.Check(opt)
	run.CheckTime = time.Since(t0)
	run.Reports = len(reports)
	for _, r := range reports {
		if workload.TruePositive(r.Source.Fn) {
			run.TPs++
		} else {
			run.FPs++
		}
	}
	return run, nil
}

// RunAll measures every catalogue subject.
func (e *Experiments) RunAll(projects []workload.Project) ([]SubjectResult, error) {
	out := make([]SubjectResult, 0, len(projects))
	for _, p := range projects {
		e.logf("subject %s (%.0f KLoC scaled to %d lines)\n", p.Name, p.KLoC, p.Lines)
		r, err := e.RunSubject(p)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig8Point is one size-sweep observation of the whole Canary pipeline.
type Fig8Point struct {
	Lines   int
	KLoC    float64
	Time    time.Duration
	PeakMem uint64
	Reports int
}

// Fig8Result carries the sweep and the linear fits the paper reports.
type Fig8Result struct {
	Points []Fig8Point
	// TimeSlope is ms per KLoC; MemSlope is bytes per KLoC.
	TimeSlope, TimeIntercept, TimeR2 float64
	MemSlope, MemIntercept, MemR2    float64
}

// RunFig8 sweeps Canary's full pipeline (VFG construction + path-sensitive
// checking) over increasing program sizes and fits time and memory against
// size, reproducing the near-linear scaling of Fig. 8.
func (e *Experiments) RunFig8(specs []workload.Spec) (Fig8Result, error) {
	var res Fig8Result
	for _, spec := range specs {
		prog, err := lowerSubject(spec)
		if err != nil {
			return res, err
		}
		var reports int
		m, err := Measure(func() error {
			b := core.Build(prog, core.DefaultBuild())
			opt := core.DefaultCheck()
			opt.Checkers = []string{e.checker()}
			rs, _ := b.Check(opt)
			reports = len(rs)
			return nil
		})
		if err != nil {
			return res, err
		}
		pt := Fig8Point{
			Lines: spec.Lines, KLoC: float64(spec.Lines) / 1000,
			Time: m.Time, PeakMem: m.PeakBytes, Reports: reports,
		}
		res.Points = append(res.Points, pt)
		e.logf("  sweep %6d lines: time=%v mem=%s reports=%d\n",
			pt.Lines, pt.Time.Round(time.Millisecond), fmtBytes(pt.PeakMem), reports)
	}
	xs := make([]float64, len(res.Points))
	ts := make([]float64, len(res.Points))
	ms := make([]float64, len(res.Points))
	for i, p := range res.Points {
		xs[i] = p.KLoC
		ts[i] = float64(p.Time.Milliseconds())
		ms[i] = float64(p.PeakMem)
	}
	res.TimeSlope, res.TimeIntercept, res.TimeR2 = FitLinear(xs, ts)
	res.MemSlope, res.MemIntercept, res.MemR2 = FitLinear(xs, ms)
	return res, nil
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
