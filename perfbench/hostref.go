package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// refNominal is the reference job's CPU time that normalized metrics are
// scaled to: a normalized time is the CPU time an operation would take on
// a host where one reference job takes exactly this long.
const refNominal = 10 * time.Millisecond

// refSource is the reference job's input: a fixed Go program, the same in
// every run, for every seed and at every commit of canary.
var refSource = genRefSource(60)

// genRefSource writes funcs functions that walk linked nodes, index maps
// and call their predecessor, so that type-checking them resolves fields,
// map types, multiple results and calls.
func genRefSource(funcs int) string {
	var b strings.Builder
	b.WriteString("package ref\n\ntype node struct {\n\tnext *node\n\tval  int\n\tname string\n\ttags map[string]int\n}\n\n")
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&b, "func f%d(n *node, xs []int, m map[string]int) (int, *node) {\n", i)
		b.WriteString("\tsum := 0\n\tvar last *node\n")
		b.WriteString("\tfor p := n; p != nil; p = p.next {\n\t\tsum += p.val\n\t\tif p.tags != nil {\n\t\t\tsum += p.tags[p.name]\n\t\t}\n\t\tlast = p\n\t}\n")
		b.WriteString("\tfor i, x := range xs {\n\t\tif x%3 == 0 {\n\t\t\tm[\"k\"] += i\n\t\t} else if x > sum {\n\t\t\tsum = x - i\n\t\t}\n\t}\n")
		if i > 0 {
			fmt.Fprintf(&b, "\tif sum > %d {\n\t\ts, q := f%d(last, xs[1:], m)\n\t\treturn s + sum, q\n\t}\n", i*7, i-1)
		}
		b.WriteString("\treturn sum, &node{next: last, val: sum, name: \"n\", tags: m}\n}\n\n")
	}
	return b.String()
}

// refJob parses and type-checks refSource once. It is front-end work of
// the same kind as canary's (parsing, allocation, maps, pointer-linked
// trees), but none of canary's code runs in it, so a change to canary
// never moves it while a slower host moves both.
func refJob() error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ref.go", refSource, 0)
	if err != nil {
		return fmt.Errorf("reference job: %w", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	if _, err := new(types.Config).Check("ref", fset, []*ast.File{f}, info); err != nil {
		return fmt.Errorf("reference job: %w", err)
	}
	return nil
}

// hostRef gauges the speed of the host during a run. On a machine shared
// with other tenants the CPU time of the same work moved by a third within
// minutes, with the neighbours' use of the shared cores, caches and
// memory. Each workload runs the reference job between its operations, at
// a steady cadence, and divides its CPU times by the job's median CPU
// time over the run.
type hostRef struct {
	cpuMS []float64
}

// measure runs the job once between two garbage collections, with the
// collector off while it runs: none of the operations' garbage is
// collected on the job's time and none of the job's on theirs, and the
// job's time does not depend on how much heap canary keeps live.
func (h *hostRef) measure() error {
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	w := startWatch()
	err := refJob()
	_, cpu := w.elapsed()
	debug.SetGCPercent(gcPercent)
	runtime.GC()
	if err != nil {
		return err
	}
	h.cpuMS = append(h.cpuMS, ms(cpu))
	return nil
}

// scale turns this run's CPU times into normalized ones: multiply a time
// by it, divide a rate by it.
func (h *hostRef) scale() float64 { return ms(refNominal) / median(h.cpuMS) }

// report adds the reference job's own median to the table.
func (h *hostRef) report(res *runResult) {
	res.addQuantile("ref_job_cpu_ms_p50", "", Percentile(h.cpuMS, 0.5))
}
