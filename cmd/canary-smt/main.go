// Command canary-smt exposes Canary's internal constraint solver as a
// standalone tool: it decides CNF instances in (extended) DIMACS format,
// where `o <v> <i> <j>` lines bind boolean variables to the strict-order
// atoms O_i < O_j of the solver's partial-order theory.
//
// Usage:
//
//	canary-smt [-cube] [-conflicts N] file.cnf     # or - for stdin
//
// Exit status: 10 for sat, 20 for unsat (the SAT-competition convention),
// 0 for unknown, 2 on errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"canary/internal/smt"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cube      = flag.Bool("cube", false, "use cube-and-conquer parallel solving")
		split     = flag.Int("split", 3, "cube split variables")
		conflicts = flag.Int64("conflicts", 0, "conflict budget (0 = unbounded)")
		stats     = flag.Bool("stats", false, "print solver statistics")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: canary-smt [flags] file.cnf  (- for stdin)")
		return 2
	}
	var in io.Reader = os.Stdin
	if flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "canary-smt:", err)
			return 2
		}
		defer f.Close()
		in = f
	}
	pool, formulas, err := smt.ParseDIMACS(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "canary-smt:", err)
		return 2
	}

	var res smt.Result
	if *cube {
		res = smt.SolveCubeAndConquer(pool, formulas, smt.CubeOptions{
			SplitAtoms:          *split,
			MaxConflictsPerCube: *conflicts,
		})
	} else {
		s := smt.New(pool)
		s.MaxConflicts = *conflicts
		for _, f := range formulas {
			s.Assert(f)
		}
		res = s.Solve()
		if *stats {
			fmt.Fprintf(os.Stderr, "decisions=%d propagations=%d conflicts=%d theory=%d restarts=%d\n",
				s.Stats.Decisions, s.Stats.Propagations, s.Stats.Conflicts,
				s.Stats.TheoryProps, s.Stats.Restarts)
		}
	}
	fmt.Println("s", map[smt.Result]string{
		smt.Sat: "SATISFIABLE", smt.Unsat: "UNSATISFIABLE", smt.Unknown: "UNKNOWN",
	}[res])
	switch res {
	case smt.Sat:
		return 10
	case smt.Unsat:
		return 20
	}
	return 0
}
