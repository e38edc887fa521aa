package main

import (
	"strings"
	"testing"

	"canary"
	"canary/internal/workload"
)

// tinySpec seeds one real bug (tp_uaf:1) and one Fig. 2 trap (fig2_uaf:2)
// with no filler.
var tinySpec = workload.Spec{Name: "tiny", Seed: 1, TruePositives: 1, Fig2Traps: 1, Fan: 1}

func TestOracleAcceptsTinyProgram(t *testing.T) {
	src := workload.Generate(tinySpec)
	if !strings.Contains(src, "tp_uaf_mod1") || !strings.Contains(src, "fig2_uaf_mod2") {
		t.Fatalf("generator layout changed; source:\n%s", src)
	}
	res, err := canary.Analyze(src, canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := seededBugs(tinySpec)
	if len(want) != 1 || !want["tp_uaf:1"] {
		t.Fatalf("seeded bugs = %v, want only tp_uaf:1", want)
	}
	if err := checkFindings(res.Reports, want); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRejectsWrongFindings(t *testing.T) {
	src := workload.Generate(tinySpec)
	res, err := canary.Analyze(src, canary.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := seededBugs(tinySpec)
	if err := checkFindings(nil, want); err == nil || !strings.Contains(err.Error(), "missing [tp_uaf:1]") {
		t.Fatalf("a missed bug must fail the oracle, got %v", err)
	}
	trap := res.Reports[0]
	trap.Source.Fn, trap.Sink.Fn = "fig2_uaf_worker2", "fig2_uaf_mod2<main:9>"
	if err := checkFindings(append(res.Reports, trap), want); err == nil {
		t.Fatal("a report in the fig2_ trap must fail the oracle")
	}
	undecided := res.Reports[0]
	undecided.Decided = false
	if err := checkFindings([]canary.Report{undecided}, want); err == nil {
		t.Fatal("an inconclusive report must fail the oracle")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tp_uaf_worker3":         "tp_uaf:3",
		"tp_uaf_mod3<main:812>":  "tp_uaf:3",
		"fpc_uaf_mod12":          "fpc_uaf:12",
		"lock_uaf_writer4":       "lock_uaf:4",
		"ord_uaf_reader5<x:1>":   "ord_uaf:5",
		"filler_worker7<main:3>": "filler:7",
	} {
		kind, id, ok := moduleOf(fn)
		if !ok || string(module(kind, id)) != want {
			t.Errorf("moduleOf(%q) = %q %d %v, want %s", fn, kind, id, ok, want)
		}
	}
	for _, fn := range []string{"main", "calc3"} {
		if _, _, ok := moduleOf(fn); ok {
			t.Errorf("moduleOf(%q) claims a seeded module", fn)
		}
	}
}
