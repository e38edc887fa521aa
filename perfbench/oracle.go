package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"canary"
	"canary/internal/workload"
)

// The ground-truth oracle. The generator encodes each seeded pattern in
// its function names (workload package doc): a tp_ module is a realizable
// inter-thread use-after-free and an fpc_ module an infeasible one no tool
// here can refute, so Canary must report exactly those two kinds of
// module. fig2_, ord_, lock_ and sa_ traps and the filler code must stay
// silent. The answer comes from the generator's spec, never from an
// analysis run.

// moduleID names one seeded module, e.g. "tp_uaf:3".
type moduleID string

// seededBugs returns the modules of spec that must be reported. The
// generator numbers modules in emission order, tp_ modules first, then
// fpc_ modules, starting at 1.
func seededBugs(spec workload.Spec) map[moduleID]bool {
	want := make(map[moduleID]bool)
	id := 0
	for i := 0; i < spec.TruePositives; i++ {
		id++
		want[module("tp_uaf", id)] = true
	}
	for i := 0; i < spec.CanaryFPs; i++ {
		id++
		want[module("fpc_uaf", id)] = true
	}
	return want
}

func module(kind string, id int) moduleID { return moduleID(kind + ":" + strconv.Itoa(id)) }

// reportable are the module kinds whose functions may appear in a report.
var reportable = map[string]bool{"tp_uaf": true, "fpc_uaf": true}

// moduleOf maps a report site's function to the seeded module it belongs
// to: "tp_uaf_worker3" and "tp_uaf_mod3<main:812>" (an inlined clone) are
// both module tp_uaf:3. ok is false for filler and main.
func moduleOf(fn string) (kind string, id int, ok bool) {
	if i := strings.IndexByte(fn, '<'); i >= 0 {
		fn = fn[:i]
	}
	end := len(fn)
	for end > 0 && fn[end-1] >= '0' && fn[end-1] <= '9' {
		end--
	}
	n, err := strconv.Atoi(fn[end:])
	if err != nil {
		return "", 0, false
	}
	stem := fn[:end]
	for _, role := range []string{"_worker", "_writer", "_reader", "_mod"} {
		if strings.HasSuffix(stem, role) {
			return strings.TrimSuffix(stem, role), n, true
		}
	}
	return "", 0, false
}

// checkFindings compares an analysis's reports with the seeded answer.
// Every report must be a decided finding whose source and sink lie in the
// same tp_/fpc_ module, and the set of reported modules must equal want.
func checkFindings(reports []canary.Report, want map[moduleID]bool) error {
	got := make(map[moduleID]bool)
	for _, r := range reports {
		sk, sid, sok := moduleOf(r.Source.Fn)
		kk, kid, kok := moduleOf(r.Sink.Fn)
		if !sok || !kok || sk != kk || sid != kid || !reportable[sk] {
			return fmt.Errorf("report outside the seeded bugs: %s %s -> %s", r.Kind, r.Source.Fn, r.Sink.Fn)
		}
		if !r.Decided {
			return fmt.Errorf("inconclusive report in %s: %s", module(sk, sid), r.Reason)
		}
		got[module(sk, sid)] = true
	}
	var missing, extra []string
	for m := range want {
		if !got[m] {
			missing = append(missing, string(m))
		}
	}
	for m := range got {
		if !want[m] {
			extra = append(extra, string(m))
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("findings differ from ground truth: missing %v, unexpected %v", missing, extra)
	}
	return nil
}
