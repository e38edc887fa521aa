package core

import (
	"testing"

	"canary/internal/ir"
	"canary/internal/smt"
)

// Litmus tests for the TSO/PSO extension: the classic store-buffering (SB),
// load-buffering (LB) and message-passing (MP) shapes, checked directly at
// the order-constraint level. The expected verdicts follow the standard
// memory-model litmus outcomes:
//
//	SB  (r1=0 ∧ r2=0):  forbidden under SC; allowed under TSO and PSO
//	LB  (r1=1 ∧ r2=1):  forbidden under SC, TSO and PSO
//	MP  (stale data):   forbidden under SC and TSO; allowed under PSO
//
// Each test lowers a two-thread program, generates the Φ_po facts under the
// selected model, adds the litmus observation as required orderings, and
// asks the solver whether the combination is realizable.

// litmusLabels extracts per-thread store and load labels in program order.
func litmusLabels(t *testing.T, b *Builder, thread int32) (stores, loads []ir.Label) {
	t.Helper()
	for _, inst := range b.Prog.Insts() {
		if inst.Thread != thread {
			continue
		}
		switch inst.Op {
		case ir.OpStore:
			stores = append(stores, inst.Label)
		case ir.OpLoad:
			loads = append(loads, inst.Label)
		}
	}
	return stores, loads
}

// litmusSolve checks whether the required orderings are consistent with the
// program order under the given model.
func litmusSolve(t *testing.T, b *Builder, model MemoryModel, involved []ir.Label, required [][2]ir.Label) smt.Result {
	t.Helper()
	opt := DefaultCheck()
	opt.MemoryModel = model
	c := &checkCtx{b: b, opt: opt}
	q := &query{c: c}
	for i := 0; i < len(involved); i++ {
		for j := i + 1; j < len(involved); j++ {
			c.poFacts(q, involved[i], involved[j])
		}
	}
	q.facts = append(q.facts, required...)
	s := smt.New(b.Prog.Pool)
	s.Assert(q.assemble(b.Prog.Pool))
	return s.Solve()
}

const sbProgram = `
func t1(x, y) {
  one1 = malloc();
  *x = one1;
  r1 = *y;
  print(*r1);
}
func t2(x, y) {
  one2 = malloc();
  *y = one2;
  r2 = *x;
  print(*r2);
}
func main() {
  x = malloc();
  y = malloc();
  ix = malloc();
  iy = malloc();
  *x = ix;
  *y = iy;
  fork(ta, t1, x, y);
  fork(tb, t2, x, y);
}
`

func TestLitmusStoreBuffering(t *testing.T) {
	b := build(t, sbProgram)
	s1, l1 := litmusLabels(t, b, 1)
	s2, l2 := litmusLabels(t, b, 2)
	if len(s1) != 1 || len(l1) != 1 || len(s2) != 1 || len(l2) != 1 {
		t.Fatalf("unexpected litmus layout: %v %v %v %v", s1, l1, s2, l2)
	}
	involved := []ir.Label{s1[0], l1[0], s2[0], l2[0]}
	// Observation r1=0 ∧ r2=0: each load precedes the other thread's store.
	required := [][2]ir.Label{{l1[0], s2[0]}, {l2[0], s1[0]}}

	if got := litmusSolve(t, b, MemSC, involved, required); got != smt.Unsat {
		t.Errorf("SB forbidden under SC, got %v", got)
	}
	if got := litmusSolve(t, b, MemTSO, involved, required); got != smt.Sat {
		t.Errorf("SB allowed under TSO, got %v", got)
	}
	if got := litmusSolve(t, b, MemPSO, involved, required); got != smt.Sat {
		t.Errorf("SB allowed under PSO, got %v", got)
	}
}

const lbProgram = `
func t1(x, y) {
  r1 = *x;
  print(*r1);
  one1 = malloc();
  *y = one1;
}
func t2(x, y) {
  r2 = *y;
  print(*r2);
  one2 = malloc();
  *x = one2;
}
func main() {
  x = malloc();
  y = malloc();
  ix = malloc();
  iy = malloc();
  *x = ix;
  *y = iy;
  fork(ta, t1, x, y);
  fork(tb, t2, x, y);
}
`

func TestLitmusLoadBuffering(t *testing.T) {
	b := build(t, lbProgram)
	s1, l1 := litmusLabels(t, b, 1)
	s2, l2 := litmusLabels(t, b, 2)
	involved := []ir.Label{s1[0], l1[0], s2[0], l2[0]}
	// Observation r1=1 ∧ r2=1: each load reads the other thread's store.
	required := [][2]ir.Label{{s2[0], l1[0]}, {s1[0], l2[0]}}

	for _, model := range []MemoryModel{MemSC, MemTSO, MemPSO} {
		if got := litmusSolve(t, b, model, involved, required); got != smt.Unsat {
			t.Errorf("LB forbidden under %v, got %v", model, got)
		}
	}
}

const mpProgram = `
func writer(data, flag) {
  payload = malloc();
  *data = payload;
  raised = malloc();
  *flag = raised;
}
func readerf(data, flag) {
  f = *flag;
  print(*f);
  d = *data;
  print(*d);
}
func main() {
  data = malloc();
  flag = malloc();
  id = malloc();
  if0 = malloc();
  *data = id;
  *flag = if0;
  fork(ta, writer, data, flag);
  fork(tb, readerf, data, flag);
}
`

func TestLitmusMessagePassing(t *testing.T) {
	b := build(t, mpProgram)
	ws, _ := litmusLabels(t, b, 1) // writer: data store, flag store
	_, rl := litmusLabels(t, b, 2) // reader: flag load, data load
	if len(ws) != 2 || len(rl) != 2 {
		t.Fatalf("unexpected MP layout: %v %v", ws, rl)
	}
	sData, sFlag := ws[0], ws[1]
	lFlag, lData := rl[0], rl[1]
	involved := []ir.Label{sData, sFlag, lFlag, lData}
	// Observation: the reader sees the raised flag but stale data — the
	// flag store precedes the flag load, yet the data load precedes the
	// data store.
	required := [][2]ir.Label{{sFlag, lFlag}, {lData, sData}}

	if got := litmusSolve(t, b, MemSC, involved, required); got != smt.Unsat {
		t.Errorf("MP stale read forbidden under SC, got %v", got)
	}
	if got := litmusSolve(t, b, MemTSO, involved, required); got != smt.Unsat {
		t.Errorf("MP stale read forbidden under TSO (store→store kept), got %v", got)
	}
	if got := litmusSolve(t, b, MemPSO, involved, required); got != smt.Sat {
		t.Errorf("MP stale read allowed under PSO, got %v", got)
	}
}
