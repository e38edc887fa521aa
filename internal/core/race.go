package core

import (
	"sort"

	"canary/internal/guard"
	"canary/internal/ir"
	"canary/internal/smt"
	"canary/internal/vfg"
)

// Additional checker kinds expressible in the guarded value-flow framework
// (the "diversified" bug classes of §1, beyond the four source–sink ones).
const (
	// CheckDataRace reports pairs of conflicting shared-memory accesses
	// that no synchronization orders: MHP, overlapping alias guards, no
	// common lock, and neither execution order forced by the constraints.
	CheckDataRace = "data-race"
	// CheckDeadlock reports ab-ba lock-acquisition cycles between threads
	// that may run in parallel.
	CheckDeadlock = "deadlock"
)

// checkRaces enumerates conflicting access pairs per escaped object and
// validates each candidate with the same guard/order machinery as the
// source–sink checkers: a pair is racy when its guards are satisfiable in
// *both* orders (no synchronization forces one) and no common lock
// protects it.
func (b *Builder) checkRaces(opt CheckOptions) ([]Report, CheckStats) {
	var stats CheckStats
	type access struct {
		inst *ir.Inst
		cond *guard.Formula
	}
	byLoc := make(map[vfg.Loc][]access)
	for _, inst := range b.Prog.Insts() {
		var ptr ir.VarID
		switch inst.Op {
		case ir.OpStore, ir.OpLoad:
			ptr = inst.Ptr
		default:
			continue
		}
		for _, e := range b.pts[ptr] {
			if b.escaped[e.o] {
				loc := vfg.Loc{Obj: e.o, Field: inst.Field()}
				byLoc[loc] = append(byLoc[loc], access{inst, e.g})
			}
		}
	}
	locs := make([]vfg.Loc, 0, len(byLoc))
	for l := range byLoc {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool {
		if locs[i].Obj != locs[j].Obj {
			return locs[i].Obj < locs[j].Obj
		}
		return locs[i].Field < locs[j].Field
	})

	var reports []Report
	seen := make(map[[2]ir.Label]bool)
	c := &checkCtx{b: b, kind: CheckDataRace, opt: opt}
	for _, loc := range locs {
		accs := byLoc[loc]
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				a1, a2 := accs[i], accs[j]
				if a1.inst.Op != ir.OpStore && a2.inst.Op != ir.OpStore {
					continue // at least one write
				}
				if a1.inst.Thread == a2.inst.Thread {
					continue
				}
				if a1.inst.Op != ir.OpStore {
					a1, a2 = a2, a1 // report the store as the source
				}
				key := [2]ir.Label{a1.inst.Label, a2.inst.Label}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if seen[key] {
					continue
				}
				if opt.EnableLocksetFilter() && len(b.Prog.CommonLocks(a1.inst, a2.inst)) > 0 {
					continue // lockset-protected: ordered by the mutex
				}
				if !b.MHP.MHP(a1.inst.Label, a2.inst.Label) {
					continue
				}
				stats.PathsExamined++
				if ok, schedule := b.racePairRealizable(c, &stats, a1.inst, a2.inst, a1.cond, a2.cond, opt); ok {
					seen[key] = true
					reports = append(reports, Report{
						Kind:     CheckDataRace,
						Source:   c.site(a1.inst.Label),
						Sink:     c.site(a2.inst.Label),
						Schedule: schedule,
						Guard:    b.Prog.Pool.String(guard.And(a1.inst.Guard, a2.inst.Guard, a1.cond, a2.cond)),
						Result:   smt.Sat,
					})
				}
			}
		}
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Source.Label != reports[j].Source.Label {
			return reports[i].Source.Label < reports[j].Source.Label
		}
		return reports[i].Sink.Label < reports[j].Sink.Label
	})
	return reports, stats
}

// EnableLocksetFilter reports whether the lockset-based pre-filter applies
// (it is part of the lock extension).
func (o CheckOptions) EnableLocksetFilter() bool { return o.LockOrder }

// racePairRealizable checks that the conflicting pair's guards admit
// executions in both orders — if the synchronization constraints force one
// order, the accesses are not racy. On success it also returns a witness
// schedule built from the first direction's model.
func (b *Builder) racePairRealizable(c *checkCtx, stats *CheckStats, i1, i2 *ir.Inst, cond1, cond2 *guard.Formula, opt CheckOptions) (bool, []Site) {
	pool := b.Prog.Pool
	var schedule []Site
	bothOrders := [][2]ir.Label{
		{i1.Label, i2.Label},
		{i2.Label, i1.Label},
	}
	for _, dir := range bothOrders {
		q := &query{c: c}
		q.others = append(q.others, i1.Guard, i2.Guard, cond1, cond2)
		labels := []ir.Label{i1.Label, i2.Label}
		if opt.CondVarOrder {
			c.condVarConstraints(q, &labels)
		}
		labels = dedupLabels(labels)
		for x := 0; x < len(labels); x++ {
			for y := x + 1; y < len(labels); y++ {
				c.poFacts(q, labels[x], labels[y])
			}
		}
		q.facts = append(q.facts, dir)

		if opt.FactPropagation {
			closure := newOrderClosure(q.facts)
			if closure.cycle {
				stats.FactDecided++
				return false, nil // this order is impossible: synchronized
			}
			for i, d := range q.others {
				q.others[i] = closure.simplify(pool, d)
			}
		}
		all := q.assemble(pool)
		if all.IsFalse() {
			stats.SemiDecided++
			return false, nil
		}
		s := smt.New(pool)
		s.MaxConflicts = opt.MaxConflicts
		s.Assert(all)
		stats.SolverQueries++
		res := s.Solve()
		if res == smt.Unsat {
			stats.SolverUnsat++
			return false, nil
		}
		if schedule == nil {
			// Assign the interface only on Sat: a typed-nil *smt.Solver
			// would dodge buildSchedule's nil check.
			var model smt.AtomValuer
			if res == smt.Sat {
				model = s
			}
			schedule = c.buildSchedule(labels, q.facts, model)
		}
	}
	return true, schedule
}

// checkDeadlocks looks for the classic ab-ba pattern: a lock acquisition
// of m2 while holding m1 in one thread, MHP with an acquisition of m1
// while holding m2 in another, under satisfiable guards.
func (b *Builder) checkDeadlocks(opt CheckOptions) ([]Report, CheckStats) {
	var stats CheckStats
	type acq struct {
		inst *ir.Inst
		held string // a lock already held at this acquisition
	}
	var acqs []acq
	for _, inst := range b.Prog.Insts() {
		if inst.Op != ir.OpLock {
			continue
		}
		for _, h := range b.Prog.Locks(inst) {
			if h.Name != inst.Mutex() {
				acqs = append(acqs, acq{inst: inst, held: h.Name})
			}
		}
	}
	var reports []Report
	seen := make(map[[2]ir.Label]bool)
	c := &checkCtx{b: b, kind: CheckDeadlock, opt: opt}
	for i := 0; i < len(acqs); i++ {
		for j := 0; j < len(acqs); j++ {
			a1, a2 := acqs[i], acqs[j]
			if a1.inst.Thread == a2.inst.Thread {
				continue
			}
			// a1 holds X acquires Y; a2 holds Y acquires X.
			if a1.held != a2.inst.Mutex() || a2.held != a1.inst.Mutex() {
				continue
			}
			key := [2]ir.Label{a1.inst.Label, a2.inst.Label}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			if seen[key] {
				continue
			}
			if !b.MHP.MHP(a1.inst.Label, a2.inst.Label) {
				continue
			}
			stats.PathsExamined++
			both := guard.And(a1.inst.Guard, a2.inst.Guard)
			if both.IsFalse() {
				stats.SemiDecided++
				continue
			}
			if sat, decided := guard.SemiDecide(both); decided && !sat {
				stats.SemiDecided++
				continue
			}
			s := smt.New(b.Prog.Pool)
			s.MaxConflicts = opt.MaxConflicts
			s.Assert(both)
			stats.SolverQueries++
			if s.Solve() == smt.Unsat {
				stats.SolverUnsat++
				continue
			}
			seen[key] = true
			reports = append(reports, Report{
				Kind:   CheckDeadlock,
				Source: c.site(a1.inst.Label),
				Sink:   c.site(a2.inst.Label),
				Guard:  b.Prog.Pool.String(both),
				Result: smt.Sat,
			})
		}
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Source.Label != reports[j].Source.Label {
			return reports[i].Source.Label < reports[j].Source.Label
		}
		return reports[i].Sink.Label < reports[j].Sink.Label
	})
	return reports, stats
}
