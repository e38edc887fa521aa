// Package guard implements the symbolic execution-constraint formulas
// ("guards") that annotate value-flow edges in Canary (PLDI 2021, §4).
//
// A guard is an immutable propositional formula over two kinds of atoms:
//
//   - boolean atoms, which stand for opaque branch conditions (the θ of the
//     paper's Fig. 2), and
//   - order atoms O_i < O_j, which stand for a strict execution-order
//     relation between two statement labels (Defn. 2).
//
// Constructors perform lightweight structural simplification (flattening,
// unit elimination, complementary-literal detection). The package also
// provides the semi-decision procedure of §5.2 that cheaply filters out
// guards with apparent contradictions before any SMT solving happens.
package guard

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Atom identifies an atomic proposition interned in a Pool. The zero Atom is
// invalid.
type Atom int32

// Kind discriminates the node type of a Formula.
type Kind uint8

// Formula node kinds.
const (
	KTrue Kind = iota
	KFalse
	KVar // a single atom
	KNot
	KAnd
	KOr
)

// Formula is an immutable propositional formula. The zero value is not
// meaningful; use the package constructors. Formulas share subtrees freely.
//
// Formulas are hash-consed through a global, concurrency-safe interner (see
// intern below): structurally identical formulas built through the package
// constructors share one pointer, so pointer equality implies structural
// equality. Downstream consumers (the Tseitin memo, the presolver's
// substitution memo, ir.Digest's guard table) exploit this for O(1)
// canonical keys.
type Formula struct {
	kind Kind
	atom Atom
	id   int32 // dense interner identity; see ID
	subs []*Formula
}

// ID returns the formula's dense interner identity: ⊤ is 1, ⊥ is 2, and
// every further distinct formula interned by this process gets the next
// integer. IDs are assigned at intern time, so they are stable for the
// process lifetime and usable as array indexes, but they depend on
// construction order and must never leak into analysis output.
func (f *Formula) ID() int32 { return f.id }

var (
	trueF  = &Formula{kind: KTrue, id: 1}
	falseF = &Formula{kind: KFalse, id: 2}
)

// The interner is a sharded, open-addressed hash-cons table keyed directly
// on the shallow node identity (kind, atom, child IDs) — no per-lookup key
// string is ever materialized. Children are always interned before parents
// (constructors build bottom-up), so child pointers are stable key material
// and child-pointer equality coincides with child-ID equality.
//
// Each shard is bounded in principle by internShardCap slots; a shard that
// would grow past the cap is reset instead (epoch flush). Dropping entries
// is safe: two structurally equal formulas with distinct pointers only cost
// downstream caches a miss, never a wrong answer.
const (
	internShardBits = 4
	internShardCap  = 1 << 17 // slots per shard; ×16 shards ≈ the old soft cap
)

type internShard struct {
	mu    sync.Mutex
	tab   []*Formula // power-of-two open-addressed table, nil slot = empty
	count int
}

var (
	internShards [1 << internShardBits]internShard
	internIDs    atomic.Int32 // last assigned formula ID; 1 and 2 are ⊤ and ⊥
	internHits   atomic.Uint64
	internMisses atomic.Uint64
	batchedEvals atomic.Uint64
)

func init() {
	internIDs.Store(2)
}

// hashNode mixes the shallow identity of a node (FNV-1a over the integer
// key material).
func hashNode(kind Kind, atom Atom, subs []*Formula) uint64 {
	h := uint64(1469598103934665603)
	h = (h ^ uint64(kind)) * 1099511628211
	h = (h ^ uint64(uint32(atom))) * 1099511628211
	for _, s := range subs {
		h = (h ^ uint64(uint32(s.id))) * 1099511628211
	}
	return h
}

func sameSubs(a, b []*Formula) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // interned children: pointer equality ⟺ ID equality
			return false
		}
	}
	return true
}

// internNode returns the canonical formula for (kind, atom, subs),
// registering a new node if none exists. The hit path performs no
// allocation, and the subs slice is never retained (the miss path copies
// it) — so callers can pass stack-allocated buffers without them escaping.
func internNode(kind Kind, atom Atom, subs []*Formula) *Formula {
	h := hashNode(kind, atom, subs)
	sh := &internShards[h>>(64-internShardBits)]
	sh.mu.Lock()
	if sh.tab == nil {
		sh.tab = make([]*Formula, 1<<10)
	}
	mask := uint64(len(sh.tab) - 1)
	i := h & mask
	for {
		e := sh.tab[i]
		if e == nil {
			break
		}
		if e.kind == kind && e.atom == atom && sameSubs(e.subs, subs) {
			sh.mu.Unlock()
			internHits.Add(1)
			return e
		}
		i = (i + 1) & mask
	}
	var owned []*Formula
	if len(subs) > 0 {
		owned = append([]*Formula(nil), subs...)
	}
	f := &Formula{kind: kind, atom: atom, id: internIDs.Add(1), subs: owned}
	sh.tab[i] = f
	sh.count++
	if sh.count*4 > len(sh.tab)*3 {
		sh.rehash()
	}
	sh.mu.Unlock()
	internMisses.Add(1)
	return f
}

// rehash doubles the shard's table, or resets it when doubling would pass
// the shard cap (the epoch flush described on the interner comment).
// Callers hold the shard lock.
func (sh *internShard) rehash() {
	next := len(sh.tab) * 2
	if next > internShardCap {
		sh.tab = make([]*Formula, 1<<10)
		sh.count = 0
		return
	}
	old := sh.tab
	sh.tab = make([]*Formula, next)
	mask := uint64(next - 1)
	for _, e := range old {
		if e == nil {
			continue
		}
		i := hashNode(e.kind, e.atom, e.subs) & mask
		for sh.tab[i] != nil {
			i = (i + 1) & mask
		}
		sh.tab[i] = e
	}
}

// InternStats returns the cumulative hash-cons hit and miss counts of the
// global formula interner. Deltas around an analysis phase measure how much
// structural sharing the phase enjoyed.
func InternStats() (hits, misses uint64) {
	return internHits.Load(), internMisses.Load()
}

// InternedCount returns the number of distinct formulas interned by this
// process (including ⊤ and ⊥, excluding entries dropped by epoch flushes
// and later re-interned).
func InternedCount() int64 { return int64(internIDs.Load()) }

// BatchedEvals returns the cumulative number of formula evaluations served
// through the batched assignment-slice evaluator (EvalAll / EvalAssign).
func BatchedEvals() uint64 { return batchedEvals.Load() }

// True returns the formula ⊤.
func True() *Formula { return trueF }

// False returns the formula ⊥.
func False() *Formula { return falseF }

// Kind reports the node kind of f.
func (f *Formula) Kind() Kind { return f.kind }

// Atom returns the atom of a KVar node; it is 0 for other kinds.
func (f *Formula) Atom() Atom {
	if f.kind == KVar {
		return f.atom
	}
	return 0
}

// Subs returns the immediate subformulas of a KNot, KAnd or KOr node. The
// returned slice must not be modified.
func (f *Formula) Subs() []*Formula { return f.subs }

// IsTrue reports whether f is syntactically ⊤.
func (f *Formula) IsTrue() bool { return f.kind == KTrue }

// IsFalse reports whether f is syntactically ⊥.
func (f *Formula) IsFalse() bool { return f.kind == KFalse }

// Var returns the formula consisting of the single atom a.
func Var(a Atom) *Formula {
	if a <= 0 {
		panic("guard: Var with non-positive atom")
	}
	return internNode(KVar, a, nil)
}

// Not returns ¬f, simplifying double negation and constants.
func Not(f *Formula) *Formula {
	switch f.kind {
	case KTrue:
		return falseF
	case KFalse:
		return trueF
	case KNot:
		return f.subs[0]
	}
	sub := [1]*Formula{f}
	return internNode(KNot, 0, sub[:])
}

// litKey returns a key identifying f if it is a literal (an atom or a
// negated atom): positive atom id for KVar, negative for ¬KVar, and
// (0, false) otherwise.
func litKey(f *Formula) (int32, bool) {
	switch f.kind {
	case KVar:
		return int32(f.atom), true
	case KNot:
		if f.subs[0].kind == KVar {
			return -int32(f.subs[0].atom), true
		}
	}
	return 0, false
}

// And returns the conjunction of fs with flattening, unit and duplicate
// elimination, and complementary-literal short-circuiting.
func And(fs ...*Formula) *Formula { return nary(KAnd, fs) }

// Or returns the disjunction of fs with the dual simplifications of And.
func Or(fs ...*Formula) *Formula { return nary(KOr, fs) }

// nary builds an And/Or with flattening, unit and duplicate elimination,
// and complementary-literal short-circuiting. The operand and literal-key
// buffers live on this frame's stack and dedup by linear scan: operand
// lists are short (guards are size-capped downstream), and avoiding the
// per-construction map allocations is what keeps the And/Or hot path
// allocation-free on hash-cons hits. Everything stays in local slices —
// a pointer-receiver helper here would make the buffers escape.
func nary(kind Kind, fs []*Formula) *Formula {
	unit, zero := KTrue, KFalse
	if kind == KOr {
		unit, zero = KFalse, KTrue
	}
	var outBuf [16]*Formula
	var keyBuf [16]int32
	out, keys := outBuf[:0], keyBuf[:0] // keys parallel to out: litKey, 0 for non-literals
	var single [1]*Formula
	for _, f := range fs {
		if f == nil {
			panic("guard: nil formula operand")
		}
		if f.kind == unit {
			continue
		}
		if f.kind == zero {
			return zeroFormula(kind)
		}
		ops := single[:1]
		if f.kind == kind {
			// Flatten: interned same-kind operands are already flat and
			// contain no unit/zero conjuncts, so one level suffices.
			ops = f.subs
		} else {
			single[0] = f
		}
	opLoop:
		for _, g := range ops {
			for _, e := range out {
				if e == g {
					continue opLoop // duplicate operand (interned: pointer equality)
				}
			}
			k, isLit := litKey(g)
			if isLit {
				for _, e := range keys {
					if e == -k {
						return zeroFormula(kind) // x ∧ ¬x (or x ∨ ¬x)
					}
				}
			} else {
				k = 0
			}
			out = append(out, g)
			keys = append(keys, k)
		}
	}
	switch len(out) {
	case 0:
		if kind == KOr {
			return falseF
		}
		return trueF
	case 1:
		return out[0]
	}
	return internNode(kind, 0, out)
}

// zeroFormula is the annihilating element of kind: ⊤ for Or, ⊥ for And.
func zeroFormula(kind Kind) *Formula {
	if kind == KOr {
		return trueF
	}
	return falseF
}

// Implies returns ¬a ∨ b.
func Implies(a, b *Formula) *Formula { return Or(Not(a), b) }

// Eval evaluates f under the given total assignment of atoms. Atoms missing
// from the map evaluate to false.
func (f *Formula) Eval(asn map[Atom]bool) bool {
	switch f.kind {
	case KTrue:
		return true
	case KFalse:
		return false
	case KVar:
		return asn[f.atom]
	case KNot:
		return !f.subs[0].Eval(asn)
	case KAnd:
		for _, s := range f.subs {
			if !s.Eval(asn) {
				return false
			}
		}
		return true
	case KOr:
		for _, s := range f.subs {
			if s.Eval(asn) {
				return true
			}
		}
		return false
	}
	panic("guard: bad formula kind")
}

// Atoms appends to dst every distinct atom occurring in f and returns the
// extended slice.
func (f *Formula) Atoms(dst []Atom) []Atom {
	seen := make(map[Atom]bool)
	var walk func(g *Formula)
	walk = func(g *Formula) {
		switch g.kind {
		case KVar:
			if !seen[g.atom] {
				seen[g.atom] = true
				dst = append(dst, g.atom)
			}
		case KNot, KAnd, KOr:
			for _, s := range g.subs {
				walk(s)
			}
		}
	}
	walk(f)
	return dst
}

// Size returns the number of nodes in the formula tree (shared subtrees are
// counted once per occurrence).
func (f *Formula) Size() int {
	n := 1
	for _, s := range f.subs {
		n += s.Size()
	}
	return n
}

// SemiDecide is the lightweight semi-decision procedure of §5.2. It returns
// (result, decided). When decided is true, result is the exact
// satisfiability of f; when decided is false the formula needs a full SMT
// query. It runs in time linear in the size of f and never returns a wrong
// verdict.
//
// The procedure decides:
//   - syntactic ⊤/⊥ (constructors already fold contradictory literal sets);
//   - pure conjunctions of literals (checking complementary pairs);
//   - conjunctions whose conjuncts include a decided-⊥ part.
func SemiDecide(f *Formula) (sat, decided bool) {
	switch f.kind {
	case KTrue:
		return true, true
	case KFalse:
		return false, true
	case KVar:
		return true, true
	case KNot:
		if f.subs[0].kind == KVar {
			return true, true
		}
		return false, false
	case KAnd:
		var litBuf [32]int32
		lits := litBuf[:0]
		pure := true
		for _, s := range f.subs {
			k, ok := litKey(s)
			if !ok {
				pure = false
				continue
			}
			for _, e := range lits {
				if e == -k {
					return false, true
				}
			}
			lits = append(lits, k)
		}
		if pure {
			return true, true
		}
		return false, false
	}
	return false, false
}

// Assignment is a dense partial truth assignment over atoms, the
// allocation-free replacement for the map[Atom]bool the evaluation hot
// paths used to build per query. The zero value is an empty assignment;
// Reset reuses the backing storage across queries.
type Assignment struct {
	vals []int8 // index atom-1: 0 unassigned, +1 true, -1 false
	set  []Atom // assigned atoms, in assignment order
}

// NewAssignment returns an assignment with capacity for atoms 1..n
// preallocated (it still grows on demand).
func NewAssignment(n int) *Assignment {
	if n < 0 {
		n = 0
	}
	return &Assignment{vals: make([]int8, n)}
}

// Reset clears every assignment while keeping the backing storage.
func (a *Assignment) Reset() {
	for _, at := range a.set {
		a.vals[at-1] = 0
	}
	a.set = a.set[:0]
}

// Len returns the number of assigned atoms.
func (a *Assignment) Len() int { return len(a.set) }

// Assigned returns the assigned atoms in assignment order. The slice is
// owned by the assignment; it is invalidated by Set and Reset.
func (a *Assignment) Assigned() []Atom { return a.set }

// Set assigns atom at := v, overwriting any previous assignment.
func (a *Assignment) Set(at Atom, v bool) {
	if at <= 0 {
		panic("guard: Assignment.Set with non-positive atom")
	}
	if int(at) > len(a.vals) {
		grown := make([]int8, int(at)+int(at)/2)
		copy(grown, a.vals)
		a.vals = grown
	}
	if a.vals[at-1] == 0 {
		a.set = append(a.set, at)
	}
	if v {
		a.vals[at-1] = 1
	} else {
		a.vals[at-1] = -1
	}
}

// Get reports the assignment of at: its value and whether it is assigned.
func (a *Assignment) Get(at Atom) (v, ok bool) {
	if at <= 0 || int(at) > len(a.vals) {
		return false, false
	}
	switch a.vals[at-1] {
	case 1:
		return true, true
	case -1:
		return false, true
	}
	return false, false
}

// Value returns the truth value of at with Eval's missing-atom semantics:
// unassigned atoms are false.
func (a *Assignment) Value(at Atom) bool {
	if at <= 0 || int(at) > len(a.vals) {
		return false
	}
	return a.vals[at-1] == 1
}

// EvalAssign evaluates f under the assignment with Eval's semantics
// (unassigned atoms are false) without touching any map.
func (f *Formula) EvalAssign(a *Assignment) bool {
	switch f.kind {
	case KTrue:
		return true
	case KFalse:
		return false
	case KVar:
		return a.Value(f.atom)
	case KNot:
		return !f.subs[0].EvalAssign(a)
	case KAnd:
		for _, s := range f.subs {
			if !s.EvalAssign(a) {
				return false
			}
		}
		return true
	case KOr:
		for _, s := range f.subs {
			if s.EvalAssign(a) {
				return true
			}
		}
		return false
	}
	panic("guard: bad formula kind")
}

// EvalAll evaluates every formula in fs under one shared assignment,
// appending the results to dst and returning it. It is the batched form of
// EvalAssign for callers that evaluate many guards against the same
// schedule; one assignment slice serves the whole batch.
func EvalAll(fs []*Formula, a *Assignment, dst []bool) []bool {
	for _, f := range fs {
		dst = append(dst, f.EvalAssign(a))
	}
	batchedEvals.Add(uint64(len(fs)))
	return dst
}

// Pool interns atoms and records their interpretation. All methods are safe
// for concurrent use: the bug-checking stage interns order atoms from
// parallel source-sink queries (§5.2's parallelization).
type Pool struct {
	mu    sync.Mutex
	names map[string]Atom
	info  []atomInfo // index atom-1
}

type atomInfo struct {
	name     string
	order    bool
	from, to int // statement labels for order atoms
}

// NewPool returns an empty atom pool.
func NewPool() *Pool {
	return &Pool{names: make(map[string]Atom)}
}

// Bool interns (or returns the existing) boolean atom with the given name.
// Names are the identity of boolean atoms: two statements sharing the same
// syntactic branch condition share the atom, which is what makes the θ vs ¬θ
// contradiction of the paper's Fig. 2 detectable.
func (p *Pool) Bool(name string) Atom {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.intern(atomInfo{name: name})
}

func (p *Pool) intern(ai atomInfo) Atom {
	if a, ok := p.names[ai.name]; ok {
		return a
	}
	p.info = append(p.info, ai)
	a := Atom(len(p.info))
	p.names[ai.name] = a
	return a
}

// Order interns the order atom O_from < O_to between two statement labels.
// Interning is symmetric-aware only in that (from,to) and (to,from) are
// distinct atoms related by the theory (¬(i<j) ⟺ j<i for i≠j).
func (p *Pool) Order(from, to int) Atom {
	p.mu.Lock()
	defer p.mu.Unlock()
	name := fmt.Sprintf("O%d<O%d", from, to)
	return p.intern(atomInfo{name: name, order: true, from: from, to: to})
}

// NumAtoms returns the number of interned atoms.
func (p *Pool) NumAtoms() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.info)
}

// Name returns the display name of atom a.
func (p *Pool) Name(a Atom) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a <= 0 || int(a) > len(p.info) {
		return fmt.Sprintf("atom#%d", a)
	}
	return p.info[a-1].name
}

// OrderAtom reports whether a is an order atom and, if so, its two
// statement labels.
func (p *Pool) OrderAtom(a Atom) (from, to int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a <= 0 || int(a) > len(p.info) {
		return 0, 0, false
	}
	ai := p.info[a-1]
	return ai.from, ai.to, ai.order
}

// String renders f using the pool's atom names.
func (p *Pool) String(f *Formula) string {
	var b strings.Builder
	p.render(&b, f, false)
	return b.String()
}

func (p *Pool) render(b *strings.Builder, f *Formula, paren bool) {
	switch f.kind {
	case KTrue:
		b.WriteString("true")
	case KFalse:
		b.WriteString("false")
	case KVar:
		b.WriteString(p.Name(f.atom))
	case KNot:
		b.WriteString("!")
		p.render(b, f.subs[0], true)
	case KAnd, KOr:
		op := " && "
		if f.kind == KOr {
			op = " || "
		}
		if paren {
			b.WriteString("(")
		}
		// Render literals in a stable order for readable, deterministic
		// reports.
		subs := f.subs
		if allLiterals(subs) {
			subs = sortedLiterals(p, subs)
		}
		for i, s := range subs {
			if i > 0 {
				b.WriteString(op)
			}
			p.render(b, s, true)
		}
		if paren {
			b.WriteString(")")
		}
	}
}

func allLiterals(fs []*Formula) bool {
	for _, f := range fs {
		if _, ok := litKey(f); !ok {
			return false
		}
	}
	return true
}

func sortedLiterals(p *Pool, fs []*Formula) []*Formula {
	out := append([]*Formula(nil), fs...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, _ := litKey(out[i])
		kj, _ := litKey(out[j])
		ni, nj := p.Name(Atom(abs32(ki))), p.Name(Atom(abs32(kj)))
		if ni != nj {
			return ni < nj
		}
		return ki > kj // positive literal first
	})
	return out
}

func abs32(x int32) int32 {
	if x < 0 {
		return -x
	}
	return x
}
