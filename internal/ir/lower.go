package ir

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"unsafe"

	"canary/internal/guard"
	"canary/internal/lang"
	"canary/internal/pta"
)

// Options configures the structural bounding of §3.1.
type Options struct {
	// UnrollDepth is how many times loops are unrolled (the paper unrolls
	// each loop twice, §6). Minimum 1.
	UnrollDepth int
	// InlineDepth is the maximum call-inlining (context nesting) depth; the
	// paper sets the number of nested calling-context levels to six (§7.2).
	InlineDepth int
	// Entry is the entry function name; defaults to "main".
	Entry string
	// Summaries optionally supplies precomputed Trans(F) summaries keyed by
	// function name (the incremental path: canary.Session loads unchanged
	// functions' summaries from its digest-keyed store and injects them
	// here). nil means Lower computes them from scratch. The injected map
	// must cover every function of src, as pta.Summaries would.
	Summaries map[string]*pta.Summary
}

// DefaultOptions mirrors the paper's configuration.
func DefaultOptions() Options {
	return Options{UnrollDepth: 2, InlineDepth: 6, Entry: "main"}
}

func (o Options) withDefaults() Options {
	if o.UnrollDepth < 1 {
		o.UnrollDepth = 2
	}
	if o.InlineDepth < 1 {
		o.InlineDepth = 6
	}
	if o.Entry == "" {
		o.Entry = "main"
	}
	return o
}

// Lower converts a parsed program into the bounded partial-SSA IR,
// performing loop unrolling, clone-based call inlining, SSA renaming with φ
// insertion, and thread-tree construction. Function pointers in fork/call
// positions are resolved with Steensgaard's analysis (§6), which runs at
// the first call or fork whose callee is not a declared function; a
// program that has none never pays for it.
func Lower(src *lang.Program, opt Options) (*Program, error) {
	opt = opt.withDefaults()
	// funcs answers every call, fork and function-name lookup of the
	// lowering; the first declaration of a name wins, as in Program.Func.
	funcs := make(map[string]*lang.FuncDecl, len(src.Funcs))
	for _, f := range src.Funcs {
		if _, dup := funcs[f.Name]; !dup {
			funcs[f.Name] = f
		}
	}
	entry := funcs[opt.Entry]
	if entry == nil {
		return nil, fmt.Errorf("ir: no entry function %q", opt.Entry)
	}
	summaries := opt.Summaries
	if summaries == nil {
		summaries = pta.Summaries(src)
	}
	l := &lowerer{
		src:       src,
		funcs:     funcs,
		opt:       opt,
		p:         &Program{Pool: guard.NewPool()},
		summaries: summaries,
		globals:   make(map[string]ObjID),
		funcObj:   make(map[string]ObjID),
		heapN:     0,
	}
	for _, g := range src.Globals {
		l.globals[g.Name] = l.p.newObject(ObjGlobal, "g:"+g.Name, NoLabel, "")
	}

	// Main thread.
	main := &Thread{ID: 0, Name: "main", Parent: -1, ForkSite: NoLabel, JoinSite: NoLabel}
	l.p.Threads = append(l.p.Threads, main)
	tl := l.newThreadLowerer(main, guard.True())
	env := &env{}
	for _, param := range entry.Params {
		env.set(param, l.newVar(param+".arg", NoLabel))
	}
	ctx := &callCtx{fn: l.newFn(entry.Name), src: entry.Name}
	tl.lowerBlock(entry.Body, env, ctx)
	l.p.Finalize()
	return l.p, nil
}

type lowerer struct {
	src       *lang.Program
	funcs     map[string]*lang.FuncDecl // by name, first declaration
	opt       Options
	p         *Program
	steens    *pta.Steensgaard // nil until the first indirect callee
	summaries map[string]*pta.Summary
	globals   map[string]ObjID
	funcObj   map[string]ObjID
	heapN     int
	varN      int
	blockN    int
	insts     slab[Inst]
	vars      slab[Var]
}

// slabBytes is the size of the chunks a slab allocates: one 8-KB size
// class, so that the allocator rounds no chunk up to whole pages.
const slabBytes = 8 << 10

// slab hands out pointers into chunks of slabBytes, so that the
// instructions and variables of a lowering cost one allocation per chunk
// rather than one each.
type slab[T any] struct{ free []T }

func (s *slab[T]) alloc() *T {
	if len(s.free) == 0 {
		var zero T
		s.free = make([]T, max(1, slabBytes/int(unsafe.Sizeof(zero))))
	}
	x := &s.free[0]
	s.free = s.free[1:]
	return x
}

// newFn enters a clone name in the program's table.
func (l *lowerer) newFn(name string) FnID {
	l.p.fns = append(l.p.fns, name)
	return FnID(len(l.p.fns) - 1)
}

// newVar interns a fresh SSA variable version.
func (l *lowerer) newVar(name string, def Label) VarID {
	v := l.vars.alloc()
	*v = Var{ID: VarID(len(l.p.Vars) + 1), Name: name, Def: def}
	l.p.Vars = append(l.p.Vars, v)
	return v.ID
}

func (l *lowerer) funcObject(name string) ObjID {
	if id, ok := l.funcObj[name]; ok {
		return id
	}
	id := l.p.newObject(ObjFunc, "fn:"+name, NoLabel, name)
	l.funcObj[name] = id
	return id
}

// freshVar interns the next SSA version of base, named "<base>.<n>". The
// name is built in a stack buffer, so the string is its only allocation.
func (l *lowerer) freshVar(base string, def Label) VarID {
	l.varN++
	var buf [48]byte
	name := append(append(buf[:0], base...), '.')
	return l.newVar(string(strconv.AppendInt(name, int64(l.varN), 10)), def)
}

// env is the SSA renaming environment of one function scope. A branch's
// env holds only the bindings made inside the branch and reads the rest
// through parent, so entering a branch copies nothing and a merge visits
// only the names some branch bound.
type env struct {
	parent  *env
	vars    map[string]VarID // bindings made in this env; nil until the first
	threads map[string][]int // fork handle → child thread ids; nil when empty
}

// get resolves name through the env and its parents.
func (e *env) get(name string) (VarID, bool) {
	for ; e != nil; e = e.parent {
		if v, ok := e.vars[name]; ok {
			return v, true
		}
	}
	return 0, false
}

func (e *env) set(name string, v VarID) {
	if e.vars == nil {
		e.vars = make(map[string]VarID)
	}
	e.vars[name] = v
}

func (e *env) setThreads(handle string, ids []int) {
	if e.threads == nil {
		e.threads = make(map[string][]int)
	}
	e.threads[handle] = ids
}

// branch returns an env for one arm of a branch of e. Thread handles are
// few, so the branch takes its own copy of them.
func (e *env) branch() *env {
	ne := &env{parent: e}
	for k, v := range e.threads {
		ne.setThreads(k, append([]int(nil), v...))
	}
	return ne
}

// callCtx tracks the inlining state (clone-based context sensitivity).
type callCtx struct {
	fn      FnID      // the current clone's display name, in the clone-name table
	src     string    // source function of the current clone
	depth   int       // inlining depth
	caller  *callCtx  // the clone this one is inlined into; nil at a thread root
	returns *[]retVal // collector for the innermost inlined call
}

// onStack reports whether source function f is on the inline stack of
// ctx's thread (the recursion cut).
func (ctx *callCtx) onStack(f string) bool {
	for c := ctx; c != nil; c = c.caller {
		if c.src == f {
			return true
		}
	}
	return false
}

type retVal struct {
	val   VarID // 0 for void
	guard *guard.Formula
}

// threadLowerer lowers statements into one thread's CFG.
type threadLowerer struct {
	l    *lowerer
	th   *Thread
	cur  *Block
	path *guard.Formula
	live bool
}

func (l *lowerer) newThreadLowerer(th *Thread, entryGuard *guard.Formula) *threadLowerer {
	tl := &threadLowerer{l: l, th: th, path: entryGuard, live: true}
	tl.cur = tl.newBlock(entryGuard)
	th.Entry = tl.cur
	return tl
}

func (tl *threadLowerer) newBlock(g *guard.Formula) *Block {
	tl.l.blockN++
	b := &Block{ID: tl.l.blockN, Thread: tl.th.ID, Guard: g}
	tl.th.Blocks = append(tl.th.Blocks, b)
	return b
}

func link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// emit appends an instruction to the current block, assigning its label.
func (tl *threadLowerer) emit(inst Inst) *Inst {
	i := tl.l.insts.alloc()
	*i = inst
	i.Label = Label(len(tl.l.p.insts))
	i.Thread = int32(tl.th.ID)
	i.Block = tl.cur
	if i.Guard == nil {
		i.Guard = tl.path
	}
	tl.l.p.insts = append(tl.l.p.insts, i)
	tl.cur.Insts = append(tl.cur.Insts, i)
	return i
}

// lowerCond maps an AST condition to a guard formula; atoms are keyed on
// canonical condition text, so the same syntactic condition anywhere in the
// program shares an atom (Fig. 2's θ).
func (tl *threadLowerer) lowerCond(c lang.Cond) *guard.Formula {
	switch c := c.(type) {
	case *lang.CondTrue:
		return guard.True()
	case *lang.CondFalse:
		return guard.False()
	case *lang.CondAtom:
		return guard.Var(tl.l.p.Pool.Bool(c.Txt))
	case *lang.CondNot:
		return guard.Not(tl.lowerCond(c.C))
	case *lang.CondAnd:
		return guard.And(tl.lowerCond(c.L), tl.lowerCond(c.R))
	case *lang.CondOr:
		return guard.Or(tl.lowerCond(c.L), tl.lowerCond(c.R))
	}
	panic("ir: unknown condition node")
}

// lookup resolves a variable read. Unbound names become havoc definitions
// (explicitly undefined inputs); function names become address-of-function
// values.
func (tl *threadLowerer) lookup(e *env, ctx *callCtx, name string, pos lang.Pos) VarID {
	if v, ok := e.get(name); ok {
		return v
	}
	if tl.l.funcs[name] != nil {
		v := tl.l.freshVar(name, 0)
		in := tl.emit(Inst{Op: OpAddr, Def: v, Obj: tl.l.funcObject(name), Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	v := tl.l.freshVar(name, 0)
	in := tl.emit(Inst{Op: OpHavoc, Def: v, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	e.set(name, v)
	return v
}

// lowerBlock lowers stmts into the CFG; it returns normally even when the
// path died (live=false) so callers can merge environments.
func (tl *threadLowerer) lowerBlock(b *lang.Block, e *env, ctx *callCtx) {
	for _, st := range b.Stmts {
		if !tl.live {
			return
		}
		tl.lowerStmt(st, e, ctx)
	}
}

func (tl *threadLowerer) lowerStmt(st lang.Stmt, e *env, ctx *callCtx) {
	switch st := st.(type) {
	case *lang.AssignStmt:
		v := tl.lowerExpr(st.LHS, st.RHS, e, ctx)
		if v != 0 {
			e.set(st.LHS, v)
		}
	case *lang.StoreStmt:
		ptr := tl.lookup(e, ctx, st.Ptr, st.Pos)
		val := tl.lookup(e, ctx, st.Val, st.Pos)
		tl.emit(Inst{Op: OpStore, Ptr: ptr, Val: val, Name: st.Field, Pos: st.Pos, Fn: ctx.fn})
	case *lang.FreeStmt:
		val := tl.lookup(e, ctx, st.Var, st.Pos)
		tl.emit(Inst{Op: OpFree, Val: val, Pos: st.Pos, Fn: ctx.fn})
	case *lang.PrintStmt:
		val := tl.lookup(e, ctx, st.Var, st.Pos)
		tl.emit(Inst{Op: OpDeref, Val: val, Pos: st.Pos, Fn: ctx.fn})
	case *lang.SinkStmt:
		val := tl.lookup(e, ctx, st.Var, st.Pos)
		tl.emit(Inst{Op: OpLeak, Val: val, Pos: st.Pos, Fn: ctx.fn})
	case *lang.IfStmt:
		tl.lowerIf(st, e, ctx)
	case *lang.WhileStmt:
		tl.lowerWhile(st, e, ctx, tl.l.opt.UnrollDepth)
	case *lang.ForkStmt:
		tl.lowerFork(st, e, ctx)
	case *lang.JoinStmt:
		for _, tid := range e.threads[st.Thread] {
			in := tl.emit(Inst{Op: OpJoin, ForkThread: int32(tid), Pos: st.Pos, Fn: ctx.fn})
			child := tl.l.p.Threads[tid]
			if child.JoinSite == NoLabel {
				child.JoinSite = in.Label
			}
		}
	case *lang.LockStmt:
		tl.emit(Inst{Op: OpLock, Name: st.Mutex, Pos: st.Pos, Fn: ctx.fn})
	case *lang.UnlockStmt:
		tl.emit(Inst{Op: OpUnlock, Name: st.Mutex, Pos: st.Pos, Fn: ctx.fn})
	case *lang.WaitStmt:
		tl.emit(Inst{Op: OpWait, Name: st.Cond, Pos: st.Pos, Fn: ctx.fn})
	case *lang.NotifyStmt:
		tl.emit(Inst{Op: OpNotify, Name: st.Cond, Pos: st.Pos, Fn: ctx.fn})
	case *lang.ReturnStmt:
		if ctx.returns != nil {
			rv := retVal{guard: tl.path}
			if st.HasVal {
				rv.val = tl.lookup(e, ctx, st.Value, st.Pos)
			}
			*ctx.returns = append(*ctx.returns, rv)
		}
		tl.live = false
	case *lang.CallStmt:
		tl.lowerCall(st.Callee, st.Args, "", e, ctx, st.Pos)
	default:
		panic(fmt.Sprintf("ir: unknown statement %T", st))
	}
}

// lowerExpr lowers "lhs = rhs" and returns the SSA variable holding the
// result (0 when the call had no usable result).
func (tl *threadLowerer) lowerExpr(lhs string, rhs lang.Expr, e *env, ctx *callCtx) VarID {
	switch rhs := rhs.(type) {
	case *lang.VarExpr:
		// Straight copy keeps SSA sharing; a fresh version with an explicit
		// copy instruction gives the VFG a def site per source assignment.
		src := tl.lookup(e, ctx, rhs.Name, rhs.Pos)
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpCopy, Def: v, Val: src, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.NumExpr:
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpConst, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.LoadExpr:
		ptr := tl.lookup(e, ctx, rhs.Ptr, rhs.Pos)
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpLoad, Def: v, Ptr: ptr, Name: rhs.Field, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.AddrExpr:
		obj, ok := tl.l.globals[rhs.Name]
		if !ok {
			// Taking the address of an unknown name: model as a fresh
			// global-like object so the analysis stays permissive.
			obj = tl.l.p.newObject(ObjGlobal, "g:"+rhs.Name, NoLabel, "")
			tl.l.globals[rhs.Name] = obj
		}
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpAddr, Def: v, Obj: obj, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.MallocExpr:
		tl.l.heapN++
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpAlloc, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		obj := tl.l.p.newObject(ObjHeap, "o"+strconv.Itoa(tl.l.heapN), in.Label, tl.l.p.fns[ctx.fn])
		in.Obj = obj
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.NullExpr:
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpNull, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		obj := tl.l.p.newObject(ObjNull, "null@ℓ"+strconv.Itoa(int(in.Label)), in.Label, tl.l.p.fns[ctx.fn])
		in.Obj = obj
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.TaintExpr:
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpTaint, Def: v, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.BinExpr:
		lv := tl.lowerOperand(rhs.L, e, ctx)
		rv := tl.lowerOperand(rhs.R, e, ctx)
		v := tl.l.freshVar(lhs, 0)
		in := tl.emit(Inst{Op: OpBin, Def: v, Ops: []Operand{{Var: lv}, {Var: rv}}, Name: rhs.Op, Pos: rhs.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	case *lang.CallExpr:
		return tl.lowerCall(rhs.Callee, rhs.Args, lhs, e, ctx, rhs.Pos)
	}
	panic(fmt.Sprintf("ir: unknown expression %T", rhs))
}

func (tl *threadLowerer) lowerOperand(ex lang.Expr, e *env, ctx *callCtx) VarID {
	switch ex := ex.(type) {
	case *lang.VarExpr:
		return tl.lookup(e, ctx, ex.Name, ex.Pos)
	case *lang.NumExpr:
		v := tl.l.freshVar("lit", 0)
		in := tl.emit(Inst{Op: OpConst, Def: v, Pos: ex.Pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	panic(fmt.Sprintf("ir: bad binop operand %T", ex))
}

func (tl *threadLowerer) lowerIf(st *lang.IfStmt, e *env, ctx *callCtx) {
	cond := tl.lowerCond(st.Cond)
	basePath := tl.path
	pre := tl.cur

	// Then branch.
	thenEnv := e.branch()
	thenBlk := tl.newBlock(guard.And(basePath, cond))
	link(pre, thenBlk)
	tl.cur, tl.path, tl.live = thenBlk, guard.And(basePath, cond), true
	tl.lowerBlock(st.Then, thenEnv, ctx)
	thenEnd, thenLive := tl.cur, tl.live

	// Else branch.
	elseEnv := e.branch()
	var elseEnd *Block
	elseLive := true
	negPath := guard.And(basePath, guard.Not(cond))
	if st.Else != nil {
		elseBlk := tl.newBlock(negPath)
		link(pre, elseBlk)
		tl.cur, tl.path, tl.live = elseBlk, negPath, true
		tl.lowerBlock(st.Else, elseEnv, ctx)
		elseEnd, elseLive = tl.cur, tl.live
	}

	// Join.
	join := tl.newBlock(basePath)
	if thenLive {
		link(thenEnd, join)
	}
	if st.Else == nil {
		link(pre, join) // fall-through edge when the condition is false
	} else if elseLive {
		link(elseEnd, join)
	}
	tl.cur, tl.path = join, basePath
	tl.live = thenLive || elseLive || st.Else == nil

	if !tl.live {
		return
	}
	// φ insertion: merge the environments that can reach the join.
	switch {
	case thenLive && (st.Else == nil || elseLive):
		other := elseEnv
		otherGuard := guard.Not(cond)
		if st.Else == nil {
			other = e
		}
		tl.mergeEnvs(e, thenEnv, other, cond, otherGuard, ctx)
	case thenLive:
		replaceEnv(e, thenEnv)
	case elseLive:
		replaceEnv(e, elseEnv)
	}
	// Thread handles flow out of both branches.
	mergeThreads(e, thenEnv)
	mergeThreads(e, elseEnv)
}

// replaceEnv adopts the bindings of src, a branch of dst.
func replaceEnv(dst, src *env) {
	for k, v := range src.vars {
		dst.set(k, v)
	}
}

func mergeThreads(dst, src *env) {
	for h, ids := range src.threads {
		have := dst.threads[h]
		for _, id := range ids {
			if !slices.Contains(have, id) {
				dst.setThreads(h, append(dst.threads[h], id))
			}
		}
	}
}

// mergeEnvs writes φ definitions into the current (join) block for every
// variable whose version differs between a and b, each a branch of dst or
// dst itself. Only names bound inside a branch can differ, so those are
// the only ones visited. The φs are emitted in sorted name order, so their
// labels and SSA variable numbers are the same on every run.
func (tl *threadLowerer) mergeEnvs(dst, a, b *env, ga, gb *guard.Formula, ctx *callCtx) {
	var phis []string
	merge := func(name string) {
		va, okA := a.get(name)
		vb, okB := b.get(name)
		switch {
		case okA && okB && va != vb:
			phis = append(phis, name)
		case okA:
			dst.set(name, va)
		default:
			dst.set(name, vb)
		}
	}
	for name := range a.vars {
		merge(name)
	}
	if b != dst {
		for name := range b.vars {
			if _, seen := a.vars[name]; !seen {
				merge(name)
			}
		}
	}
	sort.Strings(phis)
	for _, name := range phis {
		va, _ := a.get(name)
		vb, _ := b.get(name)
		v := tl.l.freshVar(name, 0)
		in := tl.emit(Inst{
			Op: OpPhi, Def: v,
			Ops: []Operand{{Var: va, Guard: ga}, {Var: vb, Guard: gb}},
			Fn:  ctx.fn,
		})
		tl.l.p.Var(v).Def = in.Label
		dst.set(name, v)
	}
}

// lowerWhile unrolls "while (c) B" n times as nested ifs (§3.1/§6: loops
// are bounded by unrolling; condition atoms are shared across iterations
// because conditions are opaque symbols).
func (tl *threadLowerer) lowerWhile(st *lang.WhileStmt, e *env, ctx *callCtx, n int) {
	if n == 0 {
		return
	}
	// Lower as if (c) { B; <unrolled rest> }.
	cond := tl.lowerCond(st.Cond)
	basePath := tl.path
	pre := tl.cur
	bodyEnv := e.branch()
	bodyBlk := tl.newBlock(guard.And(basePath, cond))
	link(pre, bodyBlk)
	tl.cur, tl.path, tl.live = bodyBlk, guard.And(basePath, cond), true
	tl.lowerBlock(st.Body, bodyEnv, ctx)
	if tl.live {
		tl.lowerWhile(st, bodyEnv, ctx, n-1)
	}
	bodyEnd, bodyLive := tl.cur, tl.live

	join := tl.newBlock(basePath)
	link(pre, join)
	if bodyLive {
		link(bodyEnd, join)
	}
	tl.cur, tl.path, tl.live = join, basePath, true
	if bodyLive {
		tl.mergeEnvs(e, bodyEnv, e, cond, guard.Not(cond), ctx)
	}
	mergeThreads(e, bodyEnv)
}

// lowerFork creates one child thread per possible fork target (targets of a
// function-pointer fork come from Steensgaard's analysis).
func (tl *threadLowerer) lowerFork(st *lang.ForkStmt, e *env, ctx *callCtx) {
	targets := tl.forkTargets(st.Callee, e, ctx)
	if len(targets) == 0 {
		return
	}
	// Evaluate arguments once, in the parent.
	argVars := make([]VarID, len(st.Args))
	for i, a := range st.Args {
		argVars[i] = tl.lookup(e, ctx, a, st.Pos)
	}
	for _, tgt := range targets {
		decl := tl.l.funcs[tgt]
		if decl == nil {
			continue
		}
		childID := len(tl.l.p.Threads)
		forkInst := tl.emit(Inst{Op: OpFork, ForkThread: int32(childID), Pos: st.Pos, Fn: ctx.fn})
		child := &Thread{
			ID:       childID,
			Name:     "t" + strconv.Itoa(childID) + ":" + tgt + "@ℓ" + strconv.Itoa(int(forkInst.Label)),
			Parent:   tl.th.ID,
			ForkSite: forkInst.Label,
			JoinSite: NoLabel,
		}
		tl.l.p.Threads = append(tl.l.p.Threads, child)
		e.setThreads(st.Thread, append(e.threads[st.Thread], childID))

		// Lower the child body in its own thread CFG. The child executes
		// only if the fork did: its entry guard is the fork's path
		// condition.
		ctl := tl.l.newThreadLowerer(child, tl.path)
		cenv := &env{}
		cctx := &callCtx{fn: tl.l.newFn(tgt), src: tgt, depth: ctx.depth}
		for i, param := range decl.Params {
			if i >= len(argVars) {
				break
			}
			pv := tl.l.freshVar(param, 0)
			in := ctl.emit(Inst{Op: OpCopy, Def: pv, Val: argVars[i], Pos: decl.Pos, Fn: cctx.fn})
			tl.l.p.Var(pv).Def = in.Label
			cenv.set(param, pv)
		}
		ctl.lowerBlock(decl.Body, cenv, cctx)
	}
}

func (tl *threadLowerer) forkTargets(callee string, e *env, ctx *callCtx) []string {
	if tl.l.funcs[callee] != nil {
		return []string{callee}
	}
	// Function pointer: consult Steensgaard over the *source* function name
	// of the current clone (clones share the source-level unification).
	if tl.l.steens == nil {
		tl.l.steens = pta.AnalyzeFuncPointers(tl.l.src)
	}
	return tl.l.steens.Targets(ctx.src, callee)
}

// lowerCall inlines a (possibly indirect) call. resultName is "" in
// statement position. Returns the SSA variable of the result (0 if none).
func (tl *threadLowerer) lowerCall(callee string, args []string, resultName string, e *env, ctx *callCtx, pos lang.Pos) VarID {
	targets := tl.forkTargets(callee, e, ctx)
	if len(targets) == 0 {
		// Unknown callee: havoc the result.
		return tl.havocResult(resultName, ctx, pos)
	}
	argVars := make([]VarID, len(args))
	for i, a := range args {
		argVars[i] = tl.lookup(e, ctx, a, pos)
	}
	var results []retVal
	for _, tgt := range targets {
		decl := tl.l.funcs[tgt]
		if decl == nil {
			continue
		}
		if ctx.depth >= tl.l.opt.InlineDepth || ctx.onStack(tgt) {
			// Beyond the context bound or recursive: apply the procedural
			// transfer function Trans(F) (Alg. 1 lines 21–22) to the
			// result instead of inlining the body.
			if resultName != "" {
				if v := tl.applySummary(tgt, argVars, resultName, ctx, pos); v != 0 {
					results = append(results, retVal{val: v, guard: tl.path})
				}
			}
			continue
		}
		cloneName := tgt + "<" + ctx.src + ":" + strconv.Itoa(pos.Line) + ">"
		cenv := &env{}
		var rets []retVal
		cctx := &callCtx{fn: tl.l.newFn(cloneName), src: tgt, depth: ctx.depth + 1, caller: ctx, returns: &rets}
		for i, param := range decl.Params {
			if i >= len(argVars) {
				break
			}
			pv := tl.l.freshVar(param, 0)
			in := tl.emit(Inst{Op: OpCopy, Def: pv, Val: argVars[i], Pos: pos, Fn: cctx.fn})
			tl.l.p.Var(pv).Def = in.Label
			cenv.set(param, pv)
		}
		savedLive := tl.live
		tl.lowerBlock(decl.Body, cenv, cctx)
		// The call returns: execution continues regardless of which return
		// fired inside the callee.
		tl.live = savedLive
		// Thread handles created in the callee stay joinable only inside
		// it; expose them under a qualified name so later joins in the
		// caller do not silently bind.
		for h, ids := range cenv.threads {
			e.setThreads(cloneName+"."+h, ids)
			// Unjoined child threads remain running — nothing to do.
		}
		results = append(results, rets...)
	}
	if resultName == "" {
		return 0
	}
	// Merge return values into one SSA variable.
	var vals []Operand
	for _, r := range results {
		if r.val != 0 {
			vals = append(vals, Operand{Var: r.val, Guard: r.guard})
		}
	}
	switch len(vals) {
	case 0:
		return tl.havocResult(resultName, ctx, pos)
	case 1:
		v := tl.l.freshVar(resultName, 0)
		in := tl.emit(Inst{Op: OpCopy, Def: v, Val: vals[0].Var, Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	v := tl.l.freshVar(resultName, 0)
	in := tl.emit(Inst{Op: OpPhi, Def: v, Ops: vals, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	return v
}

func (tl *threadLowerer) havocResult(resultName string, ctx *callCtx, pos lang.Pos) VarID {
	if resultName == "" {
		return 0
	}
	v := tl.l.freshVar(resultName, 0)
	in := tl.emit(Inst{Op: OpHavoc, Def: v, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	return v
}

// applySummary materializes Trans(tgt) at a non-inlined call site: the
// result is the merge of the argument values that may flow to the return
// plus (when the callee may return a fresh allocation or taint) a
// per-call-site summary object or taint source. Returns 0 when the summary
// is empty, in which case the caller falls back to havoc.
func (tl *threadLowerer) applySummary(tgt string, argVars []VarID, resultName string, ctx *callCtx, pos lang.Pos) VarID {
	sum := tl.l.summaries[tgt]
	if sum == nil {
		return tl.havocResult(resultName, ctx, pos)
	}
	var parts []VarID
	for _, pi := range sum.RetParams {
		if pi < len(argVars) {
			parts = append(parts, argVars[pi])
		}
	}
	if sum.RetAlloc {
		v := tl.l.freshVar(resultName+".sum", 0)
		tl.l.heapN++
		in := tl.emit(Inst{Op: OpAlloc, Def: v, Pos: pos, Fn: ctx.fn})
		in.Obj = tl.l.p.newObject(ObjHeap, "o"+strconv.Itoa(tl.l.heapN)+":sum("+tgt+")", in.Label, tl.l.p.fns[ctx.fn])
		tl.l.p.Var(v).Def = in.Label
		parts = append(parts, v)
	}
	if sum.RetTaint {
		v := tl.l.freshVar(resultName+".sum", 0)
		in := tl.emit(Inst{Op: OpTaint, Def: v, Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		parts = append(parts, v)
	}
	switch len(parts) {
	case 0:
		return tl.havocResult(resultName, ctx, pos)
	case 1:
		v := tl.l.freshVar(resultName, 0)
		in := tl.emit(Inst{Op: OpCopy, Def: v, Val: parts[0], Pos: pos, Fn: ctx.fn})
		tl.l.p.Var(v).Def = in.Label
		return v
	}
	v := tl.l.freshVar(resultName, 0)
	ops := make([]Operand, len(parts))
	for i, pv := range parts {
		ops[i] = Operand{Var: pv, Guard: guard.True()}
	}
	in := tl.emit(Inst{Op: OpPhi, Def: v, Ops: ops, Pos: pos, Fn: ctx.fn})
	tl.l.p.Var(v).Def = in.Label
	return v
}
