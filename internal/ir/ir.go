// Package ir defines Canary's bounded partial-SSA intermediate
// representation (the paper's §3.1 abstract domains) and the lowering from
// the lang AST into it.
//
// Following the LLVM convention the paper adopts, variables split into two
// disjoint classes: top-level variables (V), which are put into SSA form
// with explicit φ instructions during lowering, and address-taken objects
// (O), which are only accessed through load and store instructions. The
// program is structurally bounded: loops are unrolled to a fixed depth and
// calls are inlined up to a context depth (the clone-based
// context-sensitivity of §5.1), which bounds both the number of threads and
// the heap, as required for decidability (§3.1).
//
// Every instruction carries a label ℓ (the O_ℓ of the order constraints), a
// thread id, and a guard: the path condition under which the instruction
// executes, expressed over the program's interned branch-condition atoms.
package ir

import (
	"fmt"
	"strconv"
	"sync"

	"canary/internal/guard"
	"canary/internal/lang"
)

// Label is a global instruction label; it doubles as the subscript of the
// execution-order variables O_ℓ in order constraints.
type Label int

// NoLabel marks an absent label (e.g., the fork site of the main thread).
const NoLabel Label = -1

// VarID identifies an SSA top-level variable version. 0 is invalid.
type VarID int

// ObjID identifies an abstract memory object. 0 is invalid.
type ObjID int

// ObjKind classifies abstract objects.
type ObjKind uint8

// Object kinds.
const (
	ObjHeap   ObjKind = iota // malloc() result
	ObjGlobal                // global declaration
	ObjNull                  // the null constant (null-deref source)
	ObjFunc                  // a function value (for indirect calls/forks)
)

// Object is an abstract memory location (an element of the O domain).
type Object struct {
	ID       ObjID
	Kind     ObjKind
	Name     string // display name: o1, g:name, null@ℓ, fn:name
	Alloc    Label  // allocation/declaration site (NoLabel for globals, funcs)
	FuncName string // for ObjFunc
}

// Var is an SSA top-level variable version (an element of the V domain).
type Var struct {
	ID   VarID
	Name string // display name, e.g. "x.2"
	Def  Label  // defining instruction (NoLabel for parameters of main)
}

// Op enumerates instruction opcodes (the statement forms of Fig. 3 plus
// the checker-relevant intrinsics).
type Op uint8

// Instruction opcodes.
const (
	OpAlloc  Op = iota // Def = alloc Obj            (p = malloc())
	OpAddr             // Def = &Obj                 (p = &g, function refs)
	OpNull             // Def = null (points to a fresh ObjNull)
	OpTaint            // Def = taint()              (information source)
	OpConst            // Def = integer literal
	OpCopy             // Def = Val                  (p = q)
	OpPhi              // Def = φ(Ops)               (SSA merge)
	OpBin              // Def = Ops[0] op Ops[1]     (value-level)
	OpLoad             // Def = *Ptr
	OpStore            // *Ptr = Val
	OpFree             // free(Val)                  (UAF/double-free source)
	OpDeref            // print(*Val)                (dereference sink)
	OpLeak             // sink(Val)                  (information-leak sink)
	OpFork             // fork thread ForkThread
	OpJoin             // join thread ForkThread
	OpLock             // lock(Mutex)
	OpUnlock           // unlock(Mutex)
	OpWait             // wait(CondVar): returns only after some notify
	OpNotify           // notify(CondVar)
	OpHavoc            // Def = unknown (beyond-depth call summary)
)

var opNames = [...]string{
	OpAlloc: "alloc", OpAddr: "addr", OpNull: "null", OpTaint: "taint",
	OpConst: "const", OpCopy: "copy", OpPhi: "phi", OpBin: "bin",
	OpLoad: "load", OpStore: "store", OpFree: "free", OpDeref: "deref",
	OpLeak: "leak", OpFork: "fork", OpJoin: "join", OpLock: "lock",
	OpUnlock: "unlock", OpWait: "wait", OpNotify: "notify", OpHavoc: "havoc",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Inst is a single IR instruction. Lowering allocates one per label and
// every analysis keeps them live, so the layout is compact (136 bytes):
// operands only some opcodes have share one slot, and the clone name and
// the must-held lock set are indexes into per-program tables.
type Inst struct {
	Label Label
	Block *Block
	// Guard is the path condition under which this instruction executes
	// (conjunction of the branch conditions on the lowered path, including
	// the fork-site condition of the owning thread).
	Guard *guard.Formula

	Def VarID // defined variable (0 when none)
	Ptr VarID // pointer operand of load/store
	Val VarID // value operand of copy/store/free/deref/leak
	// Ops are the operands of OpBin and OpPhi; a φ operand carries its
	// guard.
	Ops []Operand
	Obj ObjID // OpAlloc/OpAddr/OpNull object
	// Name is the operand name of the opcodes that have one, read through
	// Field, Mutex, CondVar and BinOp.
	Name string

	Pos        lang.Pos
	Thread     int32
	ForkThread int32 // OpFork/OpJoin child thread id
	// Locks is the set of locks that are must-held at this instruction,
	// with their acquisition sites (computed by the lock dataflow; used by
	// the lock/unlock order extension), read through Program.Locks.
	Locks LockSetID
	// Fn is the display name of the function clone containing the
	// instruction (for reports), e.g. "main" or "helper<main:12>", read
	// through Program.FnName.
	Fn FnID
	Op Op
}

// Operand is an operand of OpBin or OpPhi: a variable and, for a φ, the
// guard under which it flows into the merge (nil for OpBin).
type Operand struct {
	Var   VarID
	Guard *guard.Formula
}

// FnID indexes a program's clone-name table.
type FnID int32

// LockSetID indexes a program's table of must-held lock sets; 0 is the
// empty set.
type LockSetID int32

// Field is the accessed record field of OpLoad/OpStore; empty means the
// whole cell (the plain *p dereference). Distinct fields of one object
// never alias (field sensitivity).
func (i *Inst) Field() string { return i.nameIf(i.Op == OpLoad || i.Op == OpStore) }

// Mutex is the lock of OpLock/OpUnlock.
func (i *Inst) Mutex() string { return i.nameIf(i.Op == OpLock || i.Op == OpUnlock) }

// CondVar is the condition variable of OpWait/OpNotify.
func (i *Inst) CondVar() string { return i.nameIf(i.Op == OpWait || i.Op == OpNotify) }

// BinOp is the operator text of OpBin.
func (i *Inst) BinOp() string { return i.nameIf(i.Op == OpBin) }

func (i *Inst) nameIf(ok bool) string {
	if ok {
		return i.Name
	}
	return ""
}

// HeldLock records a must-held lock and the label of the lock instruction
// that acquired it.
type HeldLock struct {
	Name    string
	Acquire Label
}

// Block is a CFG basic block within one thread.
type Block struct {
	ID     int
	Thread int
	Insts  []*Inst
	Succs  []*Block
	Preds  []*Block
	// Guard is the path condition at block entry.
	Guard *guard.Formula
	// local is the block's index within its thread (set by Finalize).
	local int
}

// Thread is one static thread instance: the main thread or a
// context-sensitive fork site (§3.1: a thread id corresponds to a fork
// site).
type Thread struct {
	ID     int
	Name   string
	Parent int // parent thread id; -1 for main
	// ForkSite and JoinSite are the labels of the fork/join instructions in
	// the parent thread (NoLabel when absent; JoinSite is NoLabel for
	// never-joined threads).
	ForkSite Label
	JoinSite Label
	Entry    *Block
	Blocks   []*Block
}

// Program is a lowered, bounded concurrent program.
type Program struct {
	Pool    *guard.Pool
	Threads []*Thread
	Objects []*Object // index ObjID-1
	Vars    []*Var    // index VarID-1
	insts   []*Inst   // index Label
	fns     []string  // clone names, index FnID

	// lockSets holds the must-held lock sets, index LockSetID (filled by
	// Finalize).
	lockSets [][]HeldLock

	// inst position index for reachability (filled by Finalize).
	blockIndex []int32 // per label: index of inst within its block
	reach      map[*Block][]uint64
	reachMu    sync.Mutex
	// unlocks lists each thread's unlock instructions per mutex, in label
	// order (filled by Finalize).
	unlocks map[unlockKey][]Label

	// structural label coordinates (built lazily by StructLabels).
	structOnce sync.Once
	structIDs  []string
}

// unlockKey indexes unlock instructions by owning thread and mutex name.
type unlockKey struct {
	thread int32
	mutex  string
}

// StructLabels returns, for every label, a structural coordinate
// "<thread-path>:<rank>" that is stable across unrelated edits. The thread
// path identifies a thread by its chain of fork ordinals from main ("m",
// "m.0", "m.0.1", ...); the rank is the instruction's index within its
// thread, in label order. Plain labels are global — inserting one statement
// anywhere shifts every later label in the program — whereas a structural
// coordinate moves only when its own thread's instruction sequence changes
// at or before it. The cross-run SMT verdict store keys constraint systems
// on these coordinates, so an edit in one function leaves the verdicts of
// untouched threads' queries addressable.
func (p *Program) StructLabels() []string {
	p.structOnce.Do(func() {
		// Thread paths. Threads are appended parent-before-child during
		// lowering and Thread.ID equals the slice index, so one forward pass
		// resolves every parent path before its children need it.
		// Each label is then its thread's "<path>:" prefix and its rank,
		// built in one buffer so the string is its only allocation.
		paths := make([]string, len(p.Threads))
		prefixes := make([]string, len(p.Threads))
		childN := make([]int, len(p.Threads))
		for _, th := range p.Threads {
			if th.Parent < 0 {
				paths[th.ID] = "m"
			} else {
				paths[th.ID] = paths[th.Parent] + "." + strconv.Itoa(childN[th.Parent])
				childN[th.Parent]++
			}
			prefixes[th.ID] = paths[th.ID] + ":"
		}
		ids := make([]string, len(p.insts))
		rank := make([]int, len(p.Threads))
		var buf []byte
		for l, in := range p.insts {
			buf = strconv.AppendInt(append(buf[:0], prefixes[in.Thread]...), int64(rank[in.Thread]), 10)
			ids[l] = string(buf)
			rank[in.Thread]++
		}
		p.structIDs = ids
	})
	return p.structIDs
}

// NumInsts returns the number of instructions (labels run 0..NumInsts-1).
func (p *Program) NumInsts() int { return len(p.insts) }

// Inst returns the instruction at label l.
func (p *Program) Inst(l Label) *Inst { return p.insts[l] }

// Insts returns all instructions in label order. The slice must not be
// modified.
func (p *Program) Insts() []*Inst { return p.insts }

// FnName returns the display name of the function clone containing i.
func (p *Program) FnName(i *Inst) string { return p.fns[i.Fn] }

// Locks returns the locks must-held at i, sorted by name. The slice must
// not be modified.
func (p *Program) Locks(i *Inst) []HeldLock { return p.lockSets[i.Locks] }

// Obj returns the object with the given id.
func (p *Program) Obj(id ObjID) *Object { return p.Objects[id-1] }

// Var returns the variable with the given id.
func (p *Program) Var(id VarID) *Var { return p.Vars[id-1] }

// Thread returns the thread with the given id.
func (p *Program) Thread(id int) *Thread { return p.Threads[id] }

// VarName returns a display name for v ("_" when v is 0).
func (p *Program) VarName(v VarID) string {
	if v == 0 {
		return "_"
	}
	return p.Var(v).Name
}

// String renders inst i for debugging and reports.
func (p *Program) String(i *Inst) string {
	switch i.Op {
	case OpAlloc:
		return fmt.Sprintf("ℓ%d: %s = alloc %s", i.Label, p.VarName(i.Def), p.Obj(i.Obj).Name)
	case OpAddr:
		return fmt.Sprintf("ℓ%d: %s = &%s", i.Label, p.VarName(i.Def), p.Obj(i.Obj).Name)
	case OpNull:
		return fmt.Sprintf("ℓ%d: %s = null", i.Label, p.VarName(i.Def))
	case OpTaint:
		return fmt.Sprintf("ℓ%d: %s = taint()", i.Label, p.VarName(i.Def))
	case OpConst:
		return fmt.Sprintf("ℓ%d: %s = const", i.Label, p.VarName(i.Def))
	case OpCopy:
		return fmt.Sprintf("ℓ%d: %s = %s", i.Label, p.VarName(i.Def), p.VarName(i.Val))
	case OpPhi:
		return fmt.Sprintf("ℓ%d: %s = φ(...)", i.Label, p.VarName(i.Def))
	case OpBin:
		return fmt.Sprintf("ℓ%d: %s = %s %s %s", i.Label, p.VarName(i.Def), p.VarName(i.Ops[0].Var), i.Name, p.VarName(i.Ops[1].Var))
	case OpLoad:
		if i.Name != "" {
			return fmt.Sprintf("ℓ%d: %s = %s.%s", i.Label, p.VarName(i.Def), p.VarName(i.Ptr), i.Name)
		}
		return fmt.Sprintf("ℓ%d: %s = *%s", i.Label, p.VarName(i.Def), p.VarName(i.Ptr))
	case OpStore:
		if i.Name != "" {
			return fmt.Sprintf("ℓ%d: %s.%s = %s", i.Label, p.VarName(i.Ptr), i.Name, p.VarName(i.Val))
		}
		return fmt.Sprintf("ℓ%d: *%s = %s", i.Label, p.VarName(i.Ptr), p.VarName(i.Val))
	case OpFree:
		return fmt.Sprintf("ℓ%d: free(%s)", i.Label, p.VarName(i.Val))
	case OpDeref:
		return fmt.Sprintf("ℓ%d: print(*%s)", i.Label, p.VarName(i.Val))
	case OpLeak:
		return fmt.Sprintf("ℓ%d: sink(%s)", i.Label, p.VarName(i.Val))
	case OpFork:
		return fmt.Sprintf("ℓ%d: fork(t%d)", i.Label, i.ForkThread)
	case OpJoin:
		return fmt.Sprintf("ℓ%d: join(t%d)", i.Label, i.ForkThread)
	case OpLock:
		return fmt.Sprintf("ℓ%d: lock(%s)", i.Label, i.Name)
	case OpUnlock:
		return fmt.Sprintf("ℓ%d: unlock(%s)", i.Label, i.Name)
	case OpWait:
		return fmt.Sprintf("ℓ%d: wait(%s)", i.Label, i.Name)
	case OpNotify:
		return fmt.Sprintf("ℓ%d: notify(%s)", i.Label, i.Name)
	case OpHavoc:
		return fmt.Sprintf("ℓ%d: %s = havoc", i.Label, p.VarName(i.Def))
	}
	return fmt.Sprintf("ℓ%d: ?", i.Label)
}

// newObject interns a fresh object.
func (p *Program) newObject(kind ObjKind, name string, alloc Label, fn string) ObjID {
	id := ObjID(len(p.Objects) + 1)
	p.Objects = append(p.Objects, &Object{ID: id, Kind: kind, Name: name, Alloc: alloc, FuncName: fn})
	return id
}
