package ir

import (
	"fmt"
	"strings"

	"canary/internal/guard"
)

// Render writes everything a lowering determines as text: objects,
// variables, threads with their blocks and edges, and every instruction
// with its text, clone name, position, operands, guard structure and
// must-held locks, plus the structural labels. Guards are written as
// numbered definitions in first-use order, so the rendering pins each
// formula's operand order, not just its meaning. The golden tests pin
// its SHA-256, and Digest is checked against it: two lowerings render
// alike exactly when they digest alike.
func Render(p *Program) string {
	var b strings.Builder
	gids := make(map[*guard.Formula]int)
	var gref func(f *guard.Formula) string
	gref = func(f *guard.Formula) string {
		if id, ok := gids[f]; ok {
			return fmt.Sprintf("g%d", id)
		}
		var def string
		switch f.Kind() {
		case guard.KTrue:
			def = "T"
		case guard.KFalse:
			def = "F"
		case guard.KVar:
			def = "v(" + p.Pool.Name(f.Atom()) + ")"
		default:
			subs := make([]string, len(f.Subs()))
			for i, s := range f.Subs() {
				subs[i] = gref(s)
			}
			def = fmt.Sprintf("k%d(%s)", f.Kind(), strings.Join(subs, ","))
		}
		id := len(gids)
		gids[f] = id
		fmt.Fprintf(&b, "g%d = %s\n", id, def)
		return fmt.Sprintf("g%d", id)
	}
	blockIDs := func(bs []*Block) []int {
		out := make([]int, len(bs))
		for i, x := range bs {
			out[i] = x.ID
		}
		return out
	}
	for _, o := range p.Objects {
		fmt.Fprintf(&b, "obj %d %d %q %d %q\n", o.ID, o.Kind, o.Name, o.Alloc, o.FuncName)
	}
	for _, v := range p.Vars {
		fmt.Fprintf(&b, "var %d %q %d\n", v.ID, v.Name, v.Def)
	}
	for _, th := range p.Threads {
		fmt.Fprintf(&b, "thread %d %q parent=%d fork=%d join=%d entry=b%d\n",
			th.ID, th.Name, th.Parent, th.ForkSite, th.JoinSite, th.Entry.ID)
		for _, blk := range th.Blocks {
			g := gref(blk.Guard)
			fmt.Fprintf(&b, "  b%d t%d guard=%s succs=%v preds=%v insts=%d\n",
				blk.ID, blk.Thread, g, blockIDs(blk.Succs), blockIDs(blk.Preds), len(blk.Insts))
		}
	}
	structIDs := p.StructLabels()
	for _, in := range p.insts {
		g := gref(in.Guard)
		ops := make([]VarID, len(in.Ops))
		phis := []string{}
		for i, op := range in.Ops {
			ops[i] = op.Var
			if op.Guard != nil {
				phis = append(phis, gref(op.Guard))
			}
		}
		fmt.Fprintf(&b, "%s | %s t%d b%d op=%d fn=%q pos=%v guard=%s def=%d ptr=%d val=%d ops=%v phis=%v obj=%d fork=%d mutex=%q cv=%q bin=%q field=%q locks=%v\n",
			structIDs[in.Label], p.String(in), in.Thread, in.Block.ID, in.Op, p.FnName(in), in.Pos, g,
			in.Def, in.Ptr, in.Val, ops, phis, in.Obj, in.ForkThread, in.Mutex(), in.CondVar(), in.BinOp(), in.Field(), p.Locks(in))
	}
	fmt.Fprintf(&b, "atoms %d\n", p.Pool.NumAtoms())
	return b.String()
}
