package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"

	"canary/internal/cache"
	"canary/internal/guard"
)

// Digest returns a SHA-256 content digest of everything in p that the VFG
// build and the checkers read: the objects, the variables, the threads
// with their fork and join sites and their blocks (guards, successors,
// predecessors, instructions), every instruction field — positions, clone
// names and must-held lock sets included — and the guard pool's atom
// table. Guards are encoded by structure, numbered in first-use order,
// never by pointer or interner ID, and clone names and lock sets by value,
// never by table index, so two lowerings of one program digest alike in
// any process. The other indexes Finalize derives from the rest are left
// out.
//
// The encoding is complete and prefix-free: equal digests mean equal
// programs, up to SHA-256 collisions, and so equal findings under equal
// options. Compute it before checking, which interns order atoms into the
// pool.
func Digest(p *Program) cache.Key {
	d := digester{h: sha256.New(), g: guardRefs{ids: make(map[*guard.Formula]uint32)}}
	b := make([]byte, 0, digestChunk+1024)
	b = d.appendInsts(b, p)
	b = d.appendRest(b, p)
	d.h.Write(b)
	var k cache.Key
	d.h.Sum(k[:0])
	return k
}

// appendInsts encodes the instructions.
func (d *digester) appendInsts(b []byte, p *Program) []byte {
	// An instruction opens with a mask of the fields that differ from
	// their default: its own label, the previous instruction's thread,
	// block, guard, clone name and lock set, zero, or empty. Only those
	// follow. Clone names and lock sets are compared and written by value,
	// not by their index in the program's tables.
	b = binary.AppendUvarint(b, uint64(len(p.insts)))
	prev := &Inst{}
	prevFn := ""
	var prevLocks []HeldLock
	for i, in := range p.insts {
		fn, locks := p.fns[in.Fn], p.lockSets[in.Locks]
		var m uint16
		if in.Label != Label(i) {
			m |= 1 << 0
		}
		if in.Thread != prev.Thread {
			m |= 1 << 1
		}
		if in.Block != prev.Block || in.Block == nil {
			m |= 1 << 2
		}
		if in.Guard != prev.Guard || in.Guard == nil {
			m |= 1 << 3
		}
		if fn != prevFn {
			m |= 1 << 4
		}
		if in.Def != 0 {
			m |= 1 << 5
		}
		if in.Ptr != 0 {
			m |= 1 << 6
		}
		if in.Val != 0 {
			m |= 1 << 7
		}
		if len(in.Ops) != 0 {
			m |= 1 << 8
		}
		if in.Obj != 0 {
			m |= 1 << 9
		}
		if in.ForkThread != 0 {
			m |= 1 << 10
		}
		if in.Name != "" {
			m |= 1 << 11
		}
		if in.Locks != prev.Locks && !slices.Equal(locks, prevLocks) {
			m |= 1 << 12
		}
		b = append(b, byte(m), byte(m>>8), byte(in.Op))
		b = binary.AppendVarint(b, int64(in.Pos.Line-prev.Pos.Line))
		b = binary.AppendVarint(b, int64(in.Pos.Col))
		if m&(1<<0) != 0 {
			b = binary.AppendVarint(b, int64(in.Label))
		}
		if m&(1<<1) != 0 {
			b = binary.AppendVarint(b, int64(in.Thread))
		}
		if m&(1<<2) != 0 {
			b = appendBlock(b, in.Block)
		}
		if m&(1<<3) != 0 {
			b = d.g.append(b, in.Guard)
		}
		if m&(1<<4) != 0 {
			b = appendStr(b, fn)
		}
		if m&(1<<5) != 0 {
			b = binary.AppendVarint(b, int64(in.Def))
		}
		if m&(1<<6) != 0 {
			b = binary.AppendVarint(b, int64(in.Ptr))
		}
		if m&(1<<7) != 0 {
			b = binary.AppendVarint(b, int64(in.Val))
		}
		if m&(1<<8) != 0 {
			b = binary.AppendUvarint(b, uint64(len(in.Ops)))
			for _, op := range in.Ops {
				b = d.g.append(binary.AppendVarint(b, int64(op.Var)), op.Guard)
			}
		}
		if m&(1<<9) != 0 {
			b = binary.AppendVarint(b, int64(in.Obj))
		}
		if m&(1<<10) != 0 {
			b = binary.AppendVarint(b, int64(in.ForkThread))
		}
		if m&(1<<11) != 0 {
			b = appendStr(b, in.Name)
		}
		if m&(1<<12) != 0 {
			b = binary.AppendUvarint(b, uint64(len(locks)))
			for _, h := range locks {
				b = binary.AppendVarint(appendStr(b, h.Name), int64(h.Acquire))
			}
		}
		b = d.flush(b)
		prev, prevFn, prevLocks = in, fn, locks
	}
	return b
}

// appendRest encodes the objects, the variables, the threads with their
// blocks and the atom table.
func (d *digester) appendRest(b []byte, p *Program) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Objects)))
	for _, o := range p.Objects {
		b = binary.AppendVarint(b, int64(o.ID))
		b = append(b, byte(o.Kind))
		b = appendStr(b, o.Name)
		b = binary.AppendVarint(b, int64(o.Alloc))
		b = appendStr(b, o.FuncName)
		b = d.flush(b)
	}
	// IDs follow the index and definitions mostly the previous one's, so
	// both are written as differences.
	b = binary.AppendUvarint(b, uint64(len(p.Vars)))
	def := NoLabel
	for i, v := range p.Vars {
		b = binary.AppendVarint(b, int64(v.ID)-int64(i+1))
		b = appendStr(b, v.Name)
		b = binary.AppendVarint(b, int64(v.Def-def))
		def = v.Def
		b = d.flush(b)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Threads)))
	for _, th := range p.Threads {
		b = binary.AppendVarint(b, int64(th.ID))
		b = appendStr(b, th.Name)
		b = binary.AppendVarint(b, int64(th.Parent))
		b = binary.AppendVarint(b, int64(th.ForkSite))
		b = binary.AppendVarint(b, int64(th.JoinSite))
		b = appendBlock(b, th.Entry)
		b = binary.AppendUvarint(b, uint64(len(th.Blocks)))
		for _, blk := range th.Blocks {
			b = binary.AppendVarint(b, int64(blk.ID))
			b = binary.AppendVarint(b, int64(blk.Thread))
			b = d.g.append(b, blk.Guard)
			b = appendBlocks(b, blk.Succs)
			b = appendBlocks(b, blk.Preds)
			// A block's labels mostly run consecutively: each is written
			// as its difference from the one before.
			b = binary.AppendUvarint(b, uint64(len(blk.Insts)))
			last := Label(0)
			for _, in := range blk.Insts {
				b = binary.AppendVarint(b, int64(in.Label-last))
				last = in.Label
			}
			b = d.flush(b)
		}
	}
	n := p.Pool.NumAtoms()
	b = binary.AppendUvarint(b, uint64(n))
	for a := guard.Atom(1); int(a) <= n; a++ {
		b = appendStr(b, p.Pool.Name(a))
		if from, to, order := p.Pool.OrderAtom(a); order {
			b = binary.AppendVarint(append(b, 1), int64(from))
			b = binary.AppendVarint(b, int64(to))
		} else {
			b = append(b, 0)
		}
		b = d.flush(b)
	}
	return b
}

// digestChunk is how many encoded bytes Digest buffers before hashing.
const digestChunk = 4 << 10

// digester is Digest's state: the hash, fed a chunk at a time, and the
// numbering of the guards written so far.
type digester struct {
	h hash.Hash
	g guardRefs
}

// flush hashes b once it holds a chunk; a string longer than the slack
// is hashed as it stands.
func (d *digester) flush(b []byte) []byte {
	if len(b) < digestChunk {
		return b
	}
	d.h.Write(b)
	return b[:0]
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendBlock writes a block reference: its ID, or -1 for none.
func appendBlock(b []byte, blk *Block) []byte {
	if blk == nil {
		return binary.AppendVarint(b, -1)
	}
	return binary.AppendVarint(b, int64(blk.ID))
}

func appendBlocks(b []byte, bs []*Block) []byte {
	b = binary.AppendUvarint(b, uint64(len(bs)))
	for _, blk := range bs {
		b = appendBlock(b, blk)
	}
	return b
}

// guardRefs numbers the formulas Digest has written, in first-use order.
type guardRefs struct {
	ids map[*guard.Formula]uint32
}

// append writes f as a reference n+1 to the n-th formula already
// written, or as 0 followed by its definition: the kind, then the atom
// of a variable or the operands of a connective. Operands are written
// before their parent is numbered.
func (g *guardRefs) append(b []byte, f *guard.Formula) []byte {
	if f == nil {
		// Never produced by lowering; kept distinct from every formula.
		return append(b, 0, 0xff)
	}
	ref, ok := g.ids[f]
	if ok {
		b = binary.AppendUvarint(b, uint64(ref))
	} else {
		b = append(b, 0, byte(f.Kind()))
		switch f.Kind() {
		case guard.KVar:
			b = binary.AppendUvarint(b, uint64(f.Atom()))
		case guard.KNot, guard.KAnd, guard.KOr:
			subs := f.Subs()
			b = binary.AppendUvarint(b, uint64(len(subs)))
			for _, s := range subs {
				b = g.append(b, s)
			}
		}
		ref = uint32(len(g.ids) + 1)
		g.ids[f] = ref
	}
	return b
}
