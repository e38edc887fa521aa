// Package digest computes the canonical content keys of the incremental
// analysis layer.
//
// Two canonicalizers live here, one per cache granularity, and they are the
// single source of truth for both:
//
//   - CanonicalSource normalizes representation-only degrees of freedom of a
//     whole program text (line endings, trailing blanks, comment text). It
//     keys canary.SubmissionKey and hence canaryd's whole-submission result
//     store.
//   - FuncStruct hashes one function's structure with local names
//     alpha-renamed and positions excluded. SummaryKeys folds every
//     function's structural digest with the digests of its transitively
//     reachable callees, producing the dependency-aware keys of the
//     per-function summary store: editing a function invalidates exactly
//     the functions that can reach it through calls, nothing else.
//
// Sharing one package (and one comment-stripping rule, lang.StripLineComment)
// guarantees that a comment or whitespace edit hits both cache layers: the
// submission key is unchanged because the canonical text is unchanged, and
// every summary key is unchanged because digests are computed on the parsed
// AST, which never saw the comment.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"maps"
	"sort"
	"strconv"
	"strings"

	"canary/internal/cache"
	"canary/internal/lang"
)

// CanonicalSource normalizes the representation-only degrees of freedom of
// a program text: CRLF line endings, per-line trailing whitespace, trailing
// "//" comment text, and the final newline. The line structure itself is
// preserved — no line is ever added or removed — so positions (and thus the
// line numbers inside a cached result) stay valid for every source that
// canonicalizes to the same text.
func CanonicalSource(src string) string {
	return string(AppendCanonicalSource(make([]byte, 0, len(src)+1), src))
}

// AppendCanonicalSource appends CanonicalSource(src) to dst in one pass
// over src; a dst with len(src)+1 spare bytes never grows. A CRLF line
// is one LF line whose trailing '\r' canonicalLine trims, and blank lines
// are written only once a later line has code, so no trailing one is
// ever written and then cut.
func AppendCanonicalSource(dst []byte, src string) []byte {
	blank := 0 // line breaks owed before the next line with code
	for {
		line, rest, more := strings.Cut(src, "\n")
		if l := canonicalLine(line); l != "" {
			for ; blank > 0; blank-- {
				dst = append(dst, '\n')
			}
			dst = append(dst, l...)
		}
		if !more {
			return append(dst, '\n')
		}
		blank++
		src = rest
	}
}

// structHasher folds one function's shape into a length-prefixed byte
// stream and hashes it with SHA-256. Local value names (parameters,
// assigned variables, thread handles) are alpha-renamed to their
// first-occurrence index, so renaming a local never changes the digest;
// names with program-level identity — callees, globals, mutexes, condition
// variables — stay literal. Positions and comments never reach the hash,
// and branch-condition text is excluded because the summary domain
// (pta.Summary) is condition-insensitive.
//
// The stream goes to one buffer that the next function reuses, so hashing
// a whole program allocates next to nothing per function or token.
type structHasher struct {
	buf   []byte
	alpha map[string]int
	funcs map[string]bool
}

func newStructHasher(fns map[string]bool) *structHasher {
	return &structHasher{alpha: make(map[string]int), funcs: fns}
}

// appendSeg appends one length-prefixed segment of the stream.
func appendSeg[T string | []byte](buf []byte, b T) []byte {
	return append(binary.BigEndian.AppendUint32(buf, uint32(len(b))), b...)
}

func (s *structHasher) tag(t byte)     { s.buf = append(s.buf, t) }
func (s *structHasher) lit(str string) { s.buf = appendSeg(s.buf, str) }

// num writes the decimal text of i as one segment; its length prefix is
// patched in once the digits are written.
func (s *structHasher) num(i int) {
	at := len(s.buf)
	s.buf = strconv.AppendInt(append(s.buf, 0, 0, 0, 0), int64(i), 10)
	binary.BigEndian.PutUint32(s.buf[at:], uint32(len(s.buf)-at-4))
}

func (s *structHasher) boolean(b bool) { s.lit(strconv.FormatBool(b)) }

// fn writes a declared function's literal identity, the segment "F:<name>".
func (s *structHasher) fn(name string) {
	s.buf = append(binary.BigEndian.AppendUint32(s.buf, uint32(len(name)+2)), 'F', ':')
	s.buf = append(s.buf, name...)
}

// local emits the alpha-index of a local value name. Declared function
// names referenced in value position (function values) keep their literal
// identity — they name a program-level entity, not a local.
func (s *structHasher) local(name string) {
	if s.funcs[name] {
		s.fn(name)
		return
	}
	idx, ok := s.alpha[name]
	if !ok {
		idx = len(s.alpha)
		s.alpha[name] = idx
	}
	s.num(idx)
}

func (s *structHasher) locals(names []string) {
	s.num(len(names))
	for _, n := range names {
		s.local(n)
	}
}

func (s *structHasher) block(b *lang.Block) {
	if b == nil {
		s.tag('_')
		return
	}
	s.tag('{')
	s.num(len(b.Stmts))
	for _, st := range b.Stmts {
		s.stmt(st)
	}
	s.tag('}')
}

func (s *structHasher) stmt(st lang.Stmt) {
	switch st := st.(type) {
	case *lang.AssignStmt:
		s.tag('A')
		s.local(st.LHS)
		s.expr(st.RHS)
	case *lang.StoreStmt:
		s.tag('S')
		s.local(st.Ptr)
		s.local(st.Val)
		s.lit(st.Field)
	case *lang.FreeStmt:
		s.tag('F')
		s.local(st.Var)
	case *lang.PrintStmt:
		s.tag('P')
		s.local(st.Var)
	case *lang.SinkStmt:
		s.tag('K')
		s.local(st.Var)
	case *lang.IfStmt:
		s.tag('I')
		s.block(st.Then)
		s.block(st.Else)
	case *lang.WhileStmt:
		s.tag('W')
		s.block(st.Body)
	case *lang.ForkStmt:
		s.tag('f')
		s.local(st.Thread)
		s.callee(st.Callee)
		s.locals(st.Args)
	case *lang.JoinStmt:
		s.tag('j')
		s.local(st.Thread)
	case *lang.LockStmt:
		s.tag('L')
		s.lit(st.Mutex)
	case *lang.UnlockStmt:
		s.tag('U')
		s.lit(st.Mutex)
	case *lang.WaitStmt:
		s.tag('w')
		s.lit(st.Cond)
	case *lang.NotifyStmt:
		s.tag('n')
		s.lit(st.Cond)
	case *lang.ReturnStmt:
		s.tag('R')
		s.boolean(st.HasVal)
		if st.HasVal {
			s.local(st.Value)
		}
	case *lang.CallStmt:
		s.tag('C')
		s.callee(st.Callee)
		s.locals(st.Args)
	default:
		s.tag('?')
	}
}

// callee emits a call/fork target. A name that resolves to a declared
// function is literal (it is the dependency edge); a function-pointer
// variable is a local like any other.
func (s *structHasher) callee(name string) {
	if s.funcs[name] {
		s.fn(name)
	} else {
		s.tag('v')
		s.local(name)
	}
}

func (s *structHasher) expr(e lang.Expr) {
	switch e := e.(type) {
	case *lang.VarExpr:
		s.tag('v')
		s.local(e.Name)
	case *lang.NumExpr:
		s.tag('N')
		s.num(e.Value)
	case *lang.LoadExpr:
		s.tag('l')
		s.local(e.Ptr)
		s.lit(e.Field)
	case *lang.AddrExpr:
		s.tag('&')
		s.lit(e.Name)
	case *lang.MallocExpr:
		s.tag('m')
	case *lang.NullExpr:
		s.tag('0')
	case *lang.TaintExpr:
		s.tag('t')
	case *lang.BinExpr:
		s.tag('b')
		s.lit(e.Op)
		s.expr(e.L)
		s.expr(e.R)
	case *lang.CallExpr:
		s.tag('c')
		s.callee(e.Callee)
		s.locals(e.Args)
	default:
		s.tag('?')
	}
}

// funcNames returns the set of declared function names of prog.
func funcNames(prog *lang.Program) map[string]bool {
	fns := make(map[string]bool, len(prog.Funcs))
	for _, f := range prog.Funcs {
		fns[f.Name] = true
	}
	return fns
}

// FuncStruct returns the structural digest of one function: its body shape
// with locals alpha-renamed, positions and comments excluded, and
// program-level names (callees, globals, mutexes, condition variables)
// literal. Two functions that differ only in local names, whitespace,
// comments, or source position share a digest.
func FuncStruct(prog *lang.Program, f *lang.FuncDecl) cache.Key {
	return newStructHasher(funcNames(prog)).sum(f)
}

// sum returns the structural digest of f.
func (s *structHasher) sum(f *lang.FuncDecl) cache.Key {
	s.buf = s.buf[:0]
	clear(s.alpha)
	s.lit("canary-func-struct-v1")
	s.num(len(f.Params))
	for _, p := range f.Params {
		s.local(p) // parameters take alpha indices 0..n-1 in order
	}
	s.block(f.Body)
	return sha256.Sum256(s.buf)
}

// appendCallees appends the direct call and fork targets in b that name
// declared functions, in source order and with repeats. Indirect targets
// (function-pointer variables) contribute no edge — mirroring
// pta.Summaries, which resolves callee summaries by direct name only.
func appendCallees(dst []string, b *lang.Block, fns map[string]bool) []string {
	if b == nil {
		return dst
	}
	add := func(name string) {
		if fns[name] {
			dst = append(dst, name)
		}
	}
	var expr func(e lang.Expr)
	expr = func(e lang.Expr) {
		switch e := e.(type) {
		case *lang.CallExpr:
			add(e.Callee)
		case *lang.BinExpr:
			expr(e.L)
			expr(e.R)
		}
	}
	for _, st := range b.Stmts {
		switch st := st.(type) {
		case *lang.AssignStmt:
			expr(st.RHS)
		case *lang.CallStmt:
			add(st.Callee)
		case *lang.ForkStmt:
			add(st.Callee)
		case *lang.IfStmt:
			dst = appendCallees(dst, st.Then, fns)
			dst = appendCallees(dst, st.Else, fns)
		case *lang.WhileStmt:
			dst = appendCallees(dst, st.Body, fns)
		}
	}
	return dst
}

// SummaryKeys returns the dependency-aware content key of every function:
// SHA-256 over the function's own structural digest plus the (name,
// digest) pairs of every function transitively reachable through direct
// calls and forks, in sorted name order. The reachable-set folding makes
// the key valid across mutually recursive groups, and it gives the
// invalidation rule its precision: editing f changes the keys of exactly
// the functions that can reach f, so a warm summary store re-analyzes only
// those (the FuncsReanalyzed the stats report).
func SummaryKeys(prog *lang.Program) map[string]cache.Key {
	return NewKeyIndex(prog).keys
}

// KeyIndex is SummaryKeys with its intermediate state kept: every
// function's structural digest, the direct-call graph and its reverse.
// Update uses it to re-key an edited program at a cost proportional to
// the edit. An index is immutable once built, so a caller may keep one
// revision's index while it computes the next.
type KeyIndex struct {
	funcs   map[string]bool // the declared names; structHasher reads them
	names   []string        // sorted; a function's ID is its index here
	ids     map[string]int
	structs []cache.Key // structural digest by ID
	adj     [][]int     // direct callees by ID, in source order with repeats
	radj    [][]int     // direct callers by ID
	keys    map[string]cache.Key
}

// NewKeyIndex digests every function of prog and folds its keys.
func NewKeyIndex(prog *lang.Program) *KeyIndex {
	fns := funcNames(prog)
	// Functions get dense IDs in sorted name order, so a reachable set
	// sorted by ID is in sorted name order too.
	names := make([]string, 0, len(fns))
	for n := range fns {
		names = append(names, n)
	}
	sort.Strings(names)
	ix := &KeyIndex{
		funcs:   fns,
		names:   names,
		ids:     make(map[string]int, len(names)),
		structs: make([]cache.Key, len(names)),
		adj:     make([][]int, len(names)),
		keys:    make(map[string]cache.Key, len(names)),
	}
	for i, n := range names {
		ix.ids[n] = i
	}

	// Every function's structural digest and direct callees. A later
	// declaration of a name replaces an earlier one. Each adjacency list
	// is a capped window of one shared edge buffer.
	s := newStructHasher(fns)
	var calls []string
	var edges []int
	for _, f := range prog.Funcs {
		i := ix.ids[f.Name]
		ix.structs[i] = s.sum(f)
		calls = appendCallees(calls[:0], f.Body, fns)
		start := len(edges)
		for _, c := range calls {
			edges = append(edges, ix.ids[c])
		}
		ix.adj[i] = edges[start:len(edges):len(edges)]
	}
	ix.radj = reverse(ix.adj)

	fo := folder{ix: ix, seen: make([]int, len(names)), buf: s.buf[:0]}
	for i, n := range names {
		ix.keys[n] = fo.key(i)
	}
	return ix
}

// Keys returns the summary key of every function, as SummaryKeys does.
// The map is shared: callers must not mutate it.
func (ix *KeyIndex) Keys() map[string]cache.Key { return ix.keys }

// Update returns the index of prog, an edited revision of the program ix
// indexes, together with the sorted names whose key changed or is new —
// what Invalidated(ix.Keys(), SummaryKeys(prog)) returns. fresh lists the
// functions of prog that may differ from ix's program; every other
// function must be structurally identical to its namesake there (as
// lang.Reparse guarantees for the declarations it does not return).
//
// Only the fresh functions are re-hashed, and only the keys in the
// reverse-reachable cone of those whose digest or callees changed are
// re-folded. When the set of function names changes every digest may
// change, since structHasher treats declared names specially, so
// everything is re-hashed.
func (ix *KeyIndex) Update(prog *lang.Program, fresh []*lang.FuncDecl) (*KeyIndex, []string) {
	same := len(prog.Funcs) == len(ix.names)
	for _, f := range fresh {
		_, ok := ix.ids[f.Name]
		same = same && ok
	}
	if !same {
		next := NewKeyIndex(prog)
		return next, Invalidated(ix.keys, next.keys)
	}

	next := *ix
	var changed []int
	adjCopied := false
	s := newStructHasher(ix.funcs)
	var calls []string
	for _, f := range fresh {
		i := ix.ids[f.Name]
		d := s.sum(f)
		calls = appendCallees(calls[:0], f.Body, ix.funcs)
		sameCalls := len(calls) == len(ix.adj[i])
		for k := 0; sameCalls && k < len(calls); k++ {
			sameCalls = ix.ids[calls[k]] == ix.adj[i][k]
		}
		if d == ix.structs[i] && sameCalls {
			continue
		}
		if changed == nil {
			next.structs = append([]cache.Key(nil), ix.structs...)
		}
		changed = append(changed, i)
		next.structs[i] = d
		if !sameCalls {
			if !adjCopied {
				next.adj = append([][]int(nil), ix.adj...)
				adjCopied = true
			}
			row := make([]int, len(calls))
			for k, c := range calls {
				row[k] = ix.ids[c]
			}
			next.adj[i] = row
		}
	}
	if changed == nil {
		return &next, nil
	}
	if adjCopied {
		next.radj = reverse(next.adj)
	}

	// The cone: every function that reaches a changed one, itself
	// included. No other key can change, for no other reachable set
	// holds a changed digest or edge.
	inCone := make([]bool, len(ix.names))
	cone := changed
	for _, i := range changed {
		inCone[i] = true
	}
	for k := 0; k < len(cone); k++ {
		for _, c := range next.radj[cone[k]] {
			if !inCone[c] {
				inCone[c] = true
				cone = append(cone, c)
			}
		}
	}
	sort.Ints(cone)

	next.keys = maps.Clone(ix.keys)
	var invalidated []string
	fo := folder{ix: &next, seen: make([]int, len(ix.names)), buf: make([]byte, 0, foldSize(len(ix.names)))}
	for _, i := range cone {
		n := ix.names[i]
		if k := fo.key(i); k != ix.keys[n] {
			next.keys[n] = k
			invalidated = append(invalidated, n)
		}
	}
	return &next, invalidated
}

// foldSize is a capacity for a folding buffer over n functions that most
// reachable sets fit in: a segment for the name (~16 bytes) and one for
// the digest per function.
func foldSize(n int) int { return 64 + 56*n }

// reverse returns the caller lists of a callee-list graph, as windows of
// one shared buffer.
func reverse(adj [][]int) [][]int {
	counts := make([]int, len(adj))
	total := 0
	for _, cs := range adj {
		for _, c := range cs {
			counts[c]++
		}
		total += len(cs)
	}
	buf := make([]int, total)
	radj := make([][]int, len(adj))
	off := 0
	for i, k := range counts {
		radj[i] = buf[off : off : off+k]
		off += k
	}
	for i, cs := range adj {
		for _, c := range cs {
			radj[c] = append(radj[c], i)
		}
	}
	return radj
}

// folder folds summary keys over an index, reusing its scratch buffers
// from one key to the next.
type folder struct {
	ix    *KeyIndex
	seen  []int // the pass number that last reached a function
	pass  int
	stack []int
	reach []int
	buf   []byte
}

// key folds function i's digest with its reachable set (excluding itself
// unless reached through a cycle).
func (fo *folder) key(i int) cache.Key {
	ix := fo.ix
	fo.pass++
	fo.stack = append(fo.stack[:0], ix.adj[i]...)
	fo.reach = fo.reach[:0]
	for len(fo.stack) > 0 {
		n := fo.stack[len(fo.stack)-1]
		fo.stack = fo.stack[:len(fo.stack)-1]
		if fo.seen[n] == fo.pass {
			continue
		}
		fo.seen[n] = fo.pass
		fo.reach = append(fo.reach, n)
		fo.stack = append(fo.stack, ix.adj[n]...)
	}
	sort.Ints(fo.reach)

	fo.buf = appendSeg(fo.buf[:0], "canary-summary-key-v1")
	fo.buf = appendSeg(fo.buf, ix.structs[i][:])
	for _, n := range fo.reach {
		fo.buf = appendSeg(fo.buf, ix.names[n])
		fo.buf = appendSeg(fo.buf, ix.structs[n][:])
	}
	return sha256.Sum256(fo.buf)
}
