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
	lines := strings.Split(strings.ReplaceAll(src, "\r\n", "\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(lang.StripLineComment(l), " \t\r")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n") + "\n"
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
	fns := funcNames(prog)
	// Functions get dense IDs in sorted name order, so a reachable set
	// sorted by ID is in sorted name order too.
	names := make([]string, 0, len(fns))
	for n := range fns {
		names = append(names, n)
	}
	sort.Strings(names)
	ids := make(map[string]int, len(names))
	for i, n := range names {
		ids[n] = i
	}

	// Phase 1: every function's structural digest and direct callees. A
	// later declaration of a name replaces an earlier one. Each adjacency
	// list is a capped window of one shared edge buffer.
	s := newStructHasher(fns)
	structs := make([]cache.Key, len(names))
	adj := make([][]int, len(names))
	var calls []string
	var edges []int
	for _, f := range prog.Funcs {
		i := ids[f.Name]
		structs[i] = s.sum(f)
		calls = appendCallees(calls[:0], f.Body, fns)
		start := len(edges)
		for _, c := range calls {
			edges = append(edges, ids[c])
		}
		adj[i] = edges[start:len(edges):len(edges)]
	}

	// Phase 2: fold each function's digest with its reachable set
	// (excluding itself unless reached via a cycle). seen holds the pass
	// number that last reached a function.
	keys := make(map[string]cache.Key, len(names))
	seen := make([]int, len(names))
	var stack, reach []int
	buf := s.buf[:0]
	for pass, f := range prog.Funcs {
		stack = append(stack[:0], adj[ids[f.Name]]...)
		reach = reach[:0]
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] == pass+1 {
				continue
			}
			seen[n] = pass + 1
			reach = append(reach, n)
			stack = append(stack, adj[n]...)
		}
		sort.Ints(reach)

		buf = appendSeg(buf[:0], "canary-summary-key-v1")
		own := structs[ids[f.Name]]
		buf = appendSeg(buf, own[:])
		for _, n := range reach {
			buf = appendSeg(buf, names[n])
			buf = appendSeg(buf, structs[n][:])
		}
		keys[f.Name] = sha256.Sum256(buf)
	}
	return keys
}
