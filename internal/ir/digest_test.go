package ir

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"canary/internal/cache"
	"canary/internal/guard"
	"canary/internal/lang"
	"canary/internal/workload"
)

func lowerSrc(t testing.TB, src string) *Program {
	t.Helper()
	ast, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Lower(ast, DefaultOptions())
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

// digestDerived names the fields Digest leaves out because Finalize
// derives them from the rest.
var digestDerived = map[string]bool{
	"Block.local": true,
}

// TestDigestCoversEveryField changes each field of Inst, Block, Thread,
// Var and Object in turn, on a lowered program, and requires the digest
// to change. A field added to one of them fails here until Digest covers
// it (or it is listed as derived); a field type the test cannot change
// fails too.
func TestDigestCoversEveryField(t *testing.T) {
	src := goldenSubjects(t)["testdata/fig2_buggy.cn"]
	p := lowerSrc(t, src)
	var fork *Inst
	for _, in := range p.Insts() {
		if in.Op == OpFork {
			fork = in
		}
	}
	if fork == nil || len(p.Threads) < 2 || len(p.Objects) == 0 || len(p.Vars) == 0 {
		t.Fatal("subject lacks a fork, a second thread, an object or a variable")
	}
	th := p.Threads[1]
	if len(th.Blocks) < 2 {
		t.Fatal("subject's forked thread has one block")
	}
	other := th.Blocks[len(th.Blocks)-1]
	targets := map[string]any{
		"Inst":   fork,
		"Block":  th.Blocks[0],
		"Thread": th,
		"Var":    p.Vars[0],
		"Object": p.Objects[0],
	}
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	base := Digest(p)
	seen := 0
	for _, name := range names {
		v := reflect.ValueOf(targets[name]).Elem()
		for i := 0; i < v.NumField(); i++ {
			field := name + "." + v.Type().Field(i).Name
			if digestDerived[field] {
				continue
			}
			seen++
			f := v.Field(i)
			f = reflect.NewAt(f.Type(), f.Addr().UnsafePointer()).Elem()
			saved := reflect.New(f.Type()).Elem()
			saved.Set(f)
			if !mutate(f, p, other) {
				t.Errorf("%s (%s): the test cannot change this type; extend mutate and Digest", field, f.Type())
				continue
			}
			if Digest(p) == base {
				t.Errorf("%s changed but the digest did not", field)
			}
			f.Set(saved)
		}
	}
	if Digest(p) != base {
		t.Fatal("restoring every field did not restore the digest")
	}
	if seen < 30 {
		t.Fatalf("only %d fields checked", seen)
	}

	// Clone names and lock sets are encoded by value: pointing an
	// instruction at an equal copy elsewhere in its table changes nothing.
	p.fns = append(p.fns, p.FnName(fork))
	fork.Fn = FnID(len(p.fns) - 1)
	p.lockSets = append(p.lockSets, slices.Clone(p.Locks(fork)))
	fork.Locks = LockSetID(len(p.lockSets) - 1)
	if Digest(p) != base {
		t.Error("moving a clone name or a lock set within its table changed the digest")
	}

	// The atom table: a new atom no guard uses still changes the digest.
	p.Pool.Bool("unused_atom")
	if Digest(p) == base {
		t.Error("a new atom did not change the digest")
	}
}

// mutate changes f in place to a different value of its type; other is a
// block to point block references at. An index into one of p's tables is
// pointed at a new entry with a different value.
func mutate(f reflect.Value, p *Program, other *Block) bool {
	switch f.Type() {
	case reflect.TypeOf(FnID(0)):
		p.fns = append(p.fns, p.fns[f.Int()]+"'")
		f.SetInt(int64(len(p.fns) - 1))
		return true
	case reflect.TypeOf(LockSetID(0)):
		p.lockSets = append(p.lockSets, append(slices.Clone(p.lockSets[f.Int()]), HeldLock{Name: "mutated"}))
		f.SetInt(int64(len(p.lockSets) - 1))
		return true
	}
	switch f.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.String:
		f.SetString(f.String() + "'")
	case reflect.Struct:
		if f.NumField() == 0 {
			return false
		}
		for i := 0; i < f.NumField(); i++ {
			if !mutate(f.Field(i), p, other) {
				return false
			}
		}
	case reflect.Pointer:
		switch x := f.Interface().(type) {
		case *guard.Formula:
			if x == nil {
				x = guard.False()
			}
			f.Set(reflect.ValueOf(guard.Not(x)))
		case *Block:
			if x == other {
				return false
			}
			f.Set(reflect.ValueOf(other))
		default:
			return false
		}
	case reflect.Slice:
		elem := reflect.New(f.Type().Elem()).Elem()
		switch f.Type().Elem() {
		case reflect.TypeOf((*guard.Formula)(nil)):
			elem.Set(reflect.ValueOf(guard.True()))
		case reflect.TypeOf((*Block)(nil)):
			elem.Set(reflect.ValueOf(other))
		case reflect.TypeOf((*Inst)(nil)):
			elem.Set(reflect.ValueOf(&Inst{Label: 1 << 20}))
		default:
			if !mutate(elem, p, other) {
				return false
			}
		}
		f.Set(reflect.Append(f, elem))
	default:
		return false
	}
	return true
}

// TestDigestAgreesWithRender replays the edit-session stream, seeds 1
// and 1631, and requires each semantic save's lowering to digest like the
// previous one's exactly when it renders like it. The stream's module
// saves change only a constant, which the IR does not carry, so both
// outcomes occur.
func TestDigestAgreesWithRender(t *testing.T) {
	semantic := 200
	if testing.Short() || raceEnabled {
		semantic = 40
	}
	for _, seed := range []int64{1, 1631} {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			digestAgreesWithRender(t, seed, semantic)
		})
	}
}

// digestAgreesWithRender replays semantic saves of seed's stream.
func digestAgreesWithRender(t *testing.T, seed int64, semantic int) {
	s, err := workload.NewEditStream(workload.EditSessionSpec(seed), seed)
	if err != nil {
		t.Fatal(err)
	}
	p := lowerSrc(t, s.Source())
	prevRender, prevDigest := Render(p), Digest(p)
	same := 0
	for n := 0; n < semantic; {
		sv := s.Next()
		if !sv.Kind.Semantic() {
			continue
		}
		n++
		p := lowerSrc(t, s.Source())
		r, d := Render(p), Digest(p)
		if (r == prevRender) != (d == prevDigest) {
			t.Fatalf("save %d (kind %d, line %d): render equal %v, digest equal %v",
				n, sv.Kind, sv.Line, r == prevRender, d == prevDigest)
		}
		if d == prevDigest {
			same++
		}
		prevRender, prevDigest = r, d
	}
	if same == 0 || same == semantic {
		t.Fatalf("%d of %d semantic saves kept their lowering", same, semantic)
	}
	t.Logf("%d of %d semantic saves kept their lowering", same, semantic)
}

// TestDigestDistinguishesSubjects lowers every golden subject twice: the
// two lowerings digest alike, and no two subjects do.
func TestDigestDistinguishesSubjects(t *testing.T) {
	seen := make(map[string]string)
	for name, src := range goldenSubjects(t) {
		d := Digest(lowerSrc(t, src))
		if again := Digest(lowerSrc(t, src)); again != d {
			t.Errorf("%s: two lowerings digest differently", name)
		}
		if prev, ok := seen[d.String()]; ok {
			t.Errorf("%s and %s digest alike", name, prev)
		}
		seen[d.String()] = name
	}
}

var digestSink cache.Key

// BenchmarkDigest times Digest over the edit-session program (seed 1,
// ~7 000 instructions), which every semantic live save pays.
func BenchmarkDigest(b *testing.B) {
	p := lowerSrc(b, workload.Generate(workload.EditSessionSpec(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = Digest(p)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(p.NumInsts()), "insts")
}
