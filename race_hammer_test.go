package canary

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestAnalyzeRaceHammer16 runs Analyze from 16 goroutines at once, each on
// a distinct program, and requires every concurrent result to equal its
// sequential baseline. canaryd schedules exactly this shape of load onto
// the process-wide guard hash-cons interner, so this test — run under
// -race by `make check` — locks in that the shared interner is safe for
// concurrent, independent analyses, not just for the worker pools inside
// one analysis.
func TestAnalyzeRaceHammer16(t *testing.T) {
	const goroutines = 16

	// Distinct programs: the whole corpus, padded with variants so every
	// goroutine gets its own source (and thus its own guard pool).
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	var srcs []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(data))
	}
	for i := 0; len(srcs) < goroutines; i++ {
		srcs = append(srcs, fmt.Sprintf("%s\nfunc hammer_pad_%d() { p = malloc(); free(p); }\n", srcs[i], i))
	}
	srcs = srcs[:goroutines]

	opt := DefaultOptions()
	opt.Checkers = append(AllCheckers(), ExtendedCheckers()...)

	// Sequential baselines first; the concurrent runs must reproduce them.
	want := make([]*Result, goroutines)
	for i, src := range srcs {
		res, err := Analyze(src, opt)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		want[i] = res
	}

	got := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = Analyze(srcs[i], opt)
		}(i)
	}
	wg.Wait()

	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Errorf("goroutine %d: %v", i, errs[i])
			continue
		}
		if !reflect.DeepEqual(got[i].Reports, want[i].Reports) {
			t.Errorf("goroutine %d: reports differ under concurrency:\n got: %+v\nwant: %+v",
				i, got[i].Reports, want[i].Reports)
		}
		if got[i].VFG.Nodes != want[i].VFG.Nodes || got[i].VFG.Edges != want[i].VFG.Edges {
			t.Errorf("goroutine %d: VFG shape differs: got %d/%d, want %d/%d",
				i, got[i].VFG.Nodes, got[i].VFG.Edges, want[i].VFG.Nodes, want[i].VFG.Edges)
		}
	}
}
