package canary

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"canary/internal/failpoint"
)

// fiTemplate is a use-after-free behind mismatched mutexes: its
// mutual-exclusion guard survives the presolver, so (with fact
// propagation off) the query genuinely reaches the solver dispatch where
// the smt-solve site lives. Each subtest instantiates it with a unique
// tag so no two subtests analyze the same program.
const fiTemplate = `
global XXmu;
global XXother;
func XXwriter(XXcell) {
  XXb = malloc();
  XXfresh = malloc();
  lock(XXmu);
  *XXcell = XXb;
  free(XXb);
  *XXcell = XXfresh;
  unlock(XXmu);
}
func XXreader(XXcell) {
  lock(XXother);
  XXc = *XXcell;
  print(*XXc);
  unlock(XXother);
}
func main() {
  XXcell = malloc();
  XXseed = malloc();
  *XXcell = XXseed;
  fork(XXt1, XXwriter, XXcell);
  fork(XXt2, XXreader, XXcell);
}
`

func fiProgram(tag string) string {
	return strings.ReplaceAll(fiTemplate, "XX", tag)
}

// fiOptions forces every query past the order-fact fast path so the
// solver-adjacent smt-solve failpoint is reachable.
func fiOptions() Options {
	opt := DefaultOptions()
	opt.FactPropagation = false
	return opt
}

func renderReports(res *Result) string {
	return fmt.Sprintf("%#v", res.Reports)
}

// TestInjectedErrorsSurfaceTyped sweeps every library-reachable site in
// error mode and requires each fault to surface as a typed error or an
// inconclusive verdict — never a crash, and never silent corruption.
// (The job-dequeue site is daemon-only; internal/server tests cover it.)
func TestInjectedErrorsSurfaceTyped(t *testing.T) {
	defer failpoint.Reset()
	failpoint.Reset()

	// How each armed site must surface: "abort" fails the analysis with a
	// typed error; "inconclusive" completes it with internal-error
	// verdicts; "transparent" degrades a cache layer to a miss and leaves
	// the output untouched.
	expect := map[string]string{
		failpoint.SiteParse:         "abort",
		failpoint.SiteLower:         "abort",
		failpoint.SitePTAFixpoint:   "abort",
		failpoint.SiteBuildFixpoint: "abort",
		failpoint.SiteGuardEval:     "inconclusive",
		failpoint.SiteSMTSolve:      "inconclusive",
		failpoint.SiteCacheRead:     "transparent",
		failpoint.SiteCacheWrite:    "transparent",
	}
	i := 0
	for site, want := range expect {
		site, want := site, want
		src := fiProgram(fmt.Sprintf("fiErr%d", i))
		i++
		t.Run(site, func(t *testing.T) {
			failpoint.Reset()
			if err := failpoint.Enable(site, "error"); err != nil {
				t.Fatal(err)
			}
			res, err := NewSession().Analyze(src, fiOptions())
			hits := failpoint.Hits(site)
			failpoint.Reset()
			if hits == 0 {
				t.Fatalf("site %s was never reached by the probe program", site)
			}
			switch want {
			case "abort":
				if err == nil {
					t.Fatalf("want a typed error, got result %+v", res)
				}
				if !errors.Is(err, failpoint.ErrInjected) {
					t.Fatalf("error does not wrap ErrInjected: %v", err)
				}
			case "inconclusive":
				if err != nil {
					t.Fatalf("check-stage fault must degrade, not abort: %v", err)
				}
				found := false
				for _, r := range res.Reports {
					if r.Verdict == VerdictInconclusive && strings.HasPrefix(r.Reason, "internal-error:") {
						found = true
					}
				}
				if !found {
					t.Fatalf("no internal-error inconclusive report: %+v", res.Reports)
				}
			case "transparent":
				if err != nil {
					t.Fatalf("cache-layer fault must be invisible, not abort: %v", err)
				}
				// The faultless run of the same program must match the
				// faulted one byte for byte: a degraded cache layer may
				// cost work, never output.
				clean, cerr := NewSession().Analyze(src, fiOptions())
				if cerr != nil {
					t.Fatal(cerr)
				}
				if got, want := renderReports(res), renderReports(clean); got != want {
					t.Fatalf("cache-layer fault changed the output:\n--- clean:\n%s\n--- faulted:\n%s", want, got)
				}
			}
		})
	}
}

// TestInjectedPanicsAreRecovered arms panic-mode failpoints at both build
// and check stages: a build-stage panic becomes an error wrapping
// ErrInternal, a check-stage panic becomes an internal-error report, and
// neither escapes to the test harness.
func TestInjectedPanicsAreRecovered(t *testing.T) {
	defer failpoint.Reset()
	buildStage := map[string]bool{
		failpoint.SiteParse:         true,
		failpoint.SiteLower:         true,
		failpoint.SitePTAFixpoint:   true,
		failpoint.SiteBuildFixpoint: true,
		failpoint.SiteGuardEval:     false,
		failpoint.SiteSMTSolve:      false,
	}
	i := 0
	for site, isBuild := range buildStage {
		site, isBuild := site, isBuild
		src := fiProgram(fmt.Sprintf("fiPanic%d", i))
		i++
		t.Run(site, func(t *testing.T) {
			failpoint.Reset()
			if err := failpoint.Enable(site, "panic"); err != nil {
				t.Fatal(err)
			}
			defer failpoint.Reset()
			sess := NewSession()
			res, err := sess.Analyze(src, fiOptions())
			if isBuild {
				if !errors.Is(err, ErrInternal) {
					t.Fatalf("build-stage panic must wrap ErrInternal, got %v", err)
				}
				if sess.PanicsRecovered() == 0 {
					t.Error("session did not count the recovered panic")
				}
			} else {
				if err != nil {
					t.Fatalf("check-stage panic must degrade, not abort: %v", err)
				}
				if res.Check.PanicsRecovered == 0 {
					t.Errorf("checker did not count the recovered panic: %+v", res.Check)
				}
				found := false
				for _, r := range res.Reports {
					if strings.HasPrefix(r.Reason, "internal-error:") {
						found = true
					}
				}
				if !found {
					t.Fatalf("no internal-error report after a check-stage panic: %+v", res.Reports)
				}
			}
		})
	}
}

// TestQuarantineRestoresWarmDeterminism is the poisoned-summary proof: a
// panic mid-build evicts the program's summaries from the warm session,
// so the next warm run recomputes everything and stays byte-identical to
// the cold run.
func TestQuarantineRestoresWarmDeterminism(t *testing.T) {
	defer failpoint.Reset()
	failpoint.Reset()
	src := fiProgram("fiQuar")
	sess := NewSession()
	cold, err := sess.Analyze(src, fiOptions())
	if err != nil {
		t.Fatal(err)
	}

	if err := failpoint.Enable(failpoint.SiteBuildFixpoint, "panic"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Analyze(src, fiOptions()); !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal from the poisoned run, got %v", err)
	}
	failpoint.Reset()
	if sess.QuarantinedSummaries() == 0 {
		t.Fatal("the recovered panic quarantined nothing")
	}

	hitsBefore, _ := sess.SummaryStats()
	warm, err := sess.Analyze(src, fiOptions())
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter, _ := sess.SummaryStats()
	if hitsAfter != hitsBefore {
		t.Errorf("post-quarantine run reused %d summaries; quarantine failed to evict",
			hitsAfter-hitsBefore)
	}
	if got, want := renderReports(warm), renderReports(cold); got != want {
		t.Errorf("post-quarantine warm run differs from the cold run:\n--- cold:\n%s\n--- warm:\n%s", want, got)
	}
}

// TestFaultAndBudgetHammer runs 16 goroutines against one shared session
// with every-Nth failpoints armed at six sites and starvation budgets on:
// the only acceptable outcomes are a clean result, a typed injected
// error, or a recovered internal error. Run under -race by make check.
func TestFaultAndBudgetHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer skipped in -short mode")
	}
	defer failpoint.Reset()
	failpoint.Reset()
	for site, spec := range map[string]string{
		failpoint.SiteGuardEval:     "error@5",
		failpoint.SiteSMTSolve:      "panic@7",
		failpoint.SiteCacheRead:     "error@3",
		failpoint.SiteCacheWrite:    "error@4",
		failpoint.SitePTAFixpoint:   "error@11",
		failpoint.SiteBuildFixpoint: "panic@13",
	} {
		if err := failpoint.Enable(site, spec); err != nil {
			t.Fatal(err)
		}
	}

	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	var sources []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, string(data))
	}

	sess := NewSession()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := DefaultOptions()
			opt.FactPropagation = false
			opt.Budgets = Budgets{MaxFixpointRounds: 2, MaxDFSSteps: 40, MaxFormulaNodes: 12}
			opt.Workers = 1 + g%4
			for i := 0; i < 6; i++ {
				_, err := sess.Analyze(sources[(g*7+i)%len(sources)], opt)
				if err != nil && !errors.Is(err, failpoint.ErrInjected) && !errors.Is(err, ErrInternal) {
					t.Errorf("goroutine %d run %d: unclassified error %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// primePersistent analyzes src into a fresh persistent session rooted at
// dir with no faults armed, returning the clean render every faulted warm
// run below must still reproduce.
func primePersistent(t *testing.T, dir, src string) string {
	t.Helper()
	failpoint.Reset()
	sess, err := NewPersistentSession(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Analyze(src, fiOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess.Flush()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	return renderReports(res)
}

// TestInjectedDiskFaultsDegrade arms the three disk failpoints against a
// populated warm directory: every injected read fault, write fault, and
// bit flip must degrade the disk store to a miss — the analysis recomputes
// and stays byte-identical to the clean run, and nothing crashes.
func TestInjectedDiskFaultsDegrade(t *testing.T) {
	defer failpoint.Reset()

	t.Run(failpoint.SiteDiskRead, func(t *testing.T) {
		src := fiProgram("fiDskR")
		dir := t.TempDir()
		want := primePersistent(t, dir, src)
		if err := failpoint.Enable(failpoint.SiteDiskRead, "error"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Reset()
		sess, err := NewPersistentSession(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Analyze(src, fiOptions())
		if err != nil {
			t.Fatalf("injected read fault must degrade to a miss, not abort: %v", err)
		}
		if failpoint.Hits(failpoint.SiteDiskRead) == 0 {
			t.Fatal("disk-read site was never reached")
		}
		if got := renderReports(res); got != want {
			t.Fatalf("read fault changed the output:\n--- clean:\n%s\n--- faulted:\n%s", want, got)
		}
		if ds := sess.DiskStats(); ds.Hits != 0 {
			t.Errorf("every read was faulted, yet %d disk hits", ds.Hits)
		}
	})

	t.Run(failpoint.SiteDiskCorrupt, func(t *testing.T) {
		src := fiProgram("fiDskC")
		dir := t.TempDir()
		want := primePersistent(t, dir, src)
		if err := failpoint.Enable(failpoint.SiteDiskCorrupt, "error"); err != nil {
			t.Fatal(err)
		}
		defer failpoint.Reset()
		sess, err := NewPersistentSession(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Analyze(src, fiOptions())
		if err != nil {
			t.Fatalf("injected bit flip must degrade to a miss, not abort: %v", err)
		}
		if failpoint.Hits(failpoint.SiteDiskCorrupt) == 0 {
			t.Fatal("disk-corrupt site was never reached")
		}
		if got := renderReports(res); got != want {
			t.Fatalf("bit flip changed the output:\n--- clean:\n%s\n--- faulted:\n%s", want, got)
		}
		ds := sess.DiskStats()
		if ds.CorruptEntries == 0 {
			t.Error("checksum trailer caught no flipped entry")
		}
		if ds.Hits != 0 {
			t.Errorf("every read was bit-flipped, yet %d disk hits", ds.Hits)
		}
	})

	t.Run(failpoint.SiteDiskWrite, func(t *testing.T) {
		failpoint.Reset()
		src := fiProgram("fiDskW")
		dir := t.TempDir()
		// Arm during priming: every disk write is suppressed, so the store
		// stays empty and the next session runs cold — but correctly.
		if err := failpoint.Enable(failpoint.SiteDiskWrite, "error"); err != nil {
			t.Fatal(err)
		}
		s1, err := NewPersistentSession(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		res1, err := s1.Analyze(src, fiOptions())
		if err != nil {
			t.Fatalf("injected write fault must be invisible, not abort: %v", err)
		}
		s1.Flush()
		if failpoint.Hits(failpoint.SiteDiskWrite) == 0 {
			t.Fatal("disk-write site was never reached")
		}
		if ds := s1.DiskStats(); ds.Entries != 0 || ds.Writes != 0 {
			t.Fatalf("faulted writes still landed: %+v", ds)
		}
		if err := s1.Close(); err != nil {
			t.Fatal(err)
		}
		failpoint.Reset()

		s2, err := NewPersistentSession(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		res2, err := s2.Analyze(src, fiOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderReports(res2), renderReports(res1); got != want {
			t.Fatalf("cold rerun after suppressed writes differs:\n--- first:\n%s\n--- second:\n%s", want, got)
		}
	})
}

// TestBitRotOnDiskDegradesToRecompute flips a real byte in every entry
// file of a populated warm directory — no failpoints, actual bit rot. A
// fresh session must detect every corruption via the checksum trailer,
// heal the store by deleting the bad files, and recompute byte-identical
// output.
func TestBitRotOnDiskDegradesToRecompute(t *testing.T) {
	src := fiProgram("fiRot")
	dir := t.TempDir()
	want := primePersistent(t, dir, src)

	flipped := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil || len(b) == 0 {
			return rerr
		}
		b[len(b)/2] ^= 0x01
		if werr := os.WriteFile(path, b, 0o644); werr != nil {
			return werr
		}
		flipped++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if flipped == 0 {
		t.Fatal("priming left nothing on disk to corrupt")
	}

	sess, err := NewPersistentSession(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Analyze(src, fiOptions())
	if err != nil {
		t.Fatalf("bit rot must degrade to recompute, not abort: %v", err)
	}
	if got := renderReports(res); got != want {
		t.Fatalf("bit rot changed the output:\n--- clean:\n%s\n--- rotted:\n%s", want, got)
	}
	ds := sess.DiskStats()
	if ds.CorruptEntries == 0 {
		t.Error("no corruption was detected despite flipping every entry")
	}
	if ds.Hits != 0 {
		t.Errorf("a flipped entry was served as a hit (%d hits)", ds.Hits)
	}
}

// TestCutoffNeverReplaysAFaultedRun arms a check-stage failpoint for one
// save, which lowers to a new program and so reaches the check: its
// findings carry internal errors. The next save changes only a constant,
// hence lowers to that same program, and must still run the check and
// equal a cold analysis. Then a faulted save and a cancelled one fail,
// and the kept digest must stay on the last successful revision: a
// constant save after them cuts off, with findings equal to a cold
// analysis.
func TestCutoffNeverReplaysAFaultedRun(t *testing.T) {
	defer failpoint.Reset()
	failpoint.Reset()
	src := strings.Replace(fiProgram("fiCut"), "  *fiCutcell = fiCutseed;\n", "  *fiCutcell = fiCutseed;\n  fiCutn = 1;\n", 1)
	const line = 23 // the constant's line
	if got := strings.Split(src, "\n")[line-1]; got != "  fiCutn = 1;" {
		t.Fatalf("line %d is %q", line, got)
	}
	live, _, err := NewSession().Open(src, fiOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ctx := context.Background()
	save := func(ctx context.Context, text string) (*FindingsDelta, error) {
		return live.ApplyEdits(ctx, []Edit{{line, line + 1, text + "\n"}})
	}
	checkCold := func(what string) {
		t.Helper()
		cold, err := Analyze(live.Source(), fiOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !sameReports(live.Reports(), cold.Reports) {
			t.Fatalf("%s: findings differ from a cold analysis:\n%s\n%s", what, renderReports(live.Result()), renderReports(cold))
		}
	}
	internalErrors := func() int {
		n := 0
		for _, r := range live.Reports() {
			if strings.HasPrefix(r.Reason, "internal-error") {
				n++
			}
		}
		return n
	}

	if err := failpoint.Enable(failpoint.SiteGuardEval, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := save(ctx, "  fiCutn = fiCutseed + 1;"); err != nil {
		t.Fatal(err)
	}
	failpoint.Reset()
	if internalErrors() == 0 || !hasSpan(live.Result(), "check") {
		t.Fatalf("the armed save produced no internal-error report: %s", renderReports(live.Result()))
	}
	if _, err := save(ctx, "  fiCutn = fiCutseed + 2;"); err != nil {
		t.Fatal(err)
	}
	if !hasSpan(live.Result(), "check") || internalErrors() != 0 {
		t.Fatalf("the constant save after a faulted run cut off onto it: %s", renderReports(live.Result()))
	}
	checkCold("after the faulted run")

	// A save that changes the program fails in the build, then one is
	// cancelled; neither may move the kept digest.
	if err := failpoint.Enable(failpoint.SiteBuildFixpoint, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := save(ctx, "  fiCutn = fiCutseed - 3;"); err == nil {
		t.Fatal("the save under a build failpoint succeeded")
	}
	failpoint.Reset()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := save(cancelled, "  fiCutn = fiCutseed - 4;"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("cancelled save: %v", err)
	}
	d, err := save(ctx, "  fiCutn = fiCutseed + 5;")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Reanalyzed || hasSpan(live.Result(), "check") {
		t.Fatalf("the constant save after two failed ones did not cut off: %+v", live.Result().Trace)
	}
	checkCold("after the failed saves")
}
