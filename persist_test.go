package canary

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"canary/internal/workload"
)

// TestPersistentWarmChildProcess is not a test of its own: it is the body
// re-exec'd by the fresh-process tests below. Guarded by an env var so a
// normal `go test` run skips it.
func TestPersistentWarmChildProcess(t *testing.T) {
	if os.Getenv("CANARY_PERSIST_CHILD") != "1" {
		t.Skip("helper process for the persistent-warm tests")
	}
	dir := os.Getenv("CANARY_PERSIST_DIR")
	srcPath := os.Getenv("CANARY_PERSIST_SRC")
	data, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewPersistentSession(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Analyze(string(data), DefaultOptions())
	if err != nil {
		sess.Close()
		t.Fatal(err)
	}
	sess.Flush()
	ds := sess.DiskStats()
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(renderFull(res)))
	fmt.Printf("PERSISTCHILD render=%s summaryhits=%d reanalyzed=%d diskhits=%d diskwrites=%d\n",
		hex.EncodeToString(sum[:]), res.VFG.SummaryHits, res.VFG.FuncsReanalyzed, ds.Hits, ds.Writes)
}

var persistChildRe = regexp.MustCompile(
	`PERSISTCHILD render=([0-9a-f]+) summaryhits=(\d+) reanalyzed=(\d+) diskhits=(\d+) diskwrites=(\d+)`)

type persistChildOut struct {
	render      string
	summaryHits int
	reanalyzed  int
	diskHits    int
	diskWrites  int
}

// runPersistChild re-execs this test binary as a genuinely fresh process
// that analyzes srcPath through a persistent session rooted at dir.
func runPersistChild(t *testing.T, dir, srcPath string) persistChildOut {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "TestPersistentWarmChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		"CANARY_PERSIST_CHILD=1",
		"CANARY_PERSIST_DIR="+dir,
		"CANARY_PERSIST_SRC="+srcPath,
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("persist child: %v\n%s", err, out)
	}
	m := persistChildRe.FindSubmatch(out)
	if m == nil {
		t.Fatalf("persist child produced no report:\n%s", out)
	}
	atoi := func(b []byte) int {
		n, err := strconv.Atoi(string(b))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return persistChildOut{
		render:      string(m[1]),
		summaryHits: atoi(m[2]),
		reanalyzed:  atoi(m[3]),
		diskHits:    atoi(m[4]),
		diskWrites:  atoi(m[5]),
	}
}

func renderHash(res *Result) string {
	sum := sha256.Sum256([]byte(renderFull(res)))
	return hex.EncodeToString(sum[:])
}

// TestPersistentWarmDeterminism is the acceptance gate of the disk store:
// for every corpus program, a fresh process restarted onto a populated
// warm directory must produce output byte-identical to a cold in-process
// analysis, with its reuse actually fed from disk (hits > 0).
func TestPersistentWarmDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two processes per corpus file")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Analyze(string(data), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := renderHash(cold)

			dir := t.TempDir()
			abs, err := filepath.Abs(file)
			if err != nil {
				t.Fatal(err)
			}
			prime := runPersistChild(t, dir, abs)
			if prime.render != want {
				t.Fatalf("priming process output differs from cold analysis")
			}
			if prime.diskWrites == 0 {
				t.Fatalf("priming process wrote nothing to the store")
			}
			warm := runPersistChild(t, dir, abs)
			if warm.render != want {
				t.Errorf("warm-restart output differs from cold analysis")
			}
			if warm.diskHits == 0 {
				t.Errorf("warm restart served no disk hits (summaries reused: %d)", warm.summaryHits)
			}
			if warm.reanalyzed != 0 {
				t.Errorf("warm restart reanalyzed %d functions; want 0", warm.reanalyzed)
			}
		})
	}
}

// TestPersistentWarmReuseAfterEdit models the real CI scenario: a sizable
// program is analyzed (process exits), one line is edited, and a fresh
// process re-analyzes it against the same warm directory. At least 90% of
// function summaries must be reused across the edit AND the restart, and
// the output must match a cold analysis of the edited program exactly.
func TestPersistentWarmReuseAfterEdit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two analysis processes")
	}
	spec := workload.SizeSweep(1, 1200, 1200)[0]
	orig := workload.Generate(spec)
	edited, ok := mutateCorpus(orig)
	if !ok {
		t.Fatal("generated subject has no main to edit")
	}
	work := t.TempDir()
	origPath := filepath.Join(work, "orig.cn")
	editedPath := filepath.Join(work, "edited.cn")
	if err := os.WriteFile(origPath, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(editedPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	coldEdited, err := Analyze(edited, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(work, "store")
	runPersistChild(t, dir, origPath) // prime, then the process dies
	warm := runPersistChild(t, dir, editedPath)

	if warm.render != renderHash(coldEdited) {
		t.Errorf("edited warm-restart output differs from cold analysis of the edited program")
	}
	total := warm.summaryHits + warm.reanalyzed
	if total == 0 {
		t.Fatal("no summary accounting in warm run")
	}
	reuse := float64(warm.summaryHits) / float64(total)
	if reuse < 0.9 {
		t.Errorf("summary reuse after edit+restart = %.2f (%d/%d); want >= 0.9",
			reuse, warm.summaryHits, total)
	}
	if warm.diskHits == 0 {
		t.Error("edited warm restart served no disk hits")
	}
}

// TestWarmSnapshotRoundTrip ships warm state between two stores through
// the single-file archive: a session primed in dir A is exported, imported
// into an empty dir B, and a fresh session over B must analyze warm (disk
// hits, zero reanalysis) and byte-identical to the original.
//
// Store A also holds a "verdict" namespace, as every store written by a
// build with the cross-run verdict store does. Nothing reads those entries
// any more, but such a store must still reopen, analyze warm and
// byte-identically, and ship its snapshot into B without error.
func TestWarmSnapshotRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	opt := DefaultOptions()

	dirA := filepath.Join(t.TempDir(), "a")
	a, err := NewPersistentSession(dirA, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := a.Analyze(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Old verdict entries: a result byte, a model of one assignment.
	const oldVerdicts = 3
	for i := 0; i < oldVerdicts; i++ {
		a.disk.NS("verdict").Put(sha256.Sum256([]byte{byte(i)}), []byte{1, 1, 5, 'o', ':', '1', '>', '2', 1})
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen A: the leftover namespace neither fails the open nor changes
	// the warm analysis.
	a, err = NewPersistentSession(dirA, 0)
	if err != nil {
		t.Fatalf("reopening a store that holds verdict entries: %v", err)
	}
	reopened, err := a.Analyze(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderFull(reopened) != renderFull(cold) {
		t.Error("warm analysis over a store with verdict entries differs from the cold one")
	}
	if reopened.VFG.FuncsReanalyzed != 0 {
		t.Errorf("reopened store still reanalyzed %d functions", reopened.VFG.FuncsReanalyzed)
	}
	var archive bytes.Buffer
	n, err := a.ExportWarm(&archive)
	if err != nil {
		t.Fatal(err)
	}
	if n <= oldVerdicts {
		t.Fatalf("exported %d entries, want the summaries and %d verdict entries", n, oldVerdicts)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := NewPersistentSession(filepath.Join(t.TempDir(), "b"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got, err := b.ImportWarm(bytes.NewReader(archive.Bytes())); err != nil || got != n {
		t.Fatalf("imported %d of %d entries: %v", got, n, err)
	}
	warm, err := b.Analyze(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	if renderFull(warm) != renderFull(cold) {
		t.Error("analysis over imported snapshot differs from the original")
	}
	if warm.VFG.FuncsReanalyzed != 0 {
		t.Errorf("imported snapshot still reanalyzed %d functions", warm.VFG.FuncsReanalyzed)
	}
	if ds := b.DiskStats(); ds.Hits == 0 {
		t.Error("imported snapshot served no disk hits")
	}
}

// TestPersistentSessionQuarantineSurvivesRestart: quarantining through a
// persistent session must delete the on-disk entries too, so a poisoned
// summary cannot come back in the next process.
func TestPersistentSessionQuarantineReachesDisk(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.cn"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v (%d files)", err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	dir := t.TempDir()

	s1, err := NewPersistentSession(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Analyze(src, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	s1.Flush()
	primed := s1.DiskStats()
	if primed.Entries == 0 {
		t.Fatal("priming stored nothing")
	}
	s1.Quarantine(src)
	s1.Flush()
	after := s1.DiskStats()
	if after.Entries >= primed.Entries {
		t.Errorf("quarantine removed nothing from disk: %d -> %d entries", primed.Entries, after.Entries)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
}
