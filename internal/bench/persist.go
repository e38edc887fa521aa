package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"canary"
	"canary/internal/workload"
)

// PersistPhase is one fresh-process analysis run against a warm-state
// directory: the reuse counters of that run and the disk store's view of
// it.
type PersistPhase struct {
	SummaryHits     int    `json:"summary_hits"`
	FuncsReanalyzed int    `json:"funcs_reanalyzed"`
	DiskHits        uint64 `json:"disk_hits"`
	DiskMisses      uint64 `json:"disk_misses"`
	DiskWrites      uint64 `json:"disk_writes"`
	DiskBytes       int64  `json:"disk_bytes"`
	DiskEntries     int64  `json:"disk_entries"`
}

// PersistResult measures the warm-restart scenario end to end, every phase
// in its own freshly exec'd process so nothing warm can survive in memory:
//
//   - Cold: analyze into an empty -warm-dir (populates the disk store).
//   - Warm: a new process re-analyzes the same program against the
//     populated store; its output must be byte-identical to cold, it must
//     serve at least one disk hit and reanalyze no function.
//   - EditedCold / EditedWarm: the one-line-edit scenario of the
//     incremental experiment, except the warm state crosses a process
//     restart; the pair must render byte-identically, and SummaryReuse is
//     the fraction of function summaries the restarted process still
//     reused.
//
// Each "must" is an ErrGate gate.
type PersistResult struct {
	Lines int `json:"lines"`
	// Funcs is the function count of the edited program (the denominator
	// context for EditedWarm's reuse counters).
	Funcs      int          `json:"funcs"`
	Cold       PersistPhase `json:"cold"`
	Warm       PersistPhase `json:"warm"`
	EditedCold PersistPhase `json:"edited_cold"`
	EditedWarm PersistPhase `json:"edited_warm"`
	// SummaryReuse is EditedWarm's SummaryHits/(SummaryHits+FuncsReanalyzed):
	// how much of the program survived a one-line edit plus a restart.
	SummaryReuse float64 `json:"summary_reuse"`
}

// persistChildReport is what a -persist-child process prints on stdout:
// the render of its reports plus every counter the parent aggregates.
type persistChildReport struct {
	Render          string           `json:"render"`
	Funcs           int              `json:"funcs"`
	SummaryHits     int              `json:"summary_hits"`
	FuncsReanalyzed int              `json:"funcs_reanalyzed"`
	Disk            canary.DiskStats `json:"disk"`
}

// RunPersistChild is the body of a -persist-child process: open (or
// create) the persistent session rooted at dir, analyze srcPath through
// it, flush and close so every write lands, and print the report as JSON.
// It returns the process exit code.
func RunPersistChild(dir, srcPath string) int {
	data, err := os.ReadFile(srcPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	sess, err := canary.NewPersistentSession(dir, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	res, err := sess.Analyze(string(data), canary.DefaultOptions())
	if err != nil {
		sess.Close()
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	sess.Flush()
	rep := persistChildReport{
		Render:          renderReports(res),
		Funcs:           res.VFG.SummaryHits + res.VFG.FuncsReanalyzed,
		SummaryHits:     res.VFG.SummaryHits,
		FuncsReanalyzed: res.VFG.FuncsReanalyzed,
		Disk:            sess.DiskStats(),
	}
	if err := sess.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "persist-child:", err)
		return 2
	}
	return 0
}

// phaseOf projects a child report onto the aggregated phase record.
func phaseOf(rep persistChildReport) PersistPhase {
	return PersistPhase{
		SummaryHits:     rep.SummaryHits,
		FuncsReanalyzed: rep.FuncsReanalyzed,
		DiskHits:        rep.Disk.Hits,
		DiskMisses:      rep.Disk.Misses,
		DiskWrites:      rep.Disk.Writes,
		DiskBytes:       rep.Disk.Bytes,
		DiskEntries:     rep.Disk.Entries,
	}
}

// RunPersist measures warm restarts for spec, re-exec'ing exe (this very
// binary) with -persist-child flags so each phase runs in a genuinely
// fresh process.
func (e *Experiments) RunPersist(spec workload.Spec, exe string) (PersistResult, error) {
	res := PersistResult{Lines: spec.Lines}
	orig := workload.Generate(spec)
	edited, err := mutateMain(orig)
	if err != nil {
		return res, err
	}

	work, err := os.MkdirTemp("", "canary-persist-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(work)
	origPath := filepath.Join(work, "orig.cn")
	editedPath := filepath.Join(work, "edited.cn")
	if err := os.WriteFile(origPath, []byte(orig), 0o644); err != nil {
		return res, err
	}
	if err := os.WriteFile(editedPath, []byte(edited), 0o644); err != nil {
		return res, err
	}

	runChild := func(dir, src string) (persistChildReport, error) {
		var rep persistChildReport
		cmd := exec.Command(exe, "-persist-child", "-persist-dir", dir, "-persist-src", src)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return rep, fmt.Errorf("persist child: %w", err)
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			return rep, fmt.Errorf("persist child output: %w", err)
		}
		return rep, nil
	}

	// Cold into an empty store, then a fresh process against it: all of
	// the warm run's reuse is disk-fed.
	store := filepath.Join(work, "store")
	repC, err := runChild(store, origPath)
	if err != nil {
		return res, err
	}
	res.Cold = phaseOf(repC)
	repW, err := runChild(store, origPath)
	if err != nil {
		return res, err
	}
	res.Warm = phaseOf(repW)
	e.logf("  persist: cold %d disk writes, warm %d disk hits, %d functions reanalyzed\n",
		res.Cold.DiskWrites, res.Warm.DiskHits, res.Warm.FuncsReanalyzed)
	if repW.Render != repC.Render {
		return res, gatef("warm-restart reports differ from the cold run")
	}
	if res.Warm.DiskHits == 0 || res.Warm.FuncsReanalyzed != 0 {
		return res, gatef("warm restart served %d disk hits and reanalyzed %d functions, want at least 1 and 0",
			res.Warm.DiskHits, res.Warm.FuncsReanalyzed)
	}

	// One-line edit across a restart: cold baseline in an empty store,
	// then the edited program against the original program's store.
	repEC, err := runChild(filepath.Join(work, "store-edited-cold"), editedPath)
	if err != nil {
		return res, err
	}
	res.EditedCold = phaseOf(repEC)
	repEW, err := runChild(store, editedPath)
	if err != nil {
		return res, err
	}
	res.EditedWarm = phaseOf(repEW)
	res.Funcs = repEW.Funcs
	if total := repEW.SummaryHits + repEW.FuncsReanalyzed; total > 0 {
		res.SummaryReuse = float64(repEW.SummaryHits) / float64(total)
	}
	e.logf("  persist edited: %d/%d summaries survived the edit+restart (reuse %.2f)\n",
		repEW.SummaryHits, repEW.Funcs, res.SummaryReuse)
	if repEW.Render != repEC.Render {
		return res, gatef("edited warm-restart reports differ from the edited cold run")
	}
	return res, nil
}
