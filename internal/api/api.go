// Package api defines the JSON wire types of the analysis service that
// both tiers of a fleet speak: canaryd (internal/server) serves them, the
// router (internal/fleet) forwards them, and clients of either see the
// same shapes. It is deliberately a leaf package (canary + stdlib only)
// so the daemon and the router can share request reading and decoding,
// option patching, and response envelopes and writing without an import
// cycle. Answers are compact JSON (WriteJSON, WriteJob).
//
// The decoder here is the single request-size governance point past the
// transport cap: ParseAnalyzeRequest bounds the item count of a batch and
// rejects structurally invalid envelopes before any analysis work or
// routing happens, on both tiers.
package api

import (
	"encoding/json"
	"fmt"

	"canary"
)

// MaxBatchItems bounds the item count of one batch /v1/analyze request.
// Hundreds of sources per request is the design point; thousands is a
// client bug or an attack, and is refused before any item is admitted.
const MaxBatchItems = 1024

// AnalyzeRequest is the POST /v1/analyze body, in either of two forms:
// a single submission (Source set, Items empty) or a batch (Items set,
// Source empty). The forms are mutually exclusive.
type AnalyzeRequest struct {
	// Source is the program text in the canary input language. Required
	// in the single form, forbidden in the batch form.
	Source string `json:"source,omitempty"`
	// Async makes the single form return 202 immediately with a job ID to
	// poll at GET /v1/jobs/{id}; the default waits for the verdict inline.
	// Batches are always synchronous.
	Async bool `json:"async,omitempty"`
	// TimeoutMS bounds this job's analysis; 0 (and anything above the
	// server's job-timeout cap) means the cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Options patches the server's base analysis options field by field.
	Options *OptionsPatch `json:"options,omitempty"`
	// Items is the batch form: up to MaxBatchItems independent
	// submissions with per-item results and partial-failure semantics
	// (one failed item never fails its siblings).
	Items []AnalyzeItem `json:"items,omitempty"`
}

// AnalyzeItem is one submission of a batch request.
type AnalyzeItem struct {
	// Source is the program text. Required.
	Source string `json:"source"`
	// TimeoutMS bounds this item's analysis like the single form's field.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Options patches the server's base analysis options for this item.
	Options *OptionsPatch `json:"options,omitempty"`
}

// ParseAnalyzeRequest decodes and validates a /v1/analyze body (already
// read under the transport's byte cap). It enforces the envelope rules —
// exactly one of the two forms, a bounded batch, no empty sources — so
// the daemon and the router refuse the same bodies for the same reasons.
// It never panics on hostile input; allocation is proportional to the
// input size, and the item-count bound caps the fan-out a small body can
// request.
func ParseAnalyzeRequest(data []byte) (*AnalyzeRequest, error) {
	var req AnalyzeRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	if len(req.Items) == 0 {
		if req.Source == "" {
			return nil, fmt.Errorf("missing required field: source")
		}
		return &req, nil
	}
	if req.Source != "" {
		return nil, fmt.Errorf("source and items are mutually exclusive")
	}
	if req.Async {
		return nil, fmt.Errorf("batch requests are always synchronous; async is not supported")
	}
	if len(req.Items) > MaxBatchItems {
		return nil, fmt.Errorf("batch of %d items exceeds the %d-item bound", len(req.Items), MaxBatchItems)
	}
	for i, it := range req.Items {
		if it.Source == "" {
			return nil, fmt.Errorf("item %d: missing required field: source", i)
		}
	}
	return &req, nil
}

// JobResponse is the JSON rendering of a job for /v1/analyze (single
// form), /v1/jobs/{id}, and each element of a batch response.
type JobResponse struct {
	JobID    string          `json:"job_id,omitempty"`
	Status   string          `json:"status"`
	CacheKey string          `json:"cache_key,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	Error    string          `json:"error,omitempty"`
	Elapsed  float64         `json:"elapsed_ms,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// BatchResponse is the body of a batch /v1/analyze response: one entry
// per request item, in request order. The HTTP status is 200 whenever the
// batch itself was well-formed; per-item failures live in the items.
type BatchResponse struct {
	Items []JobResponse `json:"items"`
	// Completed and Failed count the items by terminal state, so clients
	// (and the router's metrics) need not re-scan the slice.
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

// Tally recomputes the Completed/Failed counters from the items.
func (b *BatchResponse) Tally() {
	b.Completed, b.Failed = 0, 0
	for _, it := range b.Items {
		if it.Status == "done" {
			b.Completed++
		} else {
			b.Failed++
		}
	}
}

// Health is the machine-readable GET /healthz?format=json body: enough
// readiness detail for operators and load balancers to see at a glance
// what a node is doing.
type Health struct {
	// Status is "ok" or "draining" (mirrors the plain-text form).
	Status string `json:"status"`
	// NodeID identifies this daemon in a fleet (the listen address unless
	// overridden by -node-id).
	NodeID string `json:"node_id,omitempty"`
	// QueueDepth and QueueCapacity describe the admission queue; equal
	// values mean the node is saturated and new work will be rejected
	// with 503 until the backlog drains.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// Running counts jobs currently inside the analysis pipeline;
	// InFlight counts distinct submission keys admitted but not yet
	// terminal (the single-flight coalescing table).
	Running  int `json:"running"`
	InFlight int `json:"in_flight"`
	// CacheDir is the persistent store's root ("" = memory-only);
	// CacheDirOK reports whether it is present and usable (always true
	// for memory-only nodes).
	CacheDir   string `json:"cache_dir,omitempty"`
	CacheDirOK bool   `json:"cache_dir_ok"`
	// MembersAlive counts the non-dead fleet members this node knows of
	// (itself included); 0 means dynamic membership is not enabled.
	MembersAlive int `json:"members_alive,omitempty"`
}

// OptionsPatch is a partial canary.Options: nil fields keep the base
// configuration. Field names mirror the library options.
type OptionsPatch struct {
	Entry              *string  `json:"entry,omitempty"`
	UnrollDepth        *int     `json:"unroll_depth,omitempty"`
	InlineDepth        *int     `json:"inline_depth,omitempty"`
	EnableMHP          *bool    `json:"enable_mhp,omitempty"`
	GuardCap           *int     `json:"guard_cap,omitempty"`
	Checkers           []string `json:"checkers,omitempty"`
	RequireInterThread *bool    `json:"require_inter_thread,omitempty"`
	LockOrder          *bool    `json:"lock_order,omitempty"`
	CondVarOrder       *bool    `json:"cond_var_order,omitempty"`
	MemoryModel        *string  `json:"memory_model,omitempty"`
	FactPropagation    *bool    `json:"fact_propagation,omitempty"`
	Workers            *int     `json:"workers,omitempty"`
	CubeAndConquer     *bool    `json:"cube_and_conquer,omitempty"`
	MaxConflicts       *int64   `json:"max_conflicts,omitempty"`
	// The step-counted stage budgets (canary.Budgets); exhaustion
	// degrades the result to inconclusive verdicts instead of failing.
	MaxFixpointRounds *int `json:"max_fixpoint_rounds,omitempty"`
	MaxDFSSteps       *int `json:"max_dfs_steps,omitempty"`
	MaxFormulaNodes   *int `json:"max_formula_nodes,omitempty"`
}

// Apply overlays the patch on opt. Both the daemon and the router run
// exactly this function — the router to compute the same SubmissionKey
// the worker will cache under, which is what makes routing, cross-node
// dedup, and the peer cache tier agree on one content address.
func (p *OptionsPatch) Apply(opt canary.Options) canary.Options {
	if p == nil {
		return opt
	}
	if p.Entry != nil {
		opt.Entry = *p.Entry
	}
	if p.UnrollDepth != nil {
		opt.UnrollDepth = *p.UnrollDepth
	}
	if p.InlineDepth != nil {
		opt.InlineDepth = *p.InlineDepth
	}
	if p.EnableMHP != nil {
		opt.EnableMHP = *p.EnableMHP
	}
	if p.GuardCap != nil {
		opt.GuardCap = *p.GuardCap
	}
	if len(p.Checkers) > 0 {
		opt.Checkers = p.Checkers
	}
	if p.RequireInterThread != nil {
		opt.RequireInterThread = *p.RequireInterThread
	}
	if p.LockOrder != nil {
		opt.LockOrder = *p.LockOrder
	}
	if p.CondVarOrder != nil {
		opt.CondVarOrder = *p.CondVarOrder
	}
	if p.MemoryModel != nil {
		opt.MemoryModel = *p.MemoryModel
	}
	if p.FactPropagation != nil {
		opt.FactPropagation = *p.FactPropagation
	}
	if p.Workers != nil {
		opt.Workers = *p.Workers
	}
	if p.CubeAndConquer != nil {
		opt.CubeAndConquer = *p.CubeAndConquer
	}
	if p.MaxConflicts != nil {
		opt.MaxConflicts = *p.MaxConflicts
	}
	if p.MaxFixpointRounds != nil {
		opt.Budgets.MaxFixpointRounds = *p.MaxFixpointRounds
	}
	if p.MaxDFSSteps != nil {
		opt.Budgets.MaxDFSSteps = *p.MaxDFSSteps
	}
	if p.MaxFormulaNodes != nil {
		opt.Budgets.MaxFormulaNodes = *p.MaxFormulaNodes
	}
	return opt
}
