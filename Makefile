GO ?= go

.PHONY: check lint build test race vet bench bench-json bench-persist-smoke serve-smoke sessions-smoke fleet-smoke chaos-smoke fuzz-smoke fuzz

## check: the full CI gate — lint (gofmt drift + vet), build, race-enabled
## tests (includes the corpus-wide determinism tests, the fresh-process
## warm-restart tests, and the 16-goroutine fault/budget hammer), vet and
## tests of the separate perfbench module, short fuzzer smokes (including
## the wire and disk decoders), and tiny runs of the serve,
## sessions, fleet, chaos, incremental and persist experiments,
## each of which exits 1 on a broken gate.
check: lint
	$(GO) build ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) fuzz-smoke
	$(MAKE) serve-smoke
	$(MAKE) sessions-smoke
	$(MAKE) fleet-smoke
	$(MAKE) chaos-smoke
	$(GO) run ./cmd/canary-bench -experiment incremental -incr-lines 600 -json > /dev/null
	$(MAKE) bench-persist-smoke

## lint: formatting drift fails the build (gofmt prints the offending
## files), then static vetting, then a fuzz target in the tree that
## FUZZ_SMOKE does not list.
lint:
	@drift=$$(gofmt -l .); if [ -n "$$drift" ]; then \
		echo "gofmt drift in:"; echo "$$drift"; exit 1; fi
	$(GO) vet ./...
	@for f in $$(grep -rlE --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' .); do \
		for t in $$(sed -nE 's/^func (Fuzz[A-Za-z0-9_]*)\(.*/\1/p' $$f); do \
			case " $(FUZZ_SMOKE) " in *" $$(dirname $$f):$$t "*) ;; \
			*) echo "fuzz target $$t in $$f is missing from FUZZ_SMOKE"; exit 1;; esac; \
		done; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## bench: the quick benchmark suite (one bench per paper table/figure).
bench:
	$(GO) test -run - -bench . -benchmem .

## bench-json: regenerate the checked-in benchmark snapshots.
bench-json:
	$(GO) run ./cmd/canary-bench -experiment incremental -json > BENCH_incremental.json
	$(GO) run ./cmd/canary-bench -experiment persist -json > BENCH_persist.json
	$(GO) run ./cmd/canary-bench -experiment fleet -json > BENCH_fleet.json
	$(GO) run ./cmd/canary-bench -experiment chaos -json > BENCH_chaos.json
	$(GO) run ./cmd/canary-bench -experiment sessions -json > BENCH_sessions.json

## bench-persist-smoke: tiny-corpus run of the persist experiment — a real
## fresh-process warm restart that must serve a disk hit, reanalyze no
## function and stay byte-identical to the cold run.
bench-persist-smoke:
	$(GO) run ./cmd/canary-bench -experiment persist -persist-lines 400 -json > /dev/null

## serve-smoke: tiny run of the serve experiment over a canaryd built from
## the tree — /healthz, a cold phase that misses the result store on every
## request, a warm replay cache-served byte-identical, daemon == CLI
## findings, 413 with a JSON error, the /metrics counters and stage
## histograms, 503 + Retry-After then a retried admission under a
## dequeue-stall failpoint, and SIGTERM exit 0.
serve-smoke:
	$(GO) run ./cmd/canary-bench -experiment serve \
		-serve-clients 2 -serve-requests 2 -serve-lines 300 -json > /dev/null

## sessions-smoke: small run of the sessions experiment over a canaryd
## built from the tree — open, 409 duplicate open, a scripted save stream
## whose wire deltas must show no re-run on representation-only saves and
## a partial re-run on semantic ones, a fix edit that resolves the seeded
## bug, 400 and 422 refusals, folds byte-identical to GET findings and to
## a cold library analysis, TTL eviction with its counters, SIGTERM exit 0.
sessions-smoke:
	$(GO) run ./cmd/canary-bench -experiment sessions \
		-sessions-lines 600 -sessions-edits 6 -json > /dev/null

## fleet-smoke: tiny run of the fleet experiment over the real binaries —
## canary-router in front of two gossip-joined canaryd workers built from
## the tree, cold batch all completed and byte-identical to a direct
## library run, warm replay fully cache-served, a burst of identical
## submissions through the router costing its owner one analysis, the
## owner of item 0 SIGKILLed with failover asserted byte-identical and
## the victim suspect or dead in the router's gossip table, and a clean
## router SIGTERM exit (the experiment exits 1 on any broken gate).
fleet-smoke:
	$(GO) run ./cmd/canary-bench -experiment fleet -fleet-nodes 2 -fleet-items 6 -fleet-lines 300 -json > /dev/null

## chaos-smoke: tiny run of the chaos experiment over the real binaries —
## a gossip-joined fleet (canary-router + three canaryd workers, no static
## worker list) driven through SIGKILL, dead-node rejoin, SIGSTOP/SIGCONT
## suspect, a batch posted the instant a worker is SIGSTOPped, and a
## failpoint storm, with every round asserted byte-identical to a direct
## library run, no item lost within one retry (none at all for the batch),
## membership convergence bounded in heartbeats, the healed fleet all up
## in the router's gossip-derived view, and a clean router SIGTERM exit
## (the experiment exits 1 on any broken gate).
chaos-smoke:
	$(GO) run ./cmd/canary-bench -experiment chaos -chaos-items 6 -json > /dev/null

## FUZZ_SMOKE lists every fuzz target in the tree as <package dir>:<name>;
## lint fails when a target is missing from it.
FUZZ_SMOKE = \
	.:FuzzAnalyze \
	.:FuzzLiveSave \
	./internal/lang:FuzzParse \
	./internal/digest:FuzzFrontEnd \
	./internal/digest:FuzzCanonicalSource \
	./internal/api:FuzzParseAnalyzeRequest \
	./internal/api:FuzzParseGossip \
	./internal/api:FuzzParseEditRequest \
	./internal/diskstore:FuzzDecodeEntry \
	./internal/diskstore:FuzzImport \
	./internal/pta:FuzzDecodeSummary

## fuzz-smoke: a short pass of every fuzz target, run by check: the parser,
## the edit path against the whole-program front end, the full pipeline,
## and every wire and disk decoder.
fuzz-smoke:
	@set -e; for t in $(FUZZ_SMOKE); do \
		echo "$(GO) test -run=NONE -fuzz=^$${t#*:}\$$ -fuzztime=5s $${t%%:*}"; \
		$(GO) test -run=NONE -fuzz="^$${t#*:}\$$" -fuzztime=5s "$${t%%:*}"; \
	done

## fuzz: longer exploratory fuzzing of the parser and the full pipeline.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzParse -fuzztime=2m ./internal/lang
	$(GO) test -run=NONE -fuzz=FuzzAnalyze -fuzztime=2m .
