GO ?= go

# The local entry point mirrors CI's static-analysis gate: formatting,
# the standard vet suite, and no sync/atomic package-level call (shared
# words are typed atomics, which cannot be read plainly and are aligned
# on 32-bit targets). The allocation and scratch-lifetime contracts are
# held by tests; CI's "allocation contracts" and "scratch contracts"
# steps name them.
.PHONY: lint
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	@! git grep -nE 'atomic\.(Add|And|Or|Load|Store|Swap|CompareAndSwap)[A-Z]' -- '*.go'
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; CI runs it pinned"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; CI runs it pinned"; fi

.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test ./...

.PHONY: race
race:
	$(GO) test -race ./...

.PHONY: bench
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench/ is a module of its own, so `go build ./... && go test ./...`
# never compiles it although it imports internal/...; this is the
# check that a refactor did not break the benchmark.
.PHONY: bench-check
bench-check:
	cd bench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# The seeded figure outputs are the refactoring oracle: a change that
# is not meant to alter protocol behaviour must reproduce
# cmd/gossipsim/testdata/seed1/*.txt byte for byte (35-45 s on a
# 2-core box: scale, the n = 10,000 sweep, takes 8-11 s, figure 4, the
# critical-age calibration, 5-8 s, figure 6, which re-runs figure 4,
# about 7 s, recovery 4-6 s, figures 7 and 8 about 1.5 s each, and
# ablations, the one run of the estimator at W ∈ {1, 4}, about 1 s).
# A PR that changes behaviour on purpose regenerates them and says why.
FIGURES ?= 2 4 6 7 8 9 recovery churn scale ablations healthdigest
.PHONY: figures-check
figures-check:
	$(GO) build -o $(CURDIR)/bin/gossipsim ./cmd/gossipsim
	@for f in $(FIGURES); do \
		$(CURDIR)/bin/gossipsim -fast -seed 1 -figure $$f \
			| cmp - cmd/gossipsim/testdata/seed1/$$f.txt || exit 1; \
		echo "figure $$f: byte-identical"; \
	done

# The three line counts ROADMAP.md tracks: non-test Go outside bench/
# (examples and cmd included), test Go outside bench/, and all of
# bench/ (a module of its own). Hidden directories (.git, the bench
# build cache) are skipped.
SRC_GO = find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go'
.PHONY: loc
loc:
	@printf 'non-test Go outside bench/: %s\n' "$$($(SRC_GO) ! -name '*_test.go' -exec cat {} + | wc -l)"
	@printf 'test Go outside bench/:     %s\n' "$$($(SRC_GO) -name '*_test.go' -exec cat {} + | wc -l)"
	@printf 'bench/:                     %s\n' "$$(find bench -name '*.go' -exec cat {} + | wc -l)"

.PHONY: clean
clean:
	rm -rf bin
