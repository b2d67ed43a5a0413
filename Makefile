GO ?= go

# The local entry point mirrors CI's static-analysis gate: formatting,
# the standard vet suite, and gossiplint (the project's own analyzers
# for the hot-path, scratch-lifetime, atomics and transport-copy
# contracts) in both standalone and go vet -vettool modes.
.PHONY: lint
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/gossiplint ./...
	$(GO) build -o $(CURDIR)/bin/gossiplint ./cmd/gossiplint
	$(GO) vet -vettool=$(CURDIR)/bin/gossiplint ./...
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

.PHONY: clean
clean:
	rm -rf bin
