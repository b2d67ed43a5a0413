// gossipbench is a module of its own so that the root module's
// `go build ./... && go test ./...` never compiles it: a refactor of
// internal/... cannot be blocked by the benchmark, and the benchmark
// cannot be edited by a change that claims a gain. The module path
// stays under adaptivegossip/ so the traced driver may import
// adaptivegossip/internal/... (Go checks internal visibility by import
// path).
module adaptivegossip/bench

go 1.24

require adaptivegossip v0.0.0

replace adaptivegossip => ../
