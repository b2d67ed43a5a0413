package traced

import (
	"time"

	"adaptivegossip/internal/runtime"
)

// runner is the real-time driver the cluster facade puts under every
// member: a goroutine fed by a ticker, an inbox and a command queue.
type runner = runtime.Runner

func newRunner(n *node, tr *stubTransport, period time.Duration) (*runner, error) {
	return runtime.NewRunner(runtime.Config{Node: n, Transport: tr, Period: period})
}

func inboxDropped(r *runner) uint64 { return r.Stats().InboxDropped }
