// Command gossipnode runs one adaptive gossip broadcast node over UDP —
// the per-workstation process of the paper's prototype deployment.
//
// Example (three nodes on one machine):
//
//	gossipnode -id a -bind 127.0.0.1:9001 -peers b=127.0.0.1:9002,c=127.0.0.1:9003 -rate 2
//	gossipnode -id b -bind 127.0.0.1:9002 -peers a=127.0.0.1:9001,c=127.0.0.1:9003
//	gossipnode -id c -bind 127.0.0.1:9003 -peers a=127.0.0.1:9001,b=127.0.0.1:9002
//
// Each node prints a stats line every reporting interval; nodes with
// -rate > 0 publish synthetic messages at that offered rate.
//
// With -top, gossipnode is instead a one-shot cluster inspector: it
// fetches another node's /debug/gossip/cluster view from its debug
// listener and prints it as a table:
//
//	gossipnode -top http://127.0.0.1:6060
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"text/tabwriter"
	"time"

	"adaptivegossip"
	"adaptivegossip/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gossipnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gossipnode", flag.ContinueOnError)
	var (
		id       = fs.String("id", "", "node identifier (required)")
		bind     = fs.String("bind", "127.0.0.1:0", "UDP listen address")
		peers    = fs.String("peers", "", "comma-separated name=host:port pairs")
		rate     = fs.Float64("rate", 0, "offered publish rate in msg/s (0 = receive only)")
		payload  = fs.Int("payload", 64, "publish payload size in bytes")
		period   = fs.Duration("period", 5*time.Second, "gossip period T")
		buffer   = fs.Int("buffer", 120, "events buffer capacity")
		adaptive = fs.Bool("adaptive", true, "enable the adaptation mechanism")
		report   = fs.Duration("report", 5*time.Second, "stats reporting interval")
		runFor   = fs.Duration("for", 0, "exit after this duration (0 = run until signal)")
		debug    = fs.String("debug-addr", "", "bind the debug HTTP listener (expvar JSON at /debug/vars, Prometheus at /metrics, pprof at /debug/pprof/) on this address (empty = off)")
		traceSim = fs.Float64("trace-sample", 0, "rumor-lifecycle trace sample rate in [0,1] (served at /debug/gossip/traces; 0 = off)")
		healthOn = fs.Bool("health", true, "disseminate health digests on gossip (cluster view at /debug/gossip/cluster)")
		failure  = fs.Bool("failure", false, "enable the SWIM failure detector (also feeds per-peer RTT telemetry)")
		top      = fs.String("top", "", "one-shot mode: fetch and print another node's /debug/gossip/cluster view from this debug-listener base URL, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *top != "" {
		return printClusterTop(os.Stdout, *top)
	}
	if *id == "" {
		return fmt.Errorf("-id is required")
	}

	peerBook := map[string]string{}
	if *peers != "" {
		for _, pair := range strings.Split(*peers, ",") {
			name, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return fmt.Errorf("bad peer %q, want name=host:port", pair)
			}
			peerBook[name] = addr
		}
	}

	cfg := adaptivegossip.DefaultConfig()
	cfg.Period = *period
	cfg.BufferCapacity = *buffer
	cfg.Adaptive = *adaptive
	if *rate > 0 {
		cfg.Adaptation.InitialRate = *rate
		cfg.Adaptation.MaxRate = 4 * *rate
	}
	cfg.Observability.DebugAddr = *debug
	cfg.Observability.TraceSampleRate = *traceSim
	cfg.Observability.HealthDigests = *healthOn
	cfg.Failure.Enabled = *failure

	tr, err := adaptivegossip.NewUDPTransport(adaptivegossip.WithBind(*bind))
	if err != nil {
		return err
	}
	var delivered atomic.Int64
	node, err := adaptivegossip.NewNode(*id, cfg,
		adaptivegossip.WithTransport(tr),
		adaptivegossip.WithPeers(peerBook),
		adaptivegossip.WithDeliver(func(d adaptivegossip.Delivery) {
			delivered.Add(1)
		}))
	if err != nil {
		// NewNode owns tr from WithTransport on: it is closed on failure.
		return err
	}
	defer node.Close()
	if err := node.Start(context.Background()); err != nil {
		return err
	}
	fmt.Printf("node %s listening on %s, %d peers, adaptive=%v\n",
		node.ID(), node.Addr(), len(peerBook), *adaptive)
	if da := node.DebugAddr(); da != "" {
		fmt.Printf("debug listener on http://%s/debug/vars (also /metrics, /debug/pprof/)\n", da)
	}

	var sender *workload.Sender
	if *rate > 0 {
		after := func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
		sender, err = workload.StartSender(after, workload.SenderConfig{
			Rate:        *rate,
			PayloadSize: *payload,
		}, node.Publish, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			return err
		}
		defer sender.Stop()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var deadline <-chan time.Time
	if *runFor > 0 {
		deadline = time.After(*runFor)
	}
	ticker := time.NewTicker(*report)
	defer ticker.Stop()

	for {
		select {
		case <-stop:
			fmt.Println("signal received, shutting down")
			return nil
		case <-deadline:
			return nil
		case <-ticker.C:
			snap := node.Snapshot()
			wire := tr.Stats()
			line := fmt.Sprintf("delivered=%d buffer=%d/%d sent=%dB recv=%dB",
				delivered.Load(), snap.BufferLen, snap.BufferCap, wire.SentBytes, wire.RecvBytes)
			if *adaptive {
				line += fmt.Sprintf(" allowed=%.2f/s minBuff=%d avgAge=%.2f",
					snap.AllowedRate, snap.MinBuff, snap.AvgAge)
			}
			if sender != nil {
				st := sender.Stats()
				line += fmt.Sprintf(" offered=%d admitted=%d", st.Offered, st.Admitted)
			}
			fmt.Println(line)
		}
	}
}

// printClusterTop fetches base's /debug/gossip/cluster view and renders
// it as a table, one row per member the remote node has a digest for.
func printClusterTop(w io.Writer, base string) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimRight(base, "/") + "/debug/gossip/cluster"
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	var view []adaptivegossip.MemberHealth
	if err := json.Unmarshal(body, &view); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tROUND\tSTALE\tPUB\tDLV\tDROP\tBUF\tSENT\tRECV\tHOPS(avg/p99)")
	for _, m := range view {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d/%d\t%d\t%d\t%.1f/%.0f\n",
			m.Node, m.Round, m.StalenessRounds, m.Published, m.Delivered,
			m.DroppedCapacity+m.DroppedExpired, m.BufferLen, m.BufferCap,
			m.MessagesSent, m.MessagesReceived, m.HopsMean, m.HopsP99)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d members\n", len(view))
	return nil
}
