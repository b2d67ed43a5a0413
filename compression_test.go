package adaptivegossip

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestTransportConfigValidate(t *testing.T) {
	for _, name := range []string{"", "none", "flate"} {
		if err := (TransportConfig{Compression: name}).Validate(); err != nil {
			t.Fatalf("compression %q rejected: %v", name, err)
		}
	}
	if err := (TransportConfig{Compression: "zstd"}).Validate(); err == nil {
		t.Fatal("unknown compressor name accepted")
	}
	bad := DefaultConfig()
	bad.Transport.Compression = "zstd"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Config.Transport") {
		t.Fatalf("Config.Validate did not surface the transport sub-config: %v", err)
	}
}

// TestWithCompressionOption: Config.Transport.Compression is the one way
// to pick a compressor. Unknown names are refused; a handed-in UDP
// fabric and the default one both take flate.
func TestWithCompressionOption(t *testing.T) {
	cfg := fastConfig()
	cfg.Transport.Compression = "bogus"
	if _, err := NewCluster(3, cfg); err == nil {
		t.Fatal("unknown compressor name accepted by Config.Transport.Compression")
	}
	cfg.Transport.Compression = "flate"
	udp, err := NewUDPTransport()
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("x", cfg, WithTransport(udp))
	if err != nil {
		t.Fatalf("UDP fabric rejected flate: %v", err)
	}
	node.Close()
	cluster, err := NewCluster(3, cfg)
	if err != nil {
		t.Fatalf("default fabric rejected flate: %v", err)
	}
	cluster.Close()
}

// TestClusterCompressionOverUDP runs a real cluster with
// Config.Transport.Compression="flate" over loopback UDP: gossip still
// disseminates, and the wire counters show the event sections shrinking
// (post-compression bytes strictly below pre-compression bytes).
func TestClusterCompressionOverUDP(t *testing.T) {
	fabric, err := NewUDPTransport(WithTransportSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Transport.Compression = "flate"
	var delivered atomic.Int64
	cluster, err := NewCluster(4, cfg,
		WithSeed(5),
		WithTransport(fabric),
		WithDeliver(func(d Delivery) { delivered.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Highly compressible payload: the flate arm must pay off.
	payload := bytes.Repeat([]byte("adaptive gossip "), 40)
	if !cluster.Publish(0, payload) {
		t.Fatal("publish rejected")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && delivered.Load() < 4 {
		time.Sleep(10 * time.Millisecond)
	}
	if delivered.Load() < 4 {
		t.Fatalf("only %d/4 nodes delivered over compressed UDP", delivered.Load())
	}
	st := cluster.Stats()
	if st.Wire.PreCompressionBytes == 0 {
		t.Fatal("pre-compression byte counter never moved")
	}
	if st.Wire.PostCompressionBytes >= st.Wire.PreCompressionBytes {
		t.Fatalf("compression never paid: pre=%d post=%d",
			st.Wire.PreCompressionBytes, st.Wire.PostCompressionBytes)
	}
}
