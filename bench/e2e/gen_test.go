package e2e

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"testing"
	"time"
)

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	w, err := ByName("udp_steady")
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(w, 7, time.Second)
	b := Generate(w, 7, time.Second)
	c := Generate(w, 8, time.Second)
	if len(a.Events) == 0 || len(a.Events) != len(b.Events) {
		t.Fatalf("same seed gave %d and %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		x, y := a.Events[i], b.Events[i]
		if x.Due != y.Due || x.Member != y.Member || !bytes.Equal(x.Payload, y.Payload) {
			t.Fatalf("event %d differs between two generations from seed 7", i)
		}
	}
	same := len(a.Events) == len(c.Events)
	for i := 0; same && i < len(a.Events); i++ {
		same = bytes.Equal(a.Events[i].Payload, c.Events[i].Payload)
	}
	if same {
		t.Error("seeds 7 and 8 generated the same schedule")
	}
}

func TestScheduleShape(t *testing.T) {
	w, _ := ByName("udp_overload")
	s := Generate(w, 1, 2*time.Second)
	total := (w.Warmup + 2*time.Second).Seconds()
	want := w.OfferedRate * total
	if got := float64(len(s.Events)); got < 0.9*want || got > 1.1*want {
		t.Errorf("%v events over %.0f s at %.0f/s, want about %.0f", got, total, w.OfferedRate, want)
	}
	var last time.Duration
	for i, ev := range s.Events {
		if ev.Due < last {
			t.Fatalf("event %d is due before its predecessor", i)
		}
		last = ev.Due
		if ev.Member < 0 || ev.Member >= w.N {
			t.Fatalf("event %d names member %d of %d", i, ev.Member, w.N)
		}
		if len(ev.Payload) != w.PayloadBytes {
			t.Fatalf("event %d has %d payload bytes, want %d", i, len(ev.Payload), w.PayloadBytes)
		}
		if got := binary.BigEndian.Uint64(ev.Payload[:8]); got != uint64(i) {
			t.Fatalf("event %d carries number %d", i, got)
		}
		if !payloadOK(ev.Payload) {
			t.Fatalf("event %d fails its own checksum", i)
		}
	}
}

// Payload text must cost flate what real text would: a frame of 120
// events has to shrink between two- and fourfold. Zero-filled payloads
// shrink 18x and would misstate compression's price and its saving.
func TestPayloadsCompressLikeText(t *testing.T) {
	for _, name := range []string{"udp_steady", "udp_full"} {
		w, _ := ByName(name)
		s := Generate(w, 3, time.Second)
		var frame bytes.Buffer
		for _, ev := range s.Events[:120] {
			frame.Write(ev.Payload)
		}
		var out bytes.Buffer
		fw, err := flate.NewWriter(&out, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(frame.Bytes())
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		ratio := float64(frame.Len()) / float64(out.Len())
		if ratio < 2 || ratio > 4 {
			t.Errorf("%s: a 120-event frame deflates %.2fx, want within [2, 4]", name, ratio)
		}
	}
}
