package gossip

import "testing"

// TestOutboxReusesMessagesAcrossDrains pins the scratch contract: a
// drain returns what was queued since the last one, an empty drain
// returns nil, and from the next message on the same Message values and
// list backing arrays come round again, zeroed.
func TestOutboxReusesMessagesAcrossDrains(t *testing.T) {
	var b Outbox
	if b.Take() != nil {
		t.Fatal("empty outbox drained something")
	}
	first := b.Message()
	first.Kind, first.Probe = KindPing, "x"
	first.Updates = append(first.Updates, MemberUpdate{Node: "m"})
	b.Queue("p", first)
	second := b.Message()
	second.Request = append(second.Request, EventID{Origin: "o", Seq: 1})
	b.Queue("q", second)
	if first == second {
		t.Fatal("two messages of one drain share a Message")
	}
	outs := b.Take()
	if len(outs) != 2 || outs[0].To != "p" || outs[0].Msg != first || outs[1].To != "q" || outs[1].Msg != second {
		t.Fatalf("drain returned %+v", outs)
	}
	if b.Take() != nil {
		t.Fatal("a drained outbox drained again")
	}

	again := b.Message()
	if again != first {
		t.Fatal("the first message after a drain is not the first message reused")
	}
	if again.Kind != KindGossip || again.Probe != "" || len(again.Updates) != 0 || cap(again.Updates) == 0 {
		t.Fatalf("reused message not reset, or its list lost its array: %+v (cap %d)", again, cap(again.Updates))
	}
	allocs := testing.AllocsPerRun(100, func() {
		m := b.Message()
		m.Updates = append(m.Updates, MemberUpdate{Node: "m"})
		b.Queue("p", m)
		b.Queue("q", b.Message())
		b.Take()
	})
	if allocs != 0 {
		t.Fatalf("a steady-state drain cycle allocates %v times, want 0", allocs)
	}
}
