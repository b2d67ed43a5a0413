package gossip

import (
	"reflect"
	"testing"
)

func TestGroupOutgoing(t *testing.T) {
	round := &Message{From: "a", Round: 1}
	pullA := &Message{From: "a", Round: 1, Kind: KindRecoveryRequest}
	pullB := &Message{From: "a", Round: 1, Kind: KindRecoveryRequest}

	cases := []struct {
		name string
		outs []Outgoing
		want []Fanout
	}{
		{name: "empty", outs: nil, want: nil},
		{
			name: "single",
			outs: []Outgoing{{To: "b", Msg: round}},
			want: []Fanout{{Targets: []NodeID{"b"}, Msg: round}},
		},
		{
			name: "round fanout collapses",
			outs: []Outgoing{{To: "b", Msg: round}, {To: "c", Msg: round}, {To: "d", Msg: round}},
			want: []Fanout{{Targets: []NodeID{"b", "c", "d"}, Msg: round}},
		},
		{
			name: "control traffic stays separate",
			outs: []Outgoing{
				{To: "b", Msg: round}, {To: "c", Msg: round},
				{To: "d", Msg: pullA}, {To: "e", Msg: pullB},
			},
			want: []Fanout{
				{Targets: []NodeID{"b", "c"}, Msg: round},
				{Targets: []NodeID{"d"}, Msg: pullA},
				{Targets: []NodeID{"e"}, Msg: pullB},
			},
		},
		{
			name: "grouping is by pointer, not value",
			outs: []Outgoing{{To: "b", Msg: pullA}, {To: "c", Msg: pullB}},
			want: []Fanout{
				{Targets: []NodeID{"b"}, Msg: pullA},
				{Targets: []NodeID{"c"}, Msg: pullB},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, _ := AppendGroupOutgoing(nil, nil, tc.outs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("AppendGroupOutgoing mismatch:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestTickOutgoingsShareOneMessage pins the round-emission contract the
// encode-once wire path depends on: every Outgoing of a Tick points at
// the same Message, so AppendGroupOutgoing collapses the round to one
// Fanout.
func TestTickOutgoingsShareOneMessage(t *testing.T) {
	peers := staticPeers{"a", "b", "c", "d"}
	n := newTestNode(t, "a", peers)
	n.Broadcast([]byte("x"))
	outs := n.Tick()
	if len(outs) != testParams().Fanout {
		t.Fatalf("got %d outgoings, want %d", len(outs), testParams().Fanout)
	}
	fans, _ := AppendGroupOutgoing(nil, nil, outs)
	if len(fans) != 1 {
		t.Fatalf("round emission split into %d fanouts, want 1", len(fans))
	}
	if len(fans[0].Targets) != len(outs) {
		t.Fatalf("fanout lost targets: %d vs %d", len(fans[0].Targets), len(outs))
	}
}
