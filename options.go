package adaptivegossip

import "fmt"

// Delivery is one delivered broadcast, as observed by both the
// WithDeliver callback and the Events stream.
type Delivery struct {
	// Node is the group member that delivered the event.
	Node NodeID
	// Event is the delivered broadcast.
	Event Event
}

// DeliverFunc observes deliveries. It is invoked under the delivering
// member's lock: calls for one member are serialized with that member's
// protocol processing (never concurrent with each other), while
// different members' callbacks may run concurrently. Callbacks must be
// fast and must not block — for a pull-based consumer use the Events
// stream instead. In particular a callback must not call back into the
// member it runs on: Publish, Stats, Snapshot, SetBufferCapacity and
// ClusterHealth wait for that member's lock, held by the goroutine
// running the callback, and never return; Stats and
// ClusterHealth of a Cluster visit every member, so no callback may call
// them. Hand such work to another goroutine.
//
// Event.Payload is shared and read-only: the same bytes sit in the
// member's buffer and recovery store and reach every callback and
// Events subscriber. A received payload pins the ≤ 4 KiB chunk it was
// copied into; copy it to keep it long-term.
type DeliverFunc func(d Delivery)

// MemberChangeFunc observes failure-detector transitions (requires
// Config.Failure.Enabled): suspect when probes go unanswered, confirmed
// when a member is declared crashed (it is evicted from the observer's
// gossip targets automatically), alive when a member refutes or rejoins
// (it is re-admitted). Like DeliverFunc it runs under the observing
// member's lock and must be fast.
type MemberChangeFunc func(node, peer NodeID, status MemberStatus)

// facadeKind names the constructor applying an option, so options can
// reject facades they do not apply to instead of being silently
// ignored.
type facadeKind int

const (
	facadeNode facadeKind = iota
	facadeCluster
)

func (k facadeKind) String() string {
	if k == facadeNode {
		return "NewNode"
	}
	return "NewCluster"
}

// noun names the facade's group in lifecycle errors.
func (k facadeKind) noun() string {
	if k == facadeNode {
		return "node"
	}
	return "cluster"
}

// groupOptions is the option state shared by both facades.
type groupOptions struct {
	kind     facadeKind
	seed     int64
	deliver  DeliverFunc
	onMember MemberChangeFunc
	fabric   *UDPTransport
	prefix   string
	peers    map[string]string
}

// Option configures a group constructor. The same option set serves
// NewNode and NewCluster; an option that makes no sense for a facade
// (WithPeers on NewCluster, WithNamePrefix on NewNode) returns a
// construction error.
type Option func(*groupOptions) error

// WithSeed fixes the group's protocol randomness (gossip target
// selection, adaptation jitter, tick phases) for reproducible runs.
// Zero — and, for NewNode, an omitted option — derives a seed from the
// member name.
func WithSeed(seed int64) Option {
	return func(o *groupOptions) error {
		o.seed = seed
		return nil
	}
}

// WithDeliver observes every delivery in the group through fn. See
// DeliverFunc for the threading contract. An Events stream observes
// the same delivery feed from the moment it subscribes.
func WithDeliver(fn DeliverFunc) Option {
	return func(o *groupOptions) error {
		o.deliver = fn
		return nil
	}
}

// WithTransport hands the group a UDP fabric built with
// NewUDPTransport. The group takes ownership immediately: the fabric is
// closed on Close and also when the constructor fails. Default: a
// loopback UDP fabric.
func WithTransport(tr *UDPTransport) Option {
	return func(o *groupOptions) error {
		if tr == nil {
			return fmt.Errorf("adaptivegossip: transport must not be nil")
		}
		o.fabric = tr
		return nil
	}
}

// WithOnMemberChange observes failure-detector transitions. Requires
// Config.Failure.Enabled.
func WithOnMemberChange(fn MemberChangeFunc) Option {
	return func(o *groupOptions) error {
		o.onMember = fn
		return nil
	}
}

// WithNamePrefix sets the generated member-name prefix of a cluster
// (default "node-"). Not available on NewNode, whose name is explicit.
func WithNamePrefix(prefix string) Option {
	return func(o *groupOptions) error {
		if o.kind == facadeNode {
			return fmt.Errorf("adaptivegossip: WithNamePrefix does not apply to %s", o.kind)
		}
		if prefix == "" {
			return fmt.Errorf("adaptivegossip: name prefix must not be empty")
		}
		o.prefix = prefix
		return nil
	}
}

// WithPeers seeds a NewNode's address book with known members
// (name → wire address). Peers can also be added later with
// Node.AddPeer.
func WithPeers(peers map[string]string) Option {
	return func(o *groupOptions) error {
		if o.kind != facadeNode {
			return fmt.Errorf("adaptivegossip: WithPeers does not apply to %s", o.kind)
		}
		o.peers = peers
		return nil
	}
}

// applyOptions folds opts over the facade's defaults. Every option is
// applied even after an error, so a transport handed over via
// WithTransport is always recorded in the result — constructors close
// it on any failure path, keeping ownership unambiguous.
func applyOptions(kind facadeKind, defaults groupOptions, opts []Option) (groupOptions, error) {
	o := defaults
	o.kind = kind
	var first error
	for _, opt := range opts {
		if err := opt(&o); err != nil && first == nil {
			first = err
		}
	}
	return o, first
}
