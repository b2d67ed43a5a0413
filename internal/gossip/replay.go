package gossip

import "math/bits"

// replayFirst is how many windows a replay set makes room for at its
// first origin, with replayFirstWords words for their rings: the
// paper's group of 60 fits, rings of up to two words with the garbage
// their growth leaves, so a member of it allocates its windows in four
// slabs, 6.4 KB, whatever its capacity.
const (
	replayFirst      = 64
	replayFirstWords = 4 * replayFirst
)

// Verdicts of replay.add.
const (
	idNew   = iota // first sight: deliver it
	idSeen         // accepted before
	idStale        // below its origin's floor
)

// Bits of window.meta under the region's offset.
const (
	metaShift   = 0x1f // log2 of the ring's words
	metaFloored = 0x20 // the seqs below the ring are stale, not unseen
	metaOff     = 6    // the offset sits above these bits
	metaFree    = 0x1f // a shift no ring has: the window is free
)

// maxReplayWords is the largest word slab a meta can address.
const maxReplayWords = 1 << (32 - metaOff)

// replay is Figure 1's eventIds as per-origin replay windows, the
// anti-replay window of IPsec ESP (RFC 4303 §3.4.3). Each origin's
// window has a ring of 64-bit words, word x (the seqs x·64 … x·64+63)
// at slot x mod the ring's size: the ring covers the words lo …
// lo+size-1, one bit per seq. Seqs under the ring count as seen once
// the window has a floor (it has moved past a run), and as unseen
// before that, when the ring reaches down for them. add and contains
// are one probe of an idTable keyed by the origin hash Receive already
// has, and a bit test in the ring.
//
// The horizon H is derived, not set: H = 2·(MaxAge+1) rounds. A copy
// of an event is forwarded only from a buffer, at a round, with an age
// at most MaxAge, and every holder adds one to the age of what it
// holds at each of its rounds. Each hop adds at least one and passes at
// most two periods (in flight for under one, then waiting for the
// holder's next round), and a held copy gains an age per period, so a
// copy arriving more than 2·MaxAge periods after its birth would be
// older than MaxAge, and no copy is. Let s be a seq a window holds,
// first seen at round r: every seq of its origin under s was born
// before s, and so before r. Once the node is H rounds past r, more
// than 2·MaxAge+1 periods have passed since each of those births, and
// no copy of them can still arrive. So the floor may move up to s — the
// words under a word whose first id is H rounds old are dropped from
// the ring — and once a window's newest id is H rounds old, a pushed id
// it would refuse can only be a new event of a restarted origin: the
// window is reset and the id accepted, so an origin restarting at seq 0
// is heard again. Recovery re-offers copies from stores that outlive H;
// those never reset a window, and contains keeps answering from it.
//
// The floor moves lazily: only when a seq lands above the ring. A ring
// that cannot make room that way doubles, up to maxSpan words; past
// that the floor is forced up, and what falls under it is refused as
// stale. The windows are bounded by the capacity: at most capacity of
// them, the least recently active forgotten to make room for a new
// origin. Every window, its links, its table slot and one word cost at
// most 72 bytes; the rings' words beyond the first are bounded by
// 2·maxSpan. Windows and words live in slabs that grow by doubling;
// nothing is allocated per origin or per id.
//
// replay is not safe for concurrent use.
type replay struct {
	horizon  uint32 // H, in rounds
	maxWins  int    // windows at most: the capacity
	maxSpan  uint64 // a ring's words at most, a power of two
	maxWords int    // the word slab's length at most

	wins  []window
	links []links // links[i] places wins[i] in the list
	index idTable // finds a window by its origin's hash
	head  uint32  // index+1 of the most recently active window, 0 for none
	tail  uint32  // index+1 of the least recently active window
	free  uint32  // index+1 of the first free window, chained by next
	count int     // the windows in use

	words  []uint64 // the rings, back to back
	stamps []uint32 // stamps[p]: the round words[p] got its first bit
	top    int      // words[:top] hold rings or garbage
	live   int      // words the windows' rings hold

	restarts uint64 // idle windows reset by a pushed id they held
}

// window is one origin's replay window: 32 bytes, so a lookup reads
// one cache line of it.
type window struct {
	name   NodeID
	lo     uint64 // the lowest word the ring covers
	meta   uint32 // off<<metaOff | metaFloored | shift: the ring is words[off:off+1<<shift]
	newest uint32 // the round of the window's last new id
}

// links places a window in the list of windows ordered by newest, most
// recent first, apart from the windows so that a lookup does not read
// them. A free window's next chains the free list.
type links struct {
	prev uint32 // index+1 of the next more recently active window
	next uint32 // index+1 of the next less recently active window
}

// newReplay returns an empty replay set for capacity ids and events of
// at most maxAge.
func newReplay(capacity, maxAge int) *replay {
	span := uint64(1)
	for span*64 < uint64(capacity) {
		span <<= 1
	}
	wins := min(capacity, maxReplayWords-2*int(span))
	return &replay{
		horizon:  uint32(2 * (maxAge + 1)),
		maxWins:  wins,
		maxSpan:  span,
		maxWords: wins + 2*int(span),
	}
}

// ring returns the offset and mask of w's ring.
func (w *window) ring() (int, uint64) {
	return int(w.meta >> metaOff), uint64(1)<<(w.meta&metaShift) - 1
}

// find returns the window of origin, whose hash is oh, or -1.
func (r *replay) find(origin NodeID, oh uint64) int {
	if len(r.wins) == 0 {
		return -1 // there may be no table yet
	}
	h := uint32(oh)
	for i, s := r.index.next(h&r.index.mask, h); i >= 0; i, s = r.index.next(s, h) {
		if r.wins[i].name == origin {
			return i
		}
	}
	return -1
}

// contains reports whether id, whose origin hashes to oh, counts as
// seen: accepted, or under its origin's floor.
func (r *replay) contains(id EventID, oh uint64) bool {
	i := r.find(id.Origin, oh)
	if i < 0 {
		return false
	}
	w := &r.wins[i]
	x := id.Seq >> 6
	if x < w.lo {
		return w.meta&metaFloored != 0
	}
	off, mask := w.ring()
	return x-w.lo <= mask && r.words[off+int(x&mask)]&(1<<(id.Seq&63)) != 0
}

// appendWatermarks appends to dst the (origin, highest accepted seq) of
// at most k windows, the most recently active first. A window always
// holds an id: one opens it, and a floor moves up only to a word that
// holds one.
func (r *replay) appendWatermarks(dst []EventID, k int) []EventID {
	for i := int(r.head) - 1; i >= 0 && k > 0; i, k = int(r.links[i].next)-1, k-1 {
		w := &r.wins[i]
		off, mask := w.ring()
		x := r.highest(w)
		dst = append(dst, EventID{Origin: w.name, Seq: x<<6 | uint64(bits.Len64(r.words[off+int(x&mask)])-1)})
	}
	return dst
}

// appendUnseen appends to dst, ascending, at most k seqs under below
// that the window of origin, whose hash is oh, has neither accepted nor
// floored, from its ring's first word up: where the member began to
// hear the origin. An origin without a window is taken as one opened
// at below-1, which lacks the seqs of its word under below.
func (r *replay) appendUnseen(dst []EventID, origin NodeID, oh uint64, below uint64, k int) []EventID {
	if below == 0 {
		return dst
	}
	last := (below - 1) >> 6
	lo, off, mask := last, 0, uint64(0)
	ring := false
	if i := r.find(origin, oh); i >= 0 {
		w := &r.wins[i]
		lo, ring = w.lo, true
		off, mask = w.ring()
	}
	for x := lo; x <= last && k > 0; x++ {
		free := ^uint64(0) // a word above the ring holds no id
		if ring && x-lo <= mask {
			free = ^r.words[off+int(x&mask)]
		}
		if x == last {
			free &= ^uint64(0) >> (63 - (below-1)&63)
		}
		for ; free != 0 && k > 0; free &= free - 1 {
			dst = append(dst, EventID{Origin: origin, Seq: x<<6 | uint64(bits.TrailingZeros64(free))})
			k--
		}
	}
	return dst
}

// add enters id, whose origin hashes to oh, at round now and returns
// its verdict: idNew the first time, idSeen after, idStale for an id
// under its origin's floor. pushed says the copy came by gossip, from a
// buffer: a pushed id that an idle window would refuse resets the
// window, as its origin restarted.
func (r *replay) add(id EventID, oh uint64, now uint32, pushed bool) int {
	i := r.find(id.Origin, oh)
	if i < 0 {
		i = r.open(id.Origin, oh, id.Seq>>6, now)
	}
	v := r.enter(i, id.Seq, now)
	if v != idNew && pushed && now-r.wins[i].newest >= r.horizon {
		r.restarts++
		r.clear(i, id.Seq>>6)
		v = r.enter(i, id.Seq, now)
	}
	return v
}

// enter enters seq at round now in window i and returns its verdict.
func (r *replay) enter(i int, seq uint64, now uint32) int {
	w := &r.wins[i]
	x := seq >> 6
	off, mask := w.ring()
	if x-w.lo > mask {
		if !r.reach(i, x, now) {
			return idStale
		}
		off, mask = w.ring()
	}
	p := off + int(x&mask)
	bit := uint64(1) << (seq & 63)
	b := r.words[p]
	if b&bit != 0 {
		return idSeen
	}
	if b == 0 {
		r.stamps[p] = now // the word's first id
	}
	r.words[p] = b | bit
	if w.newest != now {
		r.touch(i, now)
	}
	return idNew
}

// reach makes window i's ring cover word x, which it does not, and
// reports whether it could: a word under a floored ring cannot be.
func (r *replay) reach(i int, x uint64, now uint32) bool {
	w := &r.wins[i]
	_, mask := w.ring()
	if x < w.lo {
		if w.meta&metaFloored != 0 {
			return false
		}
		// A window without a floor reaches down for an id that arrived
		// late. The slots of the words under lo hold words above the
		// highest it has, which are empty.
		span := r.highest(w) - x + 1
		if span > r.maxSpan {
			w.meta |= metaFloored // the bound: the floor is forced at lo
			return false
		}
		if span > mask+1 {
			r.resize(i, span)
		}
		r.wins[i].lo = x
		return true
	}
	r.advance(w, now)
	if x-w.lo <= mask {
		return true
	}
	if mask+1 < r.maxSpan {
		r.resize(i, min(x-w.lo+1, r.maxSpan))
		w = &r.wins[i]
		if _, mask = w.ring(); x-w.lo <= mask {
			return true
		}
	}
	// The bound: force the floor up.
	r.drop(w, x-mask)
	return true
}

// highest returns the highest word w's ring holds an id of, lo if none.
func (r *replay) highest(w *window) uint64 {
	off, mask := w.ring()
	for x := w.lo + mask; x > w.lo; x-- {
		if r.words[off+int(x&mask)] != 0 {
			return x
		}
	}
	return w.lo
}

// advance moves w's floor up to the highest word whose first id was
// seen H rounds or more before now, if any.
func (r *replay) advance(w *window, now uint32) {
	off, mask := w.ring()
	for x := w.lo + mask; x > w.lo; x-- {
		if p := off + int(x&mask); r.words[p] != 0 && now-r.stamps[p] >= r.horizon {
			r.drop(w, x)
			return
		}
	}
}

// drop moves w's floor up to word x, above lo, clearing the words it
// passes.
func (r *replay) drop(w *window, x uint64) {
	off, mask := w.ring()
	for y := w.lo; y < x && y <= w.lo+mask; y++ {
		r.words[off+int(y&mask)] = 0
	}
	w.lo = x
	w.meta |= metaFloored
}

// resize gives window i a ring of the smallest power of two of words
// that is span or more, keeping the words it holds.
func (r *replay) resize(i int, span uint64) {
	shift := r.wins[i].meta & metaShift
	for uint64(1)<<shift < span {
		shift++
	}
	off := r.alloc(1<<shift, i)
	w := &r.wins[i]
	from, mask := w.ring()
	for x := w.lo; x <= w.lo+mask; x++ {
		p, q := from+int(x&mask), off+int(x&(1<<shift-1))
		r.words[q], r.stamps[q] = r.words[p], r.stamps[p]
	}
	r.live -= int(mask + 1)
	w.meta = uint32(off)<<metaOff | w.meta&metaFloored | shift
}

// open returns a window for origin, whose hash is oh, with an empty
// ring at word x: the least recently active window if the windows are
// at their bound, else a free or a new one.
func (r *replay) open(origin NodeID, oh uint64, x uint64, now uint32) int {
	i := int(r.tail) - 1
	if r.count == r.maxWins {
		r.unlink(i)
		r.index.unlink(i)
		r.clear(i, x)
	} else {
		if r.free != 0 {
			i = int(r.free) - 1
			r.free = r.links[i].next
		} else {
			if len(r.wins) == cap(r.wins) {
				r.grow()
			}
			i = len(r.wins)
			r.wins = append(r.wins, window{meta: metaFree})
			r.links = r.links[:i+1]
		}
		r.wins[i] = window{lo: x, meta: uint32(r.alloc(1, i)) << metaOff}
		r.count++
	}
	w := &r.wins[i]
	w.name, w.newest = origin, now
	r.index.link(i, uint32(oh))
	r.pushHead(i)
	return i
}

// clear empties window i's ring and floor and moves it to word x.
func (r *replay) clear(i int, x uint64) {
	w := &r.wins[i]
	off, mask := w.ring()
	clear(r.words[off : off+int(mask)+1])
	w.lo = x
	w.meta &^= metaFloored
}

// touch makes window i the most recently active, at round now.
func (r *replay) touch(i int, now uint32) {
	r.wins[i].newest = now
	r.unlink(i)
	r.pushHead(i)
}

// pushHead puts window i, in no list, at the head of the list.
func (r *replay) pushHead(i int) {
	r.links[i] = links{next: r.head}
	if r.head != 0 {
		r.links[r.head-1].prev = uint32(i) + 1
	} else {
		r.tail = uint32(i) + 1
	}
	r.head = uint32(i) + 1
}

// unlink takes window i out of the list.
func (r *replay) unlink(i int) {
	l := r.links[i]
	if l.prev != 0 {
		r.links[l.prev-1].next = l.next
	} else {
		r.head = l.next
	}
	if l.next != 0 {
		r.links[l.next-1].prev = l.prev
	} else {
		r.tail = l.prev
	}
}

// forget frees window i: out of the list and the table, its ring's
// words left for the next packing to drop, its slot on the free list.
func (r *replay) forget(i int) {
	_, mask := r.wins[i].ring()
	r.live -= int(mask + 1)
	r.unlink(i)
	r.index.unlink(i)
	r.wins[i], r.links[i] = window{meta: metaFree}, links{next: r.free}
	r.free = uint32(i) + 1
	r.count--
}

// grow makes room for more windows: replayFirst at the first, then
// twice as many, never more than maxWins. Windows keep their indices.
func (r *replay) grow() {
	n := min(r.maxWins, max(replayFirst, 2*cap(r.wins)))
	wins, l := make([]window, len(r.wins), n), make([]links, len(r.wins), n)
	copy(wins, r.wins)
	copy(l, r.links)
	r.wins, r.links = wins, l
	r.index.resize(n, 2)
	for i := range r.wins {
		if r.wins[i].meta&metaShift != metaFree {
			r.index.link(i, r.index.hashes[i])
		}
	}
}

// alloc returns the offset of k zeroed words for window i's ring. The
// words come off the slab's top. When the top reaches the end, the
// rings are packed into a slab of twice the words they hold, never more
// than maxWords, and the least recently active windows but i are
// forgotten first if even that is too few.
func (r *replay) alloc(k, i int) int {
	if r.top+k > len(r.words) {
		for r.live+k > r.maxWords {
			j := int(r.tail) - 1
			if j == i {
				j = int(r.links[j].prev) - 1
			}
			r.forget(j)
		}
		n := min(max(replayFirstWords, len(r.words)), r.maxWords)
		for n < 2*(r.live+k) && n < r.maxWords {
			n *= 2
		}
		n = min(n, r.maxWords)
		words, stamps := make([]uint64, n), make([]uint32, n)
		top := 0
		for j := range r.wins {
			w := &r.wins[j]
			if w.meta&metaShift == metaFree {
				continue
			}
			off, mask := w.ring()
			copy(words[top:], r.words[off:off+int(mask)+1])
			copy(stamps[top:], r.stamps[off:off+int(mask)+1])
			w.meta = uint32(top)<<metaOff | w.meta&(metaFloored|metaShift)
			top += int(mask) + 1
		}
		r.words, r.stamps, r.top = words, stamps, top
	}
	off := r.top
	r.top += k
	r.live += k
	return off
}
