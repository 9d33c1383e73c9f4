package stream

import (
	"sync"

	"speakql/internal/obs"
)

// Event is one streaming snapshot, shaped for direct JSON encoding onto an
// SSE feed: what the display needs to grow the corrected query in place.
type Event struct {
	// Session identifies the dictation on multiplexed feeds.
	Session string `json:"session,omitempty"`
	// Kind is "fragment" or "finalized".
	Kind string `json:"kind"`
	// Seq is the fragment sequence number the snapshot corresponds to.
	Seq int `json:"seq,omitempty"`
	// Transcript is the raw accumulated dictation.
	Transcript string `json:"transcript,omitempty"`
	// SQL is the best candidate's rendered query.
	SQL string `json:"sql,omitempty"`
	// Degradation is the ladder level the snapshot was served at.
	Degradation string `json:"degradation,omitempty"`
	// Pending lists placeholders whose literals may still change.
	Pending []string `json:"pending,omitempty"`
	// StablePrefixLen counts leading best-candidate tokens that are settled.
	StablePrefixLen int `json:"stable_prefix_len,omitempty"`
}

// subscriberBuffer is each subscriber's channel capacity. A subscriber more
// than this many events behind starts losing them — by design: the feed
// carries snapshots, not a log, and the next event supersedes the lost one.
const subscriberBuffer = 16

// Broadcaster fans events out to any number of subscribers without ever
// blocking the publisher: a subscriber whose buffer is full simply misses
// events (counted under stream.events_dropped). Safe for concurrent use.
type Broadcaster struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	closed bool
}

// NewBroadcaster creates an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[*Subscriber]struct{})}
}

// Subscriber is one listener on a broadcaster's feed. Receive from Events
// until it closes (broadcaster closed) or Cancel.
type Subscriber struct {
	b  *Broadcaster
	ch chan Event
}

// Events is the subscriber's feed. The channel closes when the broadcaster
// closes or the subscription is cancelled.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Cancel detaches the subscriber and closes its channel. Idempotent; safe
// to race with Publish and Close.
func (s *Subscriber) Cancel() {
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if _, ok := s.b.subs[s]; !ok {
		return
	}
	delete(s.b.subs, s)
	close(s.ch)
}

// Subscribe attaches a new subscriber. Subscribing to a closed broadcaster
// returns a subscriber whose channel is already closed, so SSE handlers
// racing a server shutdown terminate cleanly instead of erroring.
func (b *Broadcaster) Subscribe() *Subscriber {
	s := &Subscriber{b: b, ch: make(chan Event, subscriberBuffer)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Publish delivers ev to every subscriber that has buffer room and drops it
// for the rest. Never blocks; a no-op after Close.
func (b *Broadcaster) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			obs.Add("stream.events_dropped", 1)
		}
	}
}

// Close terminates the feed: every subscriber's channel closes, and future
// Publish calls are no-ops. Idempotent.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
	}
}

// Subscribers reports the current subscriber count (stats and tests).
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
