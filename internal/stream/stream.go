// Package stream fans clause-streaming dictation snapshots out to
// subscribers: internal/session publishes one Event per corrected fragment
// and one per finalize on the Broadcaster its Config names, and the HTTP
// layer (internal/httpapi) serves each session's feed as the SSE stream
// GET /api/stream/events.
package stream

// Config names where a session publishes its dictation events.
type Config struct {
	// Events, when non-nil, receives one event per fragment and finalize.
	// Publishing never blocks: slow subscribers drop events
	// (stream.events_dropped) rather than wedging the dictation.
	Events *Broadcaster
	// Session labels this dictation's events so one broadcaster can serve
	// multiplexed feeds.
	Session string
}
