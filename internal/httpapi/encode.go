package httpapi

// encode.go is the pooled response-encoding path. The original handlers
// built a map[string]any per response and streamed it through a fresh
// json.Encoder straight into the ResponseWriter — dozens of allocations and
// several small socket writes per request. Here every response renders into
// a pooled bytes.Buffer through a pooled json.Encoder and reaches the socket
// in one Write; the /api/correct hot path additionally encodes through a
// reusable wire struct and a recycled candidate slice, pinning its
// steady-state encode cost to a fixed allocation ceiling
// (TestCorrectEncodeAllocCeiling).
//
// Byte-compatibility: encoding/json sorts map keys, so the former map-based
// responses emitted fields alphabetically; correctWire declares its fields
// in that same order, making the struct path byte-identical to the map path
// it replaces (the differential and chaos suites decode both identically).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"

	"speakql/internal/core"
)

// maxPooledBufBytes caps the buffer size returned to the pool: a response
// that ballooned past this (a huge /api/execute result) is dropped rather
// than pinning its capacity forever.
const maxPooledBufBytes = 64 << 10

// correctWire is the /api/correct response shape. Field order matches the
// alphabetical key order the former map[string]any encoding produced, so
// responses are byte-identical across the refactor.
type correctWire struct {
	Candidates  []candidateJSON `json:"candidates"`
	DeadlineHit bool            `json:"deadline_hit"`
	Degradation string          `json:"degradation"`
	LiteralMS   int64           `json:"literal_ms"`
	StructureMS int64           `json:"structure_ms"`
	Transcript  []string        `json:"transcript"`
	// Validation reports what the validation stage did ("bind" or
	// "shed"); omitempty keeps -validate=off responses byte-identical
	// to the pre-validation format. "validation" also sorts after
	// "transcript", preserving the alphabetical field order.
	Validation string `json:"validation,omitempty"`
}

// respEncoder is one pooled encoding scratch: a buffer, a json.Encoder bound
// to it for its lifetime, and the /api/correct candidate slice and wire
// struct reused across requests.
type respEncoder struct {
	buf   bytes.Buffer
	enc   *json.Encoder
	cands []candidateJSON
}

var encPool = sync.Pool{New: func() any {
	e := &respEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// getEncoder takes a reset scratch from the pool.
func getEncoder() *respEncoder {
	e := encPool.Get().(*respEncoder)
	e.buf.Reset()
	return e
}

// release returns the scratch to the pool unless its buffer grew past the
// pooling cap.
func (e *respEncoder) release() {
	if e.buf.Cap() > maxPooledBufBytes {
		return
	}
	encPool.Put(e)
}

// encodeCorrect renders one correction output into the scratch buffer,
// exactly as the former map encoding did (trailing newline from
// json.Encoder included). The candidate slice is reused; the buffer holds
// the complete body on return.
func (e *respEncoder) encodeCorrect(out *core.Output, deadlineHit bool) error {
	e.cands = e.cands[:0]
	for _, c := range out.Candidates {
		e.cands = append(e.cands, candidateJSON{
			SQL: c.SQL, Structure: c.Structure, Distance: c.StructureDistance,
			Verdict: c.Verdict, Demoted: c.Demoted,
		})
	}
	wire := correctWire{
		DeadlineHit: deadlineHit,
		Degradation: out.Degradation,
		LiteralMS:   out.LiteralLatency.Milliseconds(),
		StructureMS: out.StructureLatency.Milliseconds(),
		Transcript:  out.Transcript,
		Validation:  out.Validation,
	}
	// Preserve the map path's null-vs-[] distinction: no candidates encoded
	// as "candidates":null.
	if len(e.cands) > 0 {
		wire.Candidates = e.cands
	}
	return e.enc.Encode(&wire)
}

// writeBody sends one fully-rendered JSON body in a single Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}
