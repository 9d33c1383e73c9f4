package session

import (
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds DecodeSnapshot arbitrary bytes — snapshots come
// from a store directory shared by every replica, so they are outside
// input. Decoding must never panic, and any snapshot it accepts must
// survive an encode→decode round trip unchanged.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"id":"r1-s1"}`,
		`{"v":1,"id":"r1-s1","tenant":"yelp","tokens":["SELECT","Salary"],"events":[{"kind":"dictate-full","detail":"x","touches":2}]}`,
		`{"v":1,"id":"r1-s2","stream":{"phase":"streaming","fragments":["select salary","from employees"],"seq":2}}`,
		`{"v":1,"id":"r1-s3","stream":{"phase":"finalized","fragments":["select salary"],"seq":1}}`,
		`{"v":1,"id":"r1-s4","stream":{"phase":"closed"}}`,
		`{"v":1,"id":"r1-s5","stream":{"phase":"idle","fragments":["select"]}}`,
		`{"v":1,"id":"r1-s6","stream":{"phase":"paused"}}`,
		`{"v":2,"id":"r1-s7"}`,
		`{"v":1,"id":"","tokens":[]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		enc, err := snap.Encode()
		if err != nil {
			t.Fatalf("Encode of a decoded snapshot failed: %v", err)
		}
		again, err := DecodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decode of %s failed: %v", enc, err)
		}
		if !reflect.DeepEqual(canonical(snap), canonical(again)) {
			t.Fatalf("round trip changed the snapshot:\n first: %+v\nsecond: %+v", snap, again)
		}
	})
}

// canonical maps empty lists to nil: the codec omits empty lists, so an
// empty list and an absent one are the same snapshot.
func canonical(s *Snapshot) Snapshot {
	c := *s
	if len(c.Tokens) == 0 {
		c.Tokens = nil
	}
	if len(c.Events) == 0 {
		c.Events = nil
	}
	if c.Stream != nil {
		st := *c.Stream
		if len(st.Fragments) == 0 {
			st.Fragments = nil
		}
		c.Stream = &st
	}
	return c
}
