package literal

import "strings"

// VoteMemo caches literal-voting results across the fragment re-corrections
// of one clause-streaming session. vote is a pure function of (window, set,
// k) up to translation of the consumed position by the window's base
// offset, so a hit replays the cached ranking exactly — the streaming path's
// bit-identity to one-shot correction does not depend on the memo's hit
// rate, only on this purity (TestVoteMemoIdentical).
//
// A VoteMemo is not safe for concurrent use; give each streaming session its
// own.
type VoteMemo struct {
	m map[voteKey]voteVal
}

type voteKey struct {
	set *catSet // identity: category sets are fixed per catalog
	win string  // window tokens, newline-joined
	k   int
}

type voteVal struct {
	top []string
	rel int // consumed position relative to the window base
}

// memoCap bounds retained entries; a full memo resets (sessions are finite,
// but a pathological dictation shouldn't grow memory without bound).
const memoCap = 8192

// NewVoteMemo creates an empty memo.
func NewVoteMemo() *VoteMemo {
	return &VoteMemo{m: make(map[voteKey]voteVal)}
}

// voteMemo is vote through the memo (memo == nil degenerates to vote).
func voteMemo(window []string, base int, set *catSet, k int, memo *VoteMemo) ([]string, int) {
	if memo == nil || len(window) == 0 {
		return vote(window, base, set, k)
	}
	key := voteKey{set: set, win: strings.Join(window, "\n"), k: k}
	if v, ok := memo.m[key]; ok {
		// Copy: bindings own their TopK, and the memo outlives them.
		var top []string
		if len(v.top) > 0 {
			top = append(top, v.top...)
		}
		return top, base + v.rel
	}
	top, pos := vote(window, base, set, k)
	if len(memo.m) >= memoCap {
		memo.m = make(map[voteKey]voteVal)
	}
	stored := voteVal{rel: pos - base}
	if len(top) > 0 {
		stored.top = append(stored.top, top...)
	}
	memo.m[key] = stored
	return top, pos
}
