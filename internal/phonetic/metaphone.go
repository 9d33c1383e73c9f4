// Package phonetic implements the Metaphone phonetic algorithm (Philips,
// 1990) used by SpeakQL's literal determination (Section 4). Metaphone
// encodes an English word into a string over 16 consonant symbols
// (0BFHJKLMNPRSXTWY, with "0" for the th sound and X for sh/ch) so that
// words that sound alike encode alike: Employees → EMPLYS, Salaries → SLRS,
// FirstName → FRSTNM. Unlike the classic 4-character variant, SpeakQL needs
// the full-length encoding, so no truncation is applied.
package phonetic

import "strings"

// Encode returns the Metaphone encoding of word. Non-ASCII-letter runes are
// ignored except digits, which are passed through unchanged so that tokens
// like "d002" or "1993" remain distinguishable — SpeakQL indexes schema
// literals that freely mix letters and digits — and the four non-ASCII
// runes whose case mapping is an ASCII letter (İ ı → I, ſ → S, the Kelvin
// sign → K), which fold to that letter so the encoding never depends on
// letter case.
func Encode(word string) string {
	return string(AppendEncode(nil, word))
}

// AppendEncode appends word's Metaphone encoding to dst and returns the
// extended slice, exactly append-style. The output bytes are identical to
// Encode's; the point of this variant is the literal-voting hot loop, which
// encodes every enumerated transcript substring and must not allocate at
// steady state — it hands in a pooled buffer here instead of materializing
// a string per substring. word may be a string or a byte slice (the voting
// scratch holds candidate text as subslices of one arena).
func AppendEncode[T ~string | ~[]byte](dst []byte, word T) []byte {
	// Normalize into a stack buffer: upper-case ASCII letters, keep digits,
	// fold the four non-ASCII runes that case-map to an ASCII letter, drop
	// everything else (identifier separators contribute no sound).
	var nb [64]byte
	w := nb[:0]
	for i := 0; i < len(word); i++ {
		c := word[i]
		switch {
		case c >= 'a' && c <= 'z':
			w = append(w, c-'a'+'A')
		case c >= 'A' && c <= 'Z':
			w = append(w, c)
		case c >= '0' && c <= '9':
			w = append(w, c)
		case c == 0xC4 && i+1 < len(word) && (word[i+1] == 0xB0 || word[i+1] == 0xB1):
			w = append(w, 'I') // U+0130 İ, U+0131 ı
			i++
		case c == 0xC5 && i+1 < len(word) && word[i+1] == 0xBF:
			w = append(w, 'S') // U+017F ſ
			i++
		case c == 0xE2 && i+2 < len(word) && word[i+1] == 0x84 && word[i+2] == 0xAA:
			w = append(w, 'K') // U+212A Kelvin sign
			i += 2
		}
	}
	if len(w) == 0 {
		return dst
	}
	w = applyInitialExceptions(w)
	n := len(w)
	for i := 0; i < n; i++ {
		c := w[i]
		// Skip duplicate adjacent letters, except C (as in "accident")
		// and digits, which carry distinguishing information verbatim.
		if i > 0 && c == w[i-1] && c != 'C' && !(c >= '0' && c <= '9') {
			continue
		}
		switch {
		case c >= '0' && c <= '9':
			dst = append(dst, c)
		case isVowel(c):
			if i == 0 {
				dst = append(dst, c)
			}
		case c == 'B':
			// Silent in terminal -MB ("dumb", "thumb").
			if !(i == n-1 && i > 0 && w[i-1] == 'M') {
				dst = append(dst, 'B')
			}
		case c == 'C':
			switch {
			case hasAt(w, i, "CIA"):
				dst = append(dst, 'X')
			case hasAt(w, i, "CH"):
				if i > 0 && hasAt(w, i-1, "SCH") {
					dst = append(dst, 'K')
				} else {
					dst = append(dst, 'X')
				}
			case i+1 < n && (w[i+1] == 'I' || w[i+1] == 'E' || w[i+1] == 'Y'):
				if !(i > 0 && w[i-1] == 'S') { // -SCI-, -SCE-, -SCY-: C silent
					dst = append(dst, 'S')
				}
			default:
				dst = append(dst, 'K')
			}
		case c == 'D':
			if i+2 < n && w[i+1] == 'G' && (w[i+2] == 'E' || w[i+2] == 'Y' || w[i+2] == 'I') {
				dst = append(dst, 'J') // "edge", "dodgy"
			} else {
				dst = append(dst, 'T')
			}
		case c == 'F':
			dst = append(dst, 'F')
		case c == 'G':
			switch {
			case hasAt(w, i, "GH"):
				// Silent unless at end or before a vowel ("ghost" vs "night").
				if i+2 >= n || isVowel(w[i+2]) {
					dst = append(dst, 'K')
				}
			case hasAt(w, i, "GN"):
				// Silent in -GN, -GNED ("gnome" handled by initial rule,
				// "sign", "signed").
			case i+1 < n && (w[i+1] == 'I' || w[i+1] == 'E' || w[i+1] == 'Y'):
				if i > 0 && w[i-1] == 'D' {
					// already emitted J for the DGE/DGI/DGY cluster
				} else {
					dst = append(dst, 'J')
				}
			default:
				if !(i > 0 && w[i-1] == 'D' && i+1 < n && (w[i+1] == 'E' || w[i+1] == 'Y' || w[i+1] == 'I')) {
					dst = append(dst, 'K')
				}
			}
		case c == 'H':
			// Silent after a vowel when no vowel follows, and silent inside
			// the digraphs already consumed (CH, SH, PH, TH, GH, WH).
			if i > 0 && strings.IndexByte("CSPTGW", w[i-1]) >= 0 {
				break
			}
			if i > 0 && isVowel(w[i-1]) && (i+1 >= n || !isVowel(w[i+1])) {
				break
			}
			dst = append(dst, 'H')
		case c == 'J':
			dst = append(dst, 'J')
		case c == 'K':
			if !(i > 0 && w[i-1] == 'C') { // silent after C ("tackle")
				dst = append(dst, 'K')
			}
		case c == 'L':
			dst = append(dst, 'L')
		case c == 'M':
			dst = append(dst, 'M')
		case c == 'N':
			dst = append(dst, 'N')
		case c == 'P':
			if i+1 < n && w[i+1] == 'H' {
				dst = append(dst, 'F') // "phone"
			} else {
				dst = append(dst, 'P')
			}
		case c == 'Q':
			dst = append(dst, 'K')
		case c == 'R':
			dst = append(dst, 'R')
		case c == 'S':
			switch {
			case i+1 < n && w[i+1] == 'H':
				dst = append(dst, 'X') // "ship"
			case hasAt(w, i, "SIO") || hasAt(w, i, "SIA"):
				dst = append(dst, 'X') // "vision" (approx.), "Asia"
			default:
				dst = append(dst, 'S')
			}
		case c == 'T':
			switch {
			case hasAt(w, i, "TIA") || hasAt(w, i, "TIO"):
				dst = append(dst, 'X') // "nation"
			case i+1 < n && w[i+1] == 'H':
				dst = append(dst, '0') // "thing" → theta
			default:
				dst = append(dst, 'T')
			}
		case c == 'V':
			dst = append(dst, 'F')
		case c == 'W':
			if i+1 < n && isVowel(w[i+1]) {
				dst = append(dst, 'W') // silent otherwise ("law")
			}
		case c == 'X':
			dst = append(dst, 'K', 'S')
		case c == 'Y':
			if i+1 < n && isVowel(w[i+1]) {
				dst = append(dst, 'Y') // silent otherwise ("salary")
			}
		case c == 'Z':
			dst = append(dst, 'S')
		}
	}
	return dst
}

// EncodeTokens encodes the concatenation of the tokens as one word. SpeakQL
// compares multi-word ASR fragments against single schema identifiers
// ("first name" vs FirstName); encoding the joined string — rather than
// joining per-token encodings — keeps Metaphone's word-level rules (initial
// vowels, duplicate letters) consistent with how the identifier itself is
// encoded, so "department employee" and DepartmentEmployee agree exactly.
func EncodeTokens(tokens []string) string {
	return Encode(strings.Join(tokens, ""))
}

// applyInitialExceptions handles the word-initial silent-letter clusters.
// It rewrites the normalized scratch in place (dropping or substituting the
// first letter) so the append-based encoder stays allocation-free.
func applyInitialExceptions(w []byte) []byte {
	if w[0] == 'X' {
		w[0] = 'S'
		return w
	}
	switch {
	case hasAt(w, 0, "AE"), hasAt(w, 0, "GN"), hasAt(w, 0, "KN"),
		hasAt(w, 0, "PN"), hasAt(w, 0, "WR"):
		return w[1:]
	case hasAt(w, 0, "WH"):
		w[1] = 'W'
		return w[1:]
	default:
		return w
	}
}

func isVowel(c byte) bool {
	switch c {
	case 'A', 'E', 'I', 'O', 'U':
		return true
	}
	return false
}

func hasAt(w []byte, i int, pat string) bool {
	return i+len(pat) <= len(w) && string(w[i:i+len(pat)]) == pat
}
