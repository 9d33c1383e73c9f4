// Package sqltoken defines the token model shared by every SpeakQL
// component: the three token classes of the paper (Keywords, Special
// Characters, Literals), the keyword and special-character dictionaries of
// Section 3.1, tokenizers for written SQL and for ASR transcripts, the
// spoken-form substitution table that rewrites phrases such as "less than"
// back into "<", and literal masking, which replaces every non-Keyword,
// non-SplChar token with a numbered placeholder variable.
package sqltoken

import (
	"fmt"
	"strings"
)

// Class partitions SQL tokens the way the paper does: every token is a
// Keyword, a Special Character ("SplChar"), or a Literal. Keywords and
// SplChars come from finite dictionaries fixed by the grammar; Literals
// (table names, attribute names, attribute values) have unbounded domain.
type Class int

const (
	// Literal is a table name, attribute name, or attribute value.
	Literal Class = iota
	// Keyword is a reserved SQL word such as SELECT or FROM.
	Keyword
	// SplChar is a special character such as * or =.
	SplChar
)

// String returns the class name used in metric labels (K/S/L).
func (c Class) String() string {
	switch c {
	case Keyword:
		return "Keyword"
	case SplChar:
		return "SplChar"
	default:
		return "Literal"
	}
}

// Keywords is the KeywordDict of Section 3.1. Multi-word entries from the
// paper (ORDER BY, GROUP BY, NATURAL JOIN) are stored word-by-word because
// the grammar of Box 1 derives them as separate tokens (ODB1 ODB2 etc.).
var Keywords = []string{
	"SELECT", "FROM", "WHERE",
	"ORDER", "GROUP", "BY",
	"NATURAL", "JOIN",
	"AND", "OR", "NOT",
	"LIMIT", "BETWEEN", "IN",
	"SUM", "COUNT", "MAX", "AVG", "MIN",
}

// SplChars is the SplCharDict of Section 3.1.
var SplChars = []string{"*", "=", "<", ">", "(", ")", ".", ","}

var keywordSet = func() map[string]bool {
	m := make(map[string]bool, len(Keywords))
	for _, k := range Keywords {
		m[k] = true
	}
	return m
}()

var splCharSet = func() map[string]bool {
	m := make(map[string]bool, len(SplChars))
	for _, s := range SplChars {
		m[s] = true
	}
	return m
}()

// IsKeyword reports whether tok (case-insensitive) is in KeywordDict.
func IsKeyword(tok string) bool { return keywordSet[strings.ToUpper(tok)] }

// IsSplChar reports whether tok is in SplCharDict.
func IsSplChar(tok string) bool { return splCharSet[tok] }

// Classify returns the token class of tok.
func Classify(tok string) Class {
	switch {
	case IsKeyword(tok):
		return Keyword
	case IsSplChar(tok):
		return SplChar
	default:
		return Literal
	}
}

// Canon returns the canonical surface form of a token: keywords are
// upper-cased, special characters returned as-is, and literals preserved.
func Canon(tok string) string {
	if IsKeyword(tok) {
		return strings.ToUpper(tok)
	}
	return tok
}

// Edit costs of the SQL-specific weighted edit distance (Section 3.4), in
// tenths of the paper's weights W_K = 1.2, W_S = 1.1, W_L = 1.0. ASR
// recognizes Keywords most reliably, SplChars next, Literals least; the
// ordering (not the exact values) is what matters. Integer costs sum
// exactly, so two equal distances always compare equal; a summed cost d
// is the distance d / CostScale.
const (
	CostKeyword = 12
	CostSplChar = 11
	CostLiteral = 10
	CostScale   = 10
)

// Cost returns the edit cost of a token per its class, in tenths.
func Cost(tok string) int32 {
	switch Classify(tok) {
	case Keyword:
		return CostKeyword
	case SplChar:
		return CostSplChar
	default:
		return CostLiteral
	}
}

// Placeholder returns the i-th (1-based) placeholder variable name, "x1",
// "x2", ... as used in masked structures.
func Placeholder(i int) string { return fmt.Sprintf("x%d", i) }

// IsPlaceholder reports whether tok looks like a placeholder variable
// ("x" followed by digits). The generic literal symbol "x" also counts.
func IsPlaceholder(tok string) bool {
	if len(tok) == 0 || (tok[0] != 'x' && tok[0] != 'X') {
		return false
	}
	for i := 1; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return false
		}
	}
	return true
}
