// Package canon is the canonical JSON encoder underneath every
// content-addressed identity in the repository: the verdict store's hash
// keys (internal/store), mutant identities (mutation.Mutant.Hash) and the
// execution-option fingerprints of testexec. Two values that encode to the
// same JSON document — regardless of struct field order, map iteration
// order, or how the document was produced — canonicalize to byte-identical
// output, so their hashes agree across processes, platforms and runs.
//
// The canonical form is:
//
//   - object keys sorted bytewise ascending by their decoded text, no
//     duplicates (last wins, as encoding/json decodes);
//   - no insignificant whitespace;
//   - numbers kept as the exact literal encoding/json produced (Go's
//     shortest-round-trip float formatting is itself deterministic, and
//     integer literals pass through untouched) — canonicalizing an
//     already-canonical document never reformats a number;
//   - strings escaped exactly as encoding/json's escaper writes them
//     (stable, HTML-safe);
//   - null, true and false as themselves.
//
// Canonicalization is one pass over the bytes. The document is validated
// with json.Valid, then walked once, each value appended to the output as
// it is met: literals and numbers are copied verbatim, and so is every
// string already in encoding/json's escaped form — the common case, since
// the input usually comes from json.Marshal. Only a string that is not
// (an unescaped <, > or &, U+2028/U+2029, invalid UTF-8, or an escape the
// encoder would not write, such as \/ or \u0041) is decoded and re-encoded
// with json.Marshal. An object's members are appended in document order;
// if their decoded keys are not already strictly ascending, the members
// are reordered in place, keeping the last of any duplicate key. Nothing
// is decoded into Go values and no nested value is scanned twice.
//
// NaN and infinities are unrepresentable — encoding/json rejects them
// before canonicalization, which is the stable-float policy: a value that
// cannot round-trip deterministically cannot be part of a cache key.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"unicode/utf8"
)

// Marshal encodes v with encoding/json and rewrites the result into the
// canonical form described in the package comment.
func Marshal(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("canon: encoding: %w", err)
	}
	// json.Marshal's output is one valid document by construction.
	return canonicalize(raw), nil
}

// Canonicalize rewrites one JSON document into canonical form. The input
// must be exactly one valid JSON value, optionally surrounded by
// whitespace.
func Canonicalize(raw []byte) ([]byte, error) {
	if !json.Valid(raw) {
		var v any // Unmarshal reports the syntax error Valid found
		return nil, fmt.Errorf("canon: parsing: %w", json.Unmarshal(raw, &v))
	}
	return canonicalize(raw), nil
}

// Hash returns the hex SHA-256 of v's canonical encoding — the
// content-address used for store keys and mutant identities.
func Hash(v any) (string, error) {
	b, err := Marshal(v)
	if err != nil {
		return "", err
	}
	return Sum(b), nil
}

// HashRaw canonicalizes an already-encoded JSON document and returns its
// hex SHA-256 — for payloads produced by a dedicated encoder (a t-spec's
// SaveJSON) rather than a Go value.
func HashRaw(raw []byte) (string, error) {
	b, err := Canonicalize(raw)
	if err != nil {
		return "", err
	}
	return Sum(b), nil
}

// Sum returns the hex SHA-256 of a document that is already canonical, as
// Marshal returns it: Hash(v) is Sum of Marshal(v).
func Sum(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// canonicalize rewrites a valid JSON document into canonical form.
func canonicalize(raw []byte) []byte {
	w := walker{src: raw}
	out, _ := w.value(make([]byte, 0, len(raw)), skipSpace(raw, 0))
	return out
}

// walker is the state of one canonicalization. src is already validated,
// so the walk never meets a syntax error.
type walker struct {
	src []byte
	// members is a stack of the open objects' members: each object uses
	// the entries above the height it found on entry and pops them on
	// exit.
	members []member
	// scratch is the reorder buffer for objects whose keys are out of
	// order.
	scratch []byte
}

// member is one object member already appended to the output.
type member struct {
	key        []byte // decoded key text: the sort key
	start, end int    // the member's `"key":value` bytes in the output
}

// value appends the canonical form of the value at src[i] to dst and
// returns the index just past it.
func (w *walker) value(dst []byte, i int) ([]byte, int) {
	src := w.src
	switch src[i] {
	case '{':
		return w.object(dst, i)
	case '[':
		dst = append(dst, '[')
		i = skipSpace(src, i+1)
		if src[i] == ']' {
			return append(dst, ']'), i + 1
		}
		for {
			dst, i = w.value(dst, i)
			i = skipSpace(src, i)
			if src[i] == ']' {
				return append(dst, ']'), i + 1
			}
			dst = append(dst, ',')
			i = skipSpace(src, i+1)
		}
	case '"':
		return appendString(dst, src, i)
	case 't', 'n':
		return append(dst, src[i:i+4]...), i + 4
	case 'f':
		return append(dst, src[i:i+5]...), i + 5
	default:
		end := i + 1
		for end < len(src) && isNumberByte(src[end]) {
			end++
		}
		return append(dst, src[i:end]...), end
	}
}

// object appends the canonical form of the object at src[i].
func (w *walker) object(dst []byte, i int) ([]byte, int) {
	src := w.src
	dst = append(dst, '{')
	open := len(dst)
	base := len(w.members)
	i = skipSpace(src, i+1)
	if src[i] == '}' {
		return append(dst, '}'), i + 1
	}
	for {
		if len(w.members) > base {
			dst = append(dst, ',')
		}
		start := len(dst)
		var key []byte
		dst, key, i = appendKey(dst, src, i)
		dst = append(dst, ':')
		i = skipSpace(src, skipSpace(src, i)+1) // past the ':'
		dst, i = w.value(dst, i)
		w.members = append(w.members, member{key: key, start: start, end: len(dst)})
		i = skipSpace(src, i)
		if src[i] == '}' {
			break
		}
		i = skipSpace(src, i+1) // past the ','
	}
	dst = w.order(dst, open, base)
	w.members = w.members[:base]
	return append(dst, '}'), i + 1
}

// order sorts the members of the object whose body starts at dst[open]
// and whose members are w.members[base:] by decoded key, dropping all but
// the last of each duplicate key, and returns the rewritten dst. Members
// already strictly ascending — every object json.Marshal writes for a
// map, and many it writes for a struct — are left where they are.
func (w *walker) order(dst []byte, open, base int) []byte {
	ms := w.members[base:]
	ascending := true
	for j := 1; j < len(ms) && ascending; j++ {
		ascending = bytes.Compare(ms[j-1].key, ms[j].key) < 0
	}
	if ascending {
		return dst
	}
	// A stable sort keeps duplicates in document order, so the last of
	// each run of equal keys is the one the decoder would have kept.
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	buf := w.scratch[:0]
	for j, m := range ms {
		if j+1 < len(ms) && bytes.Equal(m.key, ms[j+1].key) {
			continue
		}
		if len(buf) > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, dst[m.start:m.end]...)
	}
	w.scratch = buf
	return append(dst[:open], buf...)
}

// appendString appends the canonical form of the string literal at
// src[i] and returns the index just past it.
func appendString(dst, src []byte, i int) ([]byte, int) {
	end, _, ok := scanString(src, i)
	if ok {
		return append(dst, src[i:end]...), end
	}
	enc, _ := json.Marshal(unquote(src[i:end])) // cannot fail for a string
	return append(dst, enc...), end
}

// appendKey appends the canonical form of the member name at src[i], as
// appendString does, and also returns its decoded text, which aliases src
// when the name holds no escapes.
func appendKey(dst, src []byte, i int) ([]byte, []byte, int) {
	end, escaped, ok := scanString(src, i)
	raw := src[i:end]
	if ok && !escaped {
		return append(dst, raw...), raw[1 : len(raw)-1], end
	}
	s := unquote(raw)
	if ok {
		return append(dst, raw...), []byte(s), end
	}
	enc, _ := json.Marshal(s)
	return append(dst, enc...), []byte(s), end
}

// unquote decodes a valid JSON string literal.
func unquote(raw []byte) string {
	var s string
	_ = json.Unmarshal(raw, &s)
	return s
}

// scanString scans the valid string literal at src[i]. It returns the
// index just past the closing quote, whether the literal holds any escape,
// and whether it is already in encoding/json's escaped form (ok).
func scanString(src []byte, i int) (end int, escaped, ok bool) {
	ok = true
	for i++; ; {
		c := src[i]
		switch {
		case c == '"':
			return i + 1, escaped, ok
		case c == '\\':
			escaped = true
			n := canonicalEscape(src[i:])
			if n == 0 {
				ok, n = false, 2
			}
			i += n
		case c == '<', c == '>', c == '&':
			ok = false
			i++
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(src[i:])
			if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
				ok = false
			}
			i += size
		}
	}
}

// canonicalEscape returns the length of the escape sequence at the start
// of esc if encoding/json writes the character it denotes with exactly
// that sequence, and 0 otherwise. \b and \f (\u0008 and \u000c) are left
// to the encoder, whose spelling of them has changed across Go releases.
func canonicalEscape(esc []byte) int {
	switch esc[1] {
	case '"', '\\', 'n', 'r', 't':
		return 2
	case 'u':
		var r rune
		for _, h := range esc[2:6] {
			switch {
			case h >= '0' && h <= '9':
				r = r<<4 | rune(h-'0')
			case h >= 'a' && h <= 'f':
				r = r<<4 | rune(h-'a'+10)
			default:
				return 0 // the encoder writes lowercase hex
			}
		}
		switch {
		case r < 0x20 && r != '\b' && r != '\t' && r != '\n' && r != '\f' && r != '\r',
			r == '<', r == '>', r == '&', r == '\u2028', r == '\u2029':
			return 6
		}
	}
	return 0
}

func skipSpace(src []byte, i int) int {
	for i < len(src) {
		switch src[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

func isNumberByte(c byte) bool {
	return c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
