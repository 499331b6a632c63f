// The pluggable storage seam: Backend abstracts the verdict store's
// contract — Get/Put over canonical-JSON entry documents with integrity
// digests, plus Len/Stats observability — so campaigns can run against the
// file-backed Store, the in-memory Mem, or the HTTP Remote client
// interchangeably. RawBackend adds the verbatim entry-document surface the
// remote-store protocol moves over the wire: because documents are
// canonical JSON addressed by their key hash, any backend can verify any
// other backend's output locally, and a shared store written by many nodes
// stays byte-identical to one written by a single process.

package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"

	"concat/internal/core/canon"
)

// Backend is one verdict-store implementation. All methods must be safe
// for concurrent use.
type Backend interface {
	// Get looks the key up and, on a hit, decodes the stored payload into
	// out. (false, nil) is a clean miss; an entry failing integrity is
	// quarantined and reported as a miss, never served as a wrong verdict.
	Get(k Key, out any) (bool, error)
	// Put stores the value under the key, overwriting any previous entry.
	Put(k Key, value any) error
	// Len counts stored entries plus files/documents skipped as foreign or
	// quarantined.
	Len() (entries, skipped int, err error)
	// Stats snapshots the backend's lookup counters.
	Stats() Stats
}

// RawBackend is a backend that can serve the HTTP remote-store protocol:
// entry documents move verbatim, so a remote writer produces exactly the
// bytes a local Put would have.
type RawBackend interface {
	Backend
	// GetRaw returns the verified entry document for a content address;
	// ok=false is a miss.
	GetRaw(id string) (doc []byte, ok bool, err error)
	// PutRaw verifies the document against its content address and stores
	// it verbatim; a document failing verification returns ErrCorrupt.
	PutRaw(id string, doc []byte) error
}

// ErrCorrupt tags an entry document that failed integrity verification:
// undecodable, key not hashing to its content address, or value not
// hashing to the embedded sum.
var ErrCorrupt = errors.New("store: entry failed integrity verification")

// Enabled reports whether b is a usable backend. Call sites historically
// passed a possibly-nil *Store (the disabled cache); through the Backend
// interface such a typed nil is non-nil, so the nil check lives here.
func Enabled(b Backend) bool {
	if b == nil {
		return false
	}
	v := reflect.ValueOf(b)
	return v.Kind() != reflect.Pointer || !v.IsNil()
}

// BackendStats snapshots b's counters, tolerating disabled backends.
func BackendStats(b Backend) Stats {
	if !Enabled(b) {
		return Stats{}
	}
	return b.Stats()
}

// encodeEntry canonical-encodes (key, value) as a self-describing entry
// document and returns its content address. The document embeds the full
// key and the value's canonical hash, so any reader can verify it without
// trusting the writer; the same (key, value) pair always encodes
// byte-identical documents on any node.
//
// The key and the value are each encoded once. The document is the
// canonical encoding of entry{Key, Sum, Value}, assembled from those
// already-canonical parts: its members "key", "sum", "value" are in sorted
// order and the hex sum needs no escaping.
func encodeEntry(k Key, value any) (id string, doc []byte, err error) {
	rawKey, id, err := k.encode()
	if err != nil {
		return "", nil, err
	}
	rawVal, err := canon.Marshal(value)
	if err != nil {
		return "", nil, fmt.Errorf("store: encoding value for %s: %w", id, err)
	}
	sum := canon.Sum(rawVal)
	doc = make([]byte, 0, len(`{"key":,"sum":"","value":}`)+len(rawKey)+len(sum)+len(rawVal)+1)
	doc = append(doc, `{"key":`...)
	doc = append(doc, rawKey...)
	doc = append(doc, `,"sum":"`...)
	doc = append(doc, sum...)
	doc = append(doc, `","value":`...)
	doc = append(doc, rawVal...)
	doc = append(doc, "}\n"...)
	return id, doc, nil
}

// decodeEntry verifies a document against its content address — the key
// must re-hash to id and the value to the embedded sum — and returns the
// parsed entry. Every failure wraps ErrCorrupt: truncation, bit rot, a
// foreign document under the right name, or a lying remote peer all look
// the same to the caller.
func decodeEntry(id string, doc []byte) (entry, error) {
	var e entry
	if err := json.Unmarshal(doc, &e); err != nil {
		return entry{}, fmt.Errorf("%w: %s: %v", ErrCorrupt, id, err)
	}
	keyID, err := e.Key.ID()
	if err != nil || keyID != id {
		return entry{}, fmt.Errorf("%w: key does not hash to %s", ErrCorrupt, id)
	}
	sum, err := canon.HashRaw(e.Value)
	if err != nil || sum != e.Sum {
		return entry{}, fmt.Errorf("%w: value digest mismatch for %s", ErrCorrupt, id)
	}
	return e, nil
}

// isEntryID reports whether id is a well-formed content address: 64 hex
// digits.
func isEntryID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f':
		default:
			return false
		}
	}
	return true
}

// Interface conformance of the three shipped backends.
var (
	_ RawBackend = (*Store)(nil)
	_ RawBackend = (*Mem)(nil)
	_ Backend    = (*Remote)(nil)
)
