// Package store is the content-addressed incremental verdict store: a
// file-backed cache mapping (spec-hash, suite-hash, mutant-hash, seed,
// options-hash) to a recorded verdict. A mutant's verdict is a pure
// function of those five inputs — everything else about a campaign
// (parallelism, isolation mode, tracing) is determinism-neutral by the
// executor's contract — so resubmitting a campaign after editing one
// operator or one component re-executes only the mutants whose hash inputs
// changed and serves the rest from the store, with byte-identical reports.
//
// Entries are JSON files in canonical encoding (internal/core/canon):
// sorted keys, stable numbers. The same entry written by any process on any
// platform is byte-identical, so a cache directory can be shared, shipped,
// or diffed. Writes go through a temp file + rename, which makes
// concurrent writers of the same key safe (identical content, last rename
// wins).
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"concat/internal/core/canon"
)

// Key is the five-part content address of one cached verdict. Kind
// namespaces entry types (mutant verdicts vs case results) so their
// addresses can never collide.
type Key struct {
	// Kind is the entry namespace: KindMutantVerdict or KindCaseResult.
	Kind string `json:"kind"`
	// Spec is the canonical hash of the component's t-spec.
	Spec string `json:"spec"`
	// Suite is the canonical hash of the executed suite.
	Suite string `json:"suite"`
	// Mutant is the canonical hash of the active mutant; empty for
	// non-mutation entries (case results).
	Mutant string `json:"mutant,omitempty"`
	// Seed is the execution seed driving hole completion.
	Seed int64 `json:"seed"`
	// Options is the fingerprint of the result-relevant execution options
	// (testexec.Options.ResultFingerprint).
	Options string `json:"options"`
}

// Entry kinds.
const (
	KindMutantVerdict = "mutant-verdict"
	// KindCaseResult is one test case's execution result, keyed by the
	// case's own canonical hash rather than a whole-suite hash — the unit of
	// reuse for the impact engine's partitioned re-runs (internal/impact).
	KindCaseResult = "case-result"
)

// ID returns the key's content address: the hex SHA-256 of its canonical
// encoding.
func (k Key) ID() (string, error) {
	_, id, err := k.encode()
	return id, err
}

// encode returns the key's canonical encoding and its content address.
func (k Key) encode() (doc []byte, id string, err error) {
	if k.Kind == "" {
		return nil, "", errors.New("store: key has no kind")
	}
	doc, err = canon.Marshal(k)
	if err != nil {
		return nil, "", err
	}
	return doc, canon.Sum(doc), nil
}

// Verdict is the cached outcome of one mutant run — the persistent form of
// analysis.MutantResult, defined here so the store stays a leaf package.
// Reason carries the kill reason's integer code; zero means "not killed".
type Verdict struct {
	Killed      bool   `json:"killed"`
	Reason      int    `json:"reason,omitempty"`
	KillingCase string `json:"killingCase,omitempty"`
	Reached     bool   `json:"reached"`
	Infected    bool   `json:"infected"`
}

// Stats is a point-in-time snapshot of the store's lookup counters.
// Quarantined counts entries that failed integrity checks on read and were
// renamed aside.
type Stats struct {
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Quarantined int64 `json:"quarantined"`
}

// Store is a file-backed content-addressed cache. All methods are safe for
// concurrent use; a nil *Store is the disabled cache (Get always misses
// without counting, Put discards), so call sites thread it without checks.
type Store struct {
	dir          string
	hits, misses atomic.Int64
	quarantined  atomic.Int64

	// mem caches decoded payloads by entry ID so a campaign's repeated
	// warm lookups don't re-read files. Bounded by the number of distinct
	// entries touched in-process.
	mu  sync.RWMutex
	mem map[string][]byte
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	return &Store{dir: dir, mem: make(map[string][]byte)}, nil
}

// Dir returns the store's root directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// entry is the on-disk document: the full key (so entries are
// self-describing and auditable), the payload, and the payload's canonical
// hash. The key must re-hash to the entry's file name and the value to Sum,
// so any corruption — truncation, bit rot, a foreign file under the right
// name — is detected on read instead of being served as a wrong verdict.
type entry struct {
	Key   Key             `json:"key"`
	Sum   string          `json:"sum"`
	Value json.RawMessage `json:"value"`
}

// path shards entries by the first two hex digits of their ID, keeping
// directories small on big campaigns.
func (s *Store) path(id string) string {
	return filepath.Join(s.dir, id[:2], id+".json")
}

// Get looks the key up and, on a hit, decodes the stored payload into out.
// It returns (false, nil) on a clean miss and (false, err) only for
// environmental read failures. An entry that exists but fails integrity —
// truncated, bit-flipped, undecodable, key or value hash mismatch — is
// quarantined: renamed aside with a .corrupt suffix, counted in
// Stats.Quarantined, and reported as a clean miss, so corruption can never
// panic a campaign or serve a wrong verdict; the next Put writes a fresh
// entry under the original name.
func (s *Store) Get(k Key, out any) (bool, error) {
	if s == nil {
		return false, nil
	}
	id, err := k.ID()
	if err != nil {
		return false, err
	}
	raw, err := s.load(id)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return false, nil
		}
		s.misses.Add(1)
		return false, err
	}
	e, err := decodeEntry(id, raw)
	if err != nil {
		s.quarantine(id)
		return false, nil
	}
	if err := json.Unmarshal(e.Value, out); err != nil {
		s.quarantine(id)
		return false, nil
	}
	s.hits.Add(1)
	return true, nil
}

// GetRaw returns the verified entry document for a content address — the
// raw half of the remote-store protocol. Counting and quarantine behave
// exactly like Get: a corrupt entry is renamed aside and read as a miss.
func (s *Store) GetRaw(id string) ([]byte, bool, error) {
	if s == nil {
		return nil, false, nil
	}
	if !isEntryID(id) {
		return nil, false, fmt.Errorf("store: malformed entry id %q", id)
	}
	raw, err := s.load(id)
	if err != nil {
		s.misses.Add(1)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, err
	}
	if _, err := decodeEntry(id, raw); err != nil {
		s.quarantine(id)
		return nil, false, nil
	}
	s.hits.Add(1)
	return raw, true, nil
}

// quarantine renames a corrupt entry aside and evicts it from the
// in-memory cache; the caller re-executes and re-stores as if the entry
// never existed. Concurrent readers of the same corrupt entry race to the
// same .corrupt name: exactly one rename succeeds, so only that winner
// counts the quarantine — the losers' failed renames are non-fatal and
// uncounted. Every caller still counts its own miss.
func (s *Store) quarantine(id string) {
	s.mu.Lock()
	delete(s.mem, id)
	s.mu.Unlock()
	path := s.path(id)
	if os.Rename(path, path+".corrupt") == nil {
		s.quarantined.Add(1)
	}
	s.misses.Add(1)
}

func (s *Store) load(id string) ([]byte, error) {
	s.mu.RLock()
	raw, ok := s.mem[id]
	s.mu.RUnlock()
	if ok {
		return raw, nil
	}
	raw, err := os.ReadFile(s.path(id))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.mem[id] = raw
	s.mu.Unlock()
	return raw, nil
}

// Put stores the value under the key, overwriting any previous entry. The
// on-disk document is canonical JSON, so the same (key, value) pair always
// writes byte-identical files.
func (s *Store) Put(k Key, value any) error {
	if s == nil {
		return nil
	}
	id, doc, err := encodeEntry(k, value)
	if err != nil {
		return err
	}
	return s.writeDoc(id, doc)
}

// PutRaw verifies a ready-made entry document against its content address
// and writes it verbatim — remote writers pass the same integrity gate
// that local Put output satisfies by construction, so a shared store can
// never be poisoned over the wire.
func (s *Store) PutRaw(id string, doc []byte) error {
	if s == nil {
		return nil
	}
	if !isEntryID(id) {
		return fmt.Errorf("store: malformed entry id %q", id)
	}
	if _, err := decodeEntry(id, doc); err != nil {
		return err
	}
	return s.writeDoc(id, doc)
}

// writeDoc durably lands an entry document under its content address.
func (s *Store) writeDoc(id string, doc []byte) error {
	path := s.path(id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// Temp file + rename: concurrent writers of the same key write
	// identical content, so whichever rename lands last leaves a good file.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+id+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(doc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing entry %s: %w", id, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.mem[id] = doc
	s.mu.Unlock()
	return nil
}

// Len walks the store and counts persisted entries. Unreadable files or
// directories and foreign files — quarantined .corrupt entries, stray temp
// files, anything whose name is not a content address — are skipped and
// counted instead of failing the whole walk: one bad shard must not make
// the store unobservable.
func (s *Store) Len() (entries, skipped int, err error) {
	if s == nil {
		return 0, 0, nil
	}
	err = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			skipped++
			if d != nil && d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			return nil
		}
		if isEntryName(filepath.Base(path)) {
			entries++
		} else {
			skipped++
		}
		return nil
	})
	return entries, skipped, err
}

// isEntryName reports whether name is a well-formed entry file name: a
// 64-hex content address plus ".json".
func isEntryName(name string) bool {
	const hexLen = 64
	return len(name) == hexLen+len(".json") && name[hexLen:] == ".json" && isEntryID(name[:hexLen])
}

// Stats snapshots the hit/miss counters (zero on a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{Hits: s.hits.Load(), Misses: s.misses.Load(), Quarantined: s.quarantined.Load()}
}
