package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"concat/internal/core/canon"
	"concat/internal/serve/chaos"
)

func testKey(mutant string) Key {
	return Key{
		Kind:    KindMutantVerdict,
		Spec:    "spec-hash",
		Suite:   "suite-hash",
		Mutant:  mutant,
		Seed:    42,
		Options: "opt-hash",
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := Verdict{Killed: true, Reason: 3, KillingCase: "TC7", Reached: true, Infected: true}
	if err := s.Put(testKey("m1"), want); err != nil {
		t.Fatal(err)
	}
	var got Verdict
	ok, err := s.Get(testKey("m1"), &got)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v; want hit", ok, err)
	}
	if got != want {
		t.Errorf("round trip: got %+v, want %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 hit", st)
	}
}

func TestMissCounts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	ok, err := s.Get(testKey("absent"), &v)
	if err != nil || ok {
		t.Fatalf("Get of absent key = %v, %v; want clean miss", ok, err)
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 miss", st)
	}
}

func TestKeyComponentsIndependent(t *testing.T) {
	// Every key field moves the address; no cross-kind or cross-field
	// collisions.
	keys := []Key{
		testKey("m1"),
		testKey("m2"),
		{Kind: KindCaseResult, Spec: "spec-hash", Suite: "suite-hash", Seed: 42, Options: "opt-hash"},
		func() Key { k := testKey("m1"); k.Seed = 43; return k }(),
		func() Key { k := testKey("m1"); k.Options = "other"; return k }(),
		func() Key { k := testKey("m1"); k.Spec = "other"; return k }(),
		func() Key { k := testKey("m1"); k.Suite = "other"; return k }(),
	}
	seen := map[string]int{}
	for i, k := range keys {
		id, err := k.ID()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[id]; dup {
			t.Errorf("keys %d and %d collide", prev, i)
		}
		seen[id] = i
	}
}

func TestPersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(testKey("m1"), Verdict{Killed: true, Reason: 1}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	ok, err := s2.Get(testKey("m1"), &v)
	if err != nil || !ok {
		t.Fatalf("reopened store: Get = %v, %v", ok, err)
	}
	if !v.Killed || v.Reason != 1 {
		t.Errorf("reopened verdict = %+v", v)
	}
	if n, skipped, err := s2.Len(); err != nil || n != 1 || skipped != 0 {
		t.Errorf("Len = %d (skipped %d), %v; want 1, 0", n, skipped, err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	// The same (key, value) written into two stores produces byte-identical
	// files — the property that makes cache directories diffable.
	write := func() []byte {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		k := testKey("m1")
		if err := s.Put(k, Verdict{Killed: true, Reason: 2, KillingCase: "TC1", Reached: true}); err != nil {
			t.Fatal(err)
		}
		id, err := k.ID()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, id[:2], id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := write(), write(); !bytes.Equal(a, b) {
		t.Errorf("same entry, different bytes:\n%s\n%s", a, b)
	}
}

func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("m1")
	if err := s.Put(k, Verdict{Killed: true}); err != nil {
		t.Fatal(err)
	}
	id, err := k.ID()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id[:2], id+".json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh store re-reads disk; the corrupt entry is quarantined (renamed
	// aside) and reports as a clean miss, and a subsequent Put repairs it.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	ok, err := s2.Get(k, &v)
	if ok || err != nil {
		t.Fatalf("corrupt entry: Get = %v, %v; want clean miss", ok, err)
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Misses != 1 {
		t.Errorf("corrupt entry stats = %+v; want 1 quarantined, 1 miss", st)
	}
	if _, err := os.Stat(filepath.Join(dir, id[:2], id+".json.corrupt")); err != nil {
		t.Errorf("corrupt entry was not renamed aside: %v", err)
	}
	if err := s2.Put(k, Verdict{Killed: true}); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := s3.Get(k, &v); !ok || err != nil {
		t.Fatalf("repaired entry: Get = %v, %v", ok, err)
	}
}

func TestNilStoreDisabled(t *testing.T) {
	var s *Store
	var v Verdict
	ok, err := s.Get(testKey("m"), &v)
	if ok || err != nil {
		t.Errorf("nil store Get = %v, %v", ok, err)
	}
	if err := s.Put(testKey("m"), Verdict{}); err != nil {
		t.Errorf("nil store Put: %v", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("nil store stats = %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Overlapping key space: every key written by several workers.
				k := testKey(fmt.Sprintf("m%d", i))
				if err := s.Put(k, Verdict{Killed: i%2 == 0, Reason: i % 4}); err != nil {
					errs <- err
					return
				}
				var v Verdict
				if _, err := s.Get(k, &v); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, skipped, err := s.Len(); err != nil || n != perWorker || skipped != 0 {
		t.Errorf("Len = %d (skipped %d), %v; want %d, 0", n, skipped, err, perWorker)
	}
}

// entryPath locates the on-disk file of a key.
func entryPath(t *testing.T, dir string, k Key) string {
	t.Helper()
	id, err := k.ID()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, id[:2], id+".json")
}

func TestTruncatedEntryQuarantined(t *testing.T) {
	// A torn write (power loss mid-write without the rename barrier) leaves
	// a truncated document: the read path must quarantine it and miss, never
	// panic or decode a partial verdict.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("m1")
	if err := s.Put(k, Verdict{Killed: true, Reason: 2}); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir, k)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 1, info.Size() / 2, info.Size() - 2} {
		if err := chaos.Truncate(path, n); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var v Verdict
		ok, err := s2.Get(k, &v)
		if ok || err != nil {
			t.Fatalf("truncate to %d: Get = %v, %v; want clean miss", n, ok, err)
		}
		if st := s2.Stats(); st.Quarantined != 1 {
			t.Errorf("truncate to %d: quarantined = %d, want 1", n, st.Quarantined)
		}
		os.Remove(path + ".corrupt")
		// Repair for the next truncation point.
		if err := s2.Put(k, Verdict{Killed: true, Reason: 2}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBitFlippedEntryQuarantined(t *testing.T) {
	// Flip every byte position in turn: wherever the flip lands — key,
	// checksum, value, structure — the entry must either still read back
	// exactly or be quarantined. No position may yield a wrong verdict.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("m1")
	want := Verdict{Killed: true, Reason: 3, KillingCase: "TC7", Reached: true, Infected: true}
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	path := entryPath(t, dir, k)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(pristine); off++ {
		if err := chaos.FlipByte(path, off); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		var v Verdict
		ok, err := s2.Get(k, &v)
		if err != nil {
			t.Fatalf("flip at %d: Get error %v", off, err)
		}
		if ok && v != want {
			t.Fatalf("flip at %d: served wrong verdict %+v", off, v)
		}
		if !ok {
			if st := s2.Stats(); st.Quarantined != 1 {
				t.Errorf("flip at %d: miss without quarantine: %+v", off, st)
			}
			os.Remove(path + ".corrupt")
		}
		if err := os.WriteFile(path, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLenSkipsForeignAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(fmt.Sprintf("m%d", i)), Verdict{Killed: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Foreign debris a shared cache directory accumulates: a quarantined
	// entry, a stray temp file, a README, a foreign-named JSON file.
	path := entryPath(t, dir, testKey("m0"))
	if err := os.Rename(path, path+".corrupt"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{".sometmp-123", "README.txt", "notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, skipped, err := s.Len()
	if err != nil {
		t.Fatalf("Len failed on foreign files: %v", err)
	}
	if n != 2 {
		t.Errorf("Len entries = %d, want 2", n)
	}
	if skipped != 4 {
		t.Errorf("Len skipped = %d, want 4", skipped)
	}
}

// TestConcurrentQuarantineCountedOnce pins the racing-readers bugfix: many
// readers hitting the same corrupt entry all miss, but exactly one wins
// the rename to the shared .corrupt name and only that winner counts the
// quarantine. Run under -race in CI.
func TestConcurrentQuarantineCountedOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("m1")
	if err := s.Put(k, Verdict{Killed: true}); err != nil {
		t.Fatal(err)
	}
	id, err := k.ID()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id[:2], id+".json")
	if err := os.WriteFile(path, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store re-reads disk; all readers race on the corrupt entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var v Verdict
			if ok, err := s2.Get(k, &v); ok || err != nil {
				t.Errorf("racing reader: Get = %v, %v; want clean miss", ok, err)
			}
		}()
	}
	close(start)
	wg.Wait()

	st := s2.Stats()
	if st.Quarantined != 1 {
		t.Errorf("one corrupt entry quarantined %d times by %d racing readers, want exactly 1", st.Quarantined, readers)
	}
	if st.Misses != readers {
		t.Errorf("misses = %d, want one per reader (%d)", st.Misses, readers)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d, want 0", st.Hits)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("corrupt entry was not renamed aside: %v", err)
	}
}

// FuzzDecodeEntry feeds arbitrary documents to decodeEntry: it never
// panics, and an entry it accepts has a key hashing to the content address
// and a value hashing to the embedded sum.
func FuzzDecodeEntry(f *testing.F) {
	for _, v := range []any{Verdict{Killed: true, Reason: 2}, map[string]int{"a": 1}, "x"} {
		id, doc, err := encodeEntry(Key{Kind: KindMutantVerdict, Spec: "s", Suite: "u", Mutant: "m", Seed: 7}, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(id, doc)
	}
	f.Add("", []byte("{}"))
	f.Add(strings.Repeat("0", 64), []byte(`{"key":{"kind":"suite-report"},"sum":"","value":null}`))
	f.Fuzz(func(t *testing.T, id string, doc []byte) {
		e, err := decodeEntry(id, doc)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if keyID, err := e.Key.ID(); err != nil || keyID != id {
			t.Fatalf("accepted key hashes to %q (%v), want %q", keyID, err, id)
		}
		if sum, err := canon.HashRaw(e.Value); err != nil || sum != e.Sum {
			t.Fatalf("accepted value hashes to %q (%v), want %q", sum, err, e.Sum)
		}
	})
}
