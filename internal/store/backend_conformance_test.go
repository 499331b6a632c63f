// The shared backend conformance suite: every Backend implementation —
// filesystem, in-memory, and the HTTP remote client over each of them —
// must satisfy the same observable contract (round-trip, counted clean
// misses, overwrite, key independence, Len, Enabled). New backends join by
// adding one constructor line.

package store

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
)

// conformanceBackends enumerates every shipped backend; make returns a
// fresh, empty instance per subtest.
func conformanceBackends(t *testing.T) []struct {
	name string
	make func(t *testing.T) Backend
} {
	t.Helper()
	openFS := func(t *testing.T) Backend {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	remoteOver := func(raw func(t *testing.T) RawBackend) func(t *testing.T) Backend {
		return func(t *testing.T) Backend {
			ts := httptest.NewServer(NewHandler(raw(t)))
			t.Cleanup(ts.Close)
			return NewRemote(ts.URL, nil)
		}
	}
	return []struct {
		name string
		make func(t *testing.T) Backend
	}{
		{"fs", openFS},
		{"mem", func(t *testing.T) Backend { return NewMem() }},
		{"remote-over-mem", remoteOver(func(t *testing.T) RawBackend { return NewMem() })},
		{"remote-over-fs", remoteOver(func(t *testing.T) RawBackend {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		})},
	}
}

func TestBackendConformance(t *testing.T) {
	for _, be := range conformanceBackends(t) {
		be := be
		t.Run(be.name, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) {
				b := be.make(t)
				want := Verdict{Killed: true, Reason: 3, KillingCase: "c2", Reached: true, Infected: true}
				if err := b.Put(testKey("m1"), want); err != nil {
					t.Fatal(err)
				}
				var got Verdict
				ok, err := b.Get(testKey("m1"), &got)
				if err != nil || !ok {
					t.Fatalf("Get after Put = (%v, %v), want hit", ok, err)
				}
				if got != want {
					t.Errorf("round-trip verdict = %+v, want %+v", got, want)
				}
				if st := b.Stats(); st.Hits != 1 || st.Misses != 0 {
					t.Errorf("stats after one hit = %+v", st)
				}
			})
			t.Run("CleanMissCounted", func(t *testing.T) {
				b := be.make(t)
				var v Verdict
				ok, err := b.Get(testKey("absent"), &v)
				if err != nil || ok {
					t.Fatalf("Get on empty backend = (%v, %v), want clean miss", ok, err)
				}
				if st := b.Stats(); st.Misses != 1 || st.Hits != 0 || st.Quarantined != 0 {
					t.Errorf("stats after one miss = %+v", st)
				}
			})
			t.Run("Overwrite", func(t *testing.T) {
				b := be.make(t)
				if err := b.Put(testKey("m1"), Verdict{Killed: false}); err != nil {
					t.Fatal(err)
				}
				if err := b.Put(testKey("m1"), Verdict{Killed: true, Reason: 1}); err != nil {
					t.Fatal(err)
				}
				var got Verdict
				if ok, err := b.Get(testKey("m1"), &got); err != nil || !ok {
					t.Fatalf("Get = (%v, %v)", ok, err)
				}
				if !got.Killed || got.Reason != 1 {
					t.Errorf("overwrite not visible: %+v", got)
				}
				if entries, _, err := b.Len(); err != nil || entries != 1 {
					t.Errorf("Len after overwrite = (%d, %v), want 1 entry", entries, err)
				}
			})
			t.Run("KeysIndependent", func(t *testing.T) {
				b := be.make(t)
				if err := b.Put(testKey("m1"), Verdict{Killed: true}); err != nil {
					t.Fatal(err)
				}
				if err := b.Put(testKey("m2"), Verdict{Killed: false, Reached: true}); err != nil {
					t.Fatal(err)
				}
				var v1, v2 Verdict
				if ok, _ := b.Get(testKey("m1"), &v1); !ok || !v1.Killed {
					t.Errorf("m1 = (%v, %+v)", ok, v1)
				}
				if ok, _ := b.Get(testKey("m2"), &v2); !ok || v2.Killed || !v2.Reached {
					t.Errorf("m2 = (%v, %+v)", ok, v2)
				}
				if entries, skipped, err := b.Len(); err != nil || entries != 2 || skipped != 0 {
					t.Errorf("Len = (%d, %d, %v), want (2, 0, nil)", entries, skipped, err)
				}
			})
			t.Run("ArbitraryPayload", func(t *testing.T) {
				// The store also caches case results: any JSON-encodable
				// payload must round-trip, not just Verdict.
				b := be.make(t)
				type payload struct {
					Name  string   `json:"name"`
					Cases []string `json:"cases"`
					N     int      `json:"n"`
				}
				want := payload{Name: "suite", Cases: []string{"a", "b"}, N: 7}
				k := testKey("")
				k.Kind = KindCaseResult
				if err := b.Put(k, want); err != nil {
					t.Fatal(err)
				}
				var got payload
				if ok, err := b.Get(k, &got); err != nil || !ok {
					t.Fatalf("Get = (%v, %v)", ok, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("payload round-trip = %+v, want %+v", got, want)
				}
			})
			t.Run("Enabled", func(t *testing.T) {
				if b := be.make(t); !Enabled(b) {
					t.Error("a constructed backend must report Enabled")
				}
			})
		})
	}
}

func TestEnabled(t *testing.T) {
	if Enabled(nil) {
		t.Error("Enabled(nil) = true")
	}
	if Enabled((*Store)(nil)) {
		t.Error("Enabled(typed-nil *Store) = true — the disabled cache leaked through the interface")
	}
	if !Enabled(NewMem()) {
		t.Error("Enabled(NewMem()) = false")
	}
	if st := BackendStats((*Store)(nil)); st != (Stats{}) {
		t.Errorf("BackendStats on disabled store = %+v", st)
	}
}

// goldenEntry is one (key, value) pair with the entry id and document the
// store has always written for it.
type goldenEntry struct {
	name  string
	key   Key
	value any
	id    string
	doc   string
}

// goldenEntries pins the on-disk entry format: ids and documents must stay
// byte-identical across codec changes, or every existing cache directory
// and shared remote store would silently go cold. The values cover a
// struct whose fields are out of key order (Verdict), an impact case entry
// with BIT sites, escapes and a negative seed, and a string needing HTML
// and U+2028 escapes.
func goldenEntries() []goldenEntry {
	caseKey := Key{Kind: KindCaseResult, Spec: "spec-hash", Suite: "case-hash", Seed: 42, Options: "opt-hash"}
	htmlKey := Key{Kind: KindCaseResult, Spec: "<spec>", Suite: "a&b", Seed: -1, Options: "o"}
	caseEntry := map[string]any{
		"result": map[string]any{
			"CaseID": "ObList-T3-c17", "Transaction": "ObList.AddHead;ObList.RemoveAt;~ObList",
			"Outcome": 2, "Seed": int64(-8070450532247928832), "Method": "RemoveAt",
			"ViolationKind": 1, "Detail": "pre-condition violated: index < GetCount()",
			"Transcript": "AddHead(\"x\") -> ok\nRemoveAt(7) -> error: \"index out of range\"\n\tstate: {count:1}\n",
			"Extra":      nil,
		},
		"sites": []any{
			map[string]any{"kind": "pre-condition", "method": "RemoveAt", "expr": "index >= 0 && index < GetCount()", "evaluated": 2, "violated": 1},
			map[string]any{"kind": "invariant", "method": "AddHead", "expr": "count >= 0", "evaluated": 5, "violated": 0},
		},
		"abandoned": 1,
	}
	return []goldenEntry{
		{"verdict", testKey("m1"),
			Verdict{Killed: true, Reason: 3, KillingCase: "c2", Reached: true, Infected: true},
			"3c3969c2e0b2d75cd3cffa37c2e5119eee0b8e7b3e485327d1f56fed6769fa20",
			`{"key":{"kind":"mutant-verdict","mutant":"m1","options":"opt-hash","seed":42,"spec":"spec-hash","suite":"suite-hash"},"sum":"bd359a568f3e3838cbdd1da4b369c3e85d607439a43fc5ef431c5a9dae4608f2","value":{"infected":true,"killed":true,"killingCase":"c2","reached":true,"reason":3}}` + "\n"},
		{"case-entry", caseKey, caseEntry,
			"2a3b0932ce432d008921014ad41c39eec8bcc51ca02d071c17da855d2aa5b803",
			`{"key":{"kind":"case-result","options":"opt-hash","seed":42,"spec":"spec-hash","suite":"case-hash"},"sum":"2de700ce5c931c9a3977319f552670250cb39eb8064babc866a56c5e4bd3c196","value":{"abandoned":1,"result":{"CaseID":"ObList-T3-c17","Detail":"pre-condition violated: index \u003c GetCount()","Extra":null,"Method":"RemoveAt","Outcome":2,"Seed":-8070450532247928832,"Transaction":"ObList.AddHead;ObList.RemoveAt;~ObList","Transcript":"AddHead(\"x\") -\u003e ok\nRemoveAt(7) -\u003e error: \"index out of range\"\n\tstate: {count:1}\n","ViolationKind":1},"sites":[{"evaluated":2,"expr":"index \u003e= 0 \u0026\u0026 index \u003c GetCount()","kind":"pre-condition","method":"RemoveAt","violated":1},{"evaluated":5,"expr":"count \u003e= 0","kind":"invariant","method":"AddHead","violated":0}]}}` + "\n"},
		{"html-string", htmlKey,
			"<a href=\"x\">&amp;</a> \u2028 tab\there é",
			"7cdb2fc45ea615947f0cf62d1b139889796f8ac0d0f26c70747a94f04a989b14",
			`{"key":{"kind":"case-result","options":"o","seed":-1,"spec":"\u003cspec\u003e","suite":"a\u0026b"},"sum":"3fa88120a1fb0321ef8e251868dcaf1927c238086a3e228f0a8fb211ef3f6898","value":"\u003ca href=\"x\"\u003e\u0026amp;\u003c/a\u003e \u2028 tab\there é"}` + "\n"},
	}
}

// TestEntryGolden checks that the codec and both local backends write the
// pinned bytes, and that pinned documents written by earlier versions are
// still accepted and read back.
func TestEntryGolden(t *testing.T) {
	backends := []struct {
		name string
		make func(t *testing.T) RawBackend
	}{
		{"mem", func(t *testing.T) RawBackend { return NewMem() }},
		{"fs", func(t *testing.T) RawBackend { return mustOpen(t) }},
	}
	for _, g := range goldenEntries() {
		t.Run(g.name, func(t *testing.T) {
			id, doc, err := encodeEntry(g.key, g.value)
			if err != nil {
				t.Fatal(err)
			}
			if id != g.id || string(doc) != g.doc {
				t.Fatalf("encodeEntry = %s\n%s\nwant %s\n%s", id, doc, g.id, g.doc)
			}
			if kid, err := g.key.ID(); err != nil || kid != g.id {
				t.Errorf("Key.ID = %q, %v; want %q", kid, err, g.id)
			}
			// What Get should decode the golden value to.
			want := reflect.New(reflect.TypeOf(g.value))
			if err := json.Unmarshal(mustJSON(t, g.value), want.Interface()); err != nil {
				t.Fatal(err)
			}
			for _, be := range backends {
				b := be.make(t)
				if err := b.Put(g.key, g.value); err != nil {
					t.Fatal(err)
				}
				got, ok, err := b.GetRaw(g.id)
				if err != nil || !ok || string(got) != g.doc {
					t.Errorf("%s: GetRaw after Put = (%v, %v)\n%s\nwant\n%s", be.name, ok, err, got, g.doc)
				}
				if s, isFS := b.(*Store); isFS {
					onDisk, err := os.ReadFile(s.path(g.id))
					if err != nil || string(onDisk) != g.doc {
						t.Errorf("fs: file bytes = %q (%v), want the golden document", onDisk, err)
					}
				}
				fresh := be.make(t)
				if err := fresh.PutRaw(g.id, []byte(g.doc)); err != nil {
					t.Fatalf("%s: PutRaw(golden) = %v", be.name, err)
				}
				out := reflect.New(reflect.TypeOf(g.value))
				if ok, err := fresh.Get(g.key, out.Interface()); err != nil || !ok {
					t.Fatalf("%s: Get(golden) = (%v, %v), want hit", be.name, ok, err)
				}
				if !reflect.DeepEqual(out.Elem().Interface(), want.Elem().Interface()) {
					t.Errorf("%s: Get(golden) = %+v, want %+v", be.name, out.Elem(), want.Elem())
				}
			}
		})
	}
}

// TestEntryGoldenCorruptionRejected tampers with pinned documents: a value
// that no longer matches its digest, a document filed under a foreign id,
// and a truncated document must all be refused with ErrCorrupt.
func TestEntryGoldenCorruptionRejected(t *testing.T) {
	gs := goldenEntries()
	v, c := gs[0], gs[1]
	tampered := strings.Replace(v.doc, `"killed":true`, `"killed":false`, 1)
	if tampered == v.doc {
		t.Fatal("tamper did not apply")
	}
	for _, tc := range []struct{ name, id, doc string }{
		{"value-digest-mismatch", v.id, tampered},
		{"foreign-key", c.id, v.doc},
		{"truncated", c.id, c.doc[:len(c.doc)/2]},
	} {
		if _, err := decodeEntry(tc.id, []byte(tc.doc)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decodeEntry = %v, want ErrCorrupt", tc.name, err)
		}
		for _, b := range []RawBackend{NewMem(), mustOpen(t)} {
			if err := b.PutRaw(tc.id, []byte(tc.doc)); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: %T.PutRaw = %v, want ErrCorrupt", tc.name, b, err)
			}
		}
	}
}

func mustOpen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// entrySink keeps benchmarked documents alive.
var entrySink []byte

// BenchmarkEncodeEntry encodes the pinned impact case entry: the whole
// per-Put codec cost (the key's and the value's canonical encodings, both
// digests, and the document).
func BenchmarkEncodeEntry(b *testing.B) {
	g := goldenEntries()[1]
	b.ReportAllocs()
	var err error
	for i := 0; i < b.N; i++ {
		if _, entrySink, err = encodeEntry(g.key, g.value); err != nil {
			b.Fatal(err)
		}
	}
}
