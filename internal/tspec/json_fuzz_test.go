package tspec

import (
	"bytes"
	"strings"
	"testing"
)

// jsonSeed serializes a text-notation spec into the JSON wire form for the
// fuzz corpus; it fails the fuzzer setup on malformed seed text.
func jsonSeed(f *testing.F, src string) []byte {
	f.Helper()
	spec, err := Parse(src)
	if err != nil {
		f.Fatalf("seed does not parse: %v", err)
	}
	var buf bytes.Buffer
	if err := spec.SaveJSON(&buf); err != nil {
		f.Fatalf("seed does not serialize: %v", err)
	}
	return buf.Bytes()
}

// FuzzJSONRoundTrip asserts the JSON wire form's contract: arbitrary bytes
// never panic LoadJSON, and any input that loads AND validates must survive
// SaveJSON -> LoadJSON with no observable difference — byte-identical
// re-serialization, and DiffSpecs reporting an empty delta (no signature
// drift) whether the round-tripped spec is framed as the next revision of
// the original or as a subclass of it. Run with `go test -fuzz FuzzJSONRoundTrip` for a
// real campaign; the seed corpus runs in ordinary `go test`.
func FuzzJSONRoundTrip(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"class":{"name":"A"}}`))
	f.Add([]byte(`{"class":{"name":"A"},"methods":[{"id":"m1","name":"A","category":"constructor"}]}`))
	f.Add([]byte(`{"class":{"name":"A"},"attributes":[{"name":"x","domain":{"kind":"range","lo":1,"hi":2}}]}`))
	f.Add([]byte(`{"class":{"name":"A"},"nodes":[{"id":"n1","start":true,"methods":["m1"]}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"class":{"name":"A"},"attributes":[{"name":"x","domain":{"kind":"range"}}]}`))
	f.Add(jsonSeed(f, productSpecText))
	f.Add(jsonSeed(f, "Class('A', No, <empty>, <empty>)\nMethod(m1, 'A', <empty>, constructor, 0)"))
	f.Add(jsonSeed(f, "Class('A', Yes, 'B', ['x.cpp'])\nAttribute('s', string, ['a','b'])\nMethod(m1, 'A', <empty>, constructor, 0)"))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := LoadJSON(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// LoadJSON validates, so spec is well-formed. One round trip must be
		// lossless...
		var first bytes.Buffer
		if err := spec.SaveJSON(&first); err != nil {
			t.Fatalf("valid spec failed to serialize: %v", err)
		}
		back, err := LoadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("serialized spec does not reload: %v\n%s", err, first.String())
		}
		// ...and re-serialization must be byte-identical (a fixed point).
		var second bytes.Buffer
		if err := back.SaveJSON(&second); err != nil {
			t.Fatalf("round-tripped spec failed to serialize: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("JSON round trip is not a fixed point:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
		// The text notation must agree too.
		var ft, bt strings.Builder
		if err := spec.Format(&ft); err != nil {
			t.Fatalf("original failed to format: %v", err)
		}
		if err := back.Format(&bt); err != nil {
			t.Fatalf("round-tripped spec failed to format: %v", err)
		}
		if ft.String() != bt.String() {
			t.Fatalf("text forms diverge after JSON round trip:\noriginal:\n%s\nback:\n%s", ft.String(), bt.String())
		}
		// The diff engine's own comparator must see no difference, method by
		// method (keyed by ID, since overloads share a name).
		if len(back.Methods) != len(spec.Methods) {
			t.Fatalf("round trip changed method count: %d -> %d", len(spec.Methods), len(back.Methods))
		}
		overloaded := false
		names := map[string]int{}
		for i, m := range spec.Methods {
			if m.ID != back.Methods[i].ID {
				t.Fatalf("round trip reordered methods: %q -> %q at %d", m.ID, back.Methods[i].ID, i)
			}
			if !sameSignature(m, back.Methods[i]) {
				t.Fatalf("round trip changed the signature of %s (%q)", m.ID, m.Name)
			}
			names[m.Name]++
			if names[m.Name] > 1 {
				overloaded = true
			}
		}
		// For specs without overloads, DiffSpecs end to end must also report
		// no difference, in both frames: the round-tripped spec as the next
		// revision of the original, and as a direct subclass of it with
		// nothing redefined. (With overloads, the name-keyed diff
		// conservatively reports the extra overloads, so neither applies.)
		if !overloaded {
			if d := DiffSpecs(spec, back); !d.Empty() {
				t.Fatalf("round trip changed the spec: revision delta %+v", d)
			}
			child := back.Clone()
			child.Class.Name = spec.Class.Name + "Sub"
			child.Class.Superclass = spec.Class.Name
			child.Redefined = nil
			child.ModifiedAttributes = nil
			if d := DiffSpecs(spec, child); !d.Empty() {
				t.Fatalf("round trip changed the spec: subclass delta %+v", d)
			}
		}
	})
}
