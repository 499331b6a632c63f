package canon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// sink keeps benchmarked results alive.
var sink []byte

func TestMarshalSortsKeys(t *testing.T) {
	got, err := Marshal(map[string]any{"zeta": 1, "alpha": 2, "mid": map[string]any{"b": 1, "a": 2}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"alpha":2,"mid":{"a":2,"b":1},"zeta":1}`
	if string(got) != want {
		t.Errorf("canonical form = %s, want %s", got, want)
	}
}

func TestKeyOrderIndependence(t *testing.T) {
	a, err := Canonicalize([]byte(`{"x": 1, "y": [true, null, {"k": "v", "j": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize([]byte(`{"y":[true,null,{"j":2,"k":"v"}],"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same document, different canonical forms:\n%s\n%s", a, b)
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	docs := []string{
		`{"b":1,"a":[1,2.5,-3e10,"s",null,true]}`,
		`[]`, `{}`, `null`, `"plain"`, `42`, `-0.125`,
		`{"nested":{"deep":{"deeper":[{"z":0,"a":9}]}}}`,
		`{"esc":"a\"b\\c<&>"}`,
		`{"dup":1,"dup":2,"a":{"y":1,"x":2,"y":3}}`,
		`{"\u0062":1,"a":"\/\u0041\u00e9\u003C","\u003c":[]}`,
	}
	for _, doc := range docs {
		once, err := Canonicalize([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		twice, err := Canonicalize(once)
		if err != nil {
			t.Fatalf("%s: second pass: %v", doc, err)
		}
		if !bytes.Equal(once, twice) {
			t.Errorf("%s: not idempotent:\n%s\n%s", doc, once, twice)
		}
	}
}

func TestNumbersPreserveLiteral(t *testing.T) {
	// The number literal passes through untouched — no float re-parse drift.
	got, err := Canonicalize([]byte(`{"n": 0.1, "big": 9007199254740993, "exp": 1e100}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, lit := range []string{"0.1", "9007199254740993", "1e100"} {
		if !strings.Contains(string(got), lit) {
			t.Errorf("literal %q lost: %s", lit, got)
		}
	}
}

func TestStableFloatAndNilHandling(t *testing.T) {
	type payload struct {
		F   float64  `json:"f"`
		P   *int     `json:"p"`
		Arr []string `json:"arr"`
	}
	x, y := 0.1, 0.2
	a, err := Marshal(payload{F: 0.30000000000000004})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(payload{F: x + y})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("same float value, different encodings: %s vs %s", a, b)
	}
	if !strings.Contains(string(a), `"p":null`) || !strings.Contains(string(a), `"arr":null`) {
		t.Errorf("nil handling changed: %s", a)
	}
}

func TestHashDiffersOnContent(t *testing.T) {
	h1, err := Hash(map[string]int{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Hash(map[string]int{"a": 2})
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Error("different content, same hash")
	}
	if len(h1) != 64 {
		t.Errorf("hash length %d, want 64 hex chars", len(h1))
	}
	h3, err := Hash(map[string]int{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h3 {
		t.Error("same content, different hash")
	}
}

func TestRejectsInvalid(t *testing.T) {
	for _, doc := range []string{
		``, `{`, `{"a":1} trailing`, `nan`,
		// A stray closing delimiter is trailing data too.
		`{"a":1}}`, `[1]]`, `1}`, `"x"]`,
	} {
		if _, err := Canonicalize([]byte(doc)); err == nil {
			t.Errorf("Canonicalize(%q) should fail", doc)
		}
	}
	// NaN cannot become part of a cache key.
	if _, err := Marshal(map[string]float64{"f": nan()}); err == nil {
		t.Error("Marshal of NaN should fail")
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

// FuzzCanonicalize checks, for arbitrary JSON documents, that
// canonicalization is idempotent and preserves the decoded value.
func FuzzCanonicalize(f *testing.F) {
	for _, seed := range []string{
		`{"b":1,"a":2}`, `[1,2,3]`, `"s"`, `null`, `true`, `-1.5e-3`,
		`{"deep":[{"z":null,"a":[{}]},"x"]}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		once, err := Canonicalize([]byte(doc))
		if err != nil {
			t.Skip() // not a single valid JSON document
		}
		twice, err := Canonicalize(once)
		if err != nil {
			t.Fatalf("canonical output not re-canonicalizable: %q -> %s: %v", doc, once, err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("not idempotent: %q -> %s -> %s", doc, once, twice)
		}
		var orig, canon any
		d := json.NewDecoder(strings.NewReader(doc))
		d.UseNumber()
		if err := d.Decode(&orig); err != nil {
			t.Skip()
		}
		d = json.NewDecoder(bytes.NewReader(once))
		d.UseNumber()
		if err := d.Decode(&canon); err != nil {
			t.Fatalf("canonical form does not parse: %s", once)
		}
	})
}

// referenceCanonicalize is the previous decode-to-any algorithm, kept as
// the oracle the byte-level walker is checked against: decode into
// map[string]any with json.Number, then re-encode with sorted keys and
// json.Marshal-escaped strings.
func referenceCanonicalize(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var node any
	if err := dec.Decode(&node); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after JSON value")
	}
	var buf bytes.Buffer
	if err := referenceWrite(&buf, node); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func referenceWrite(buf *bytes.Buffer, node any) error {
	switch x := node.(type) {
	case nil:
		buf.WriteString("null")
	case bool:
		if x {
			buf.WriteString("true")
		} else {
			buf.WriteString("false")
		}
	case json.Number:
		buf.WriteString(x.String())
	case string:
		enc, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(enc)
	case []any:
		buf.WriteByte('[')
		for i, elem := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := referenceWrite(buf, elem); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			enc, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(enc)
			buf.WriteByte(':')
			if err := referenceWrite(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	default:
		return fmt.Errorf("unexpected node type %T", node)
	}
	return nil
}

// trailingBytes reports whether anything but whitespace follows the first
// JSON value in doc.
func trailingBytes(doc []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(doc))
	var v any
	if err := dec.Decode(&v); err != nil {
		return false
	}
	return len(bytes.TrimSpace(doc[dec.InputOffset():])) > 0
}

// FuzzCanonicalizeMatchesReference checks the byte-level walker against
// the decode-to-any reference: whenever both accept a document they
// produce the same bytes, and the walker never accepts a document the
// reference rejects. The walker is stricter in one way only: it rejects a
// stray closing delimiter after the value, which the reference's
// Decoder.More lets through.
func FuzzCanonicalizeMatchesReference(f *testing.F) {
	for _, seed := range []string{
		`{"b":1,"a":2}`, `[1,2,3]`, `"s"`, `null`, `true`, `false`, `-1.5e-3`,
		`{"deep":[{"z":null,"a":[{}]},"x"]}`, ` { "a" : [ 1 , 2 ] } `, `{"a":1}}`, `[1]]`,
		// Duplicates: the last wins, at every depth.
		`{"b":1,"a":2,"b":3,"a":{"z":0,"z":[1]}}`,
		// Escaped names sort by their decoded text: "\u003c" is "<",
		// which sorts before "a", and "\u0062" is "b".
		`{"\u0062":1,"a":2,"\u003c":3}`,
		// Strings the encoder writes as they are, and strings it would
		// write differently: each must come out as json.Marshal writes it.
		// One suspect per literal, so a wrong fast path cannot hide
		// behind another escape that forces the slow one.
		`"tab\tnl\ncr\rq\"bs\\"`, `"\u0001\u001f\u007f"`, `"\u003c\u003e\u0026"`,
		`"\u2028\u2029"`, `"\b"`, `"\f"`, `"\u0008"`, `"\u000c"`, `"\u000a"`, `"\/"`,
		`"\u0041"`, `"\u00e9"`, `"\u003C"`, `"<"`, `">"`, `"&"`, "\"\u2028\"", "\"\u2029\"",
		"\"\xff\"", `"\ud83d\ude00"`, `"\ud800"`, `"é😀"`,
		`{"r":{"T":"a\u003eb\n","S":[{"k":"x","e":"c \u003e= 0"}]}}`,
	} {
		f.Add([]byte(seed))
	}
	if doc, err := os.ReadFile("testdata/caseentry.json"); err == nil {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := Canonicalize(doc)
		want, refErr := referenceCanonicalize(doc)
		switch {
		case err == nil && refErr != nil:
			t.Fatalf("walker accepts %q, reference rejects it: %v", doc, refErr)
		case err == nil && !bytes.Equal(got, want):
			t.Fatalf("%q:\nwalker    %s\nreference %s", doc, got, want)
		case err != nil && refErr == nil && !trailingBytes(doc):
			t.Fatalf("walker rejects %q, reference accepts it: %v", doc, err)
		}
	})
}

// BenchmarkCanonicalize canonicalizes a real stored impact case entry (an
// ObList case's result and BIT sites, as json.Marshal writes it) — the
// value half of every store Put during an impact re-run.
func BenchmarkCanonicalize(b *testing.B) {
	doc, err := os.ReadFile("testdata/caseentry.json")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sink, err = Canonicalize(doc); err != nil {
			b.Fatal(err)
		}
	}
}
