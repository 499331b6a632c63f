package testexec

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"concat/internal/components/account"
	"concat/internal/driver"
	"concat/internal/sandbox/pool"
)

// FuzzServeCaseBatches feeds two arbitrary frame payloads through the case
// server, the one decoder every child process runs. The server must never
// panic, must end cleanly at EOF, and must answer every frame with exactly
// one Done frame: a poisoned one (Error set) when the payload does not
// decode as a batch request, otherwise one item frame per requested case,
// in order, followed by a clean Done frame.
func FuzzServeCaseBatches(f *testing.F) {
	s, err := driver.Generate(account.Spec(), driver.Options{Seed: 11})
	if err != nil {
		f.Fatalf("Generate: %v", err)
	}
	valid, err := json.Marshal(batchRequest{
		Component: account.Name,
		Items:     []batchItem{{Case: s.Cases[0], Seed: 1}, {Case: s.Cases[len(s.Cases)-1], Seed: 2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, []byte(`{"component":"Account","caseTimeoutNs":1,"items":[{"case":{"id":"T"}}]}`))
	f.Add([]byte(`{"component":"Nope","items":[{},{}]}`), []byte(`not json`))
	f.Add([]byte(``), []byte(`{"items":null}`))
	f.Add([]byte(`{"component":"Account","stepBudget":1,"maxTranscriptBytes":1,"trace":true,"items":[{"case":{"calls":[{"method":"Withdraw"}]}}]}`), valid)

	resolve := func(name string, _ json.RawMessage) (Resolved, error) {
		if name != account.Name {
			return Resolved{}, errors.New("stub resolver knows only Account")
		}
		return Resolved{Factory: account.NewFactory()}, nil
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var in bytes.Buffer
		for _, payload := range [][]byte{a, b} {
			if err := pool.WriteFrame(&in, payload); err != nil {
				t.Fatal(err)
			}
		}
		var out bytes.Buffer
		if err := ServeCaseBatches(&in, &out, resolve); err != nil {
			t.Fatalf("ServeCaseBatches: %v", err)
		}
		br := bufio.NewReader(&out)
		next := func() batchResponse {
			t.Helper()
			frame, err := pool.ReadFrame(br, 0)
			if err != nil {
				t.Fatalf("reading response frame: %v", err)
			}
			var resp batchResponse
			if err := json.Unmarshal(frame, &resp); err != nil {
				t.Fatalf("decoding response frame %q: %v", frame, err)
			}
			return resp
		}
		for _, payload := range [][]byte{a, b} {
			var req batchRequest
			if json.Unmarshal(payload, &req) != nil {
				if done := next(); !done.Done || done.Error == "" {
					t.Fatalf("undecodable request answered with %+v, want a poisoned Done frame", done)
				}
				continue
			}
			for i := range req.Items {
				item := next()
				if item.Done || item.Index != i || (item.Result == nil) == (item.Error == "") {
					t.Fatalf("item %d answered with %+v, want exactly one result or error", i, item)
				}
			}
			if done := next(); !done.Done || done.Error != "" || done.Index != len(req.Items) {
				t.Fatalf("batch of %d items ended with %+v, want a clean Done frame", len(req.Items), done)
			}
		}
		if _, err := pool.ReadFrame(br, 0); err != io.EOF {
			t.Fatalf("extra output after the last Done frame: %v", err)
		}
	})
}
