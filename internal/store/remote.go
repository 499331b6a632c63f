// The HTTP remote backend: a client (Remote) speaking the remote-store
// protocol against any node that mounts NewHandler, so one node's warm
// cache serves every other node. The protocol moves verbatim entry
// documents, and *both* ends verify integrity — the server before storing
// a remote write, the client before trusting a fetched document — so a
// corrupt or lying peer degrades to cache misses, never wrong verdicts.
//
//	GET /store/{id}   fetch the entry document (404 on miss, 400 bad id)
//	PUT /store/{id}   store a verified document (204; 400 on corruption)
//	GET /store        entry counts plus the serving backend's counters
//
// Workers default to publishing through their coordinator's /store mount,
// which gives a fleet a shared verdict store with no shared filesystem.

package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
)

// maxEntryBytes bounds a single entry document on the wire; case-result
// entries embed whole transcripts but stay far below this.
const maxEntryBytes = 64 << 20

// Remote is the client backend over a peer's mounted store handler. All
// methods are safe for concurrent use.
type Remote struct {
	base   string
	client *http.Client

	hits, misses atomic.Int64
	quarantined  atomic.Int64
}

// NewRemote returns a backend over the store mounted at base — the peer's
// service root, e.g. "http://127.0.0.1:8437". A nil client uses
// http.DefaultClient.
func NewRemote(base string, client *http.Client) *Remote {
	if client == nil {
		client = http.DefaultClient
	}
	return &Remote{base: strings.TrimSuffix(base, "/"), client: client}
}

func (r *Remote) entryURL(id string) string {
	return r.base + "/store/" + id
}

// Get fetches and locally verifies the entry document for the key. A 404
// is a counted clean miss; a document that fails verification — the server
// is corrupt or lying — is counted as quarantined and read as a miss, so
// the caller re-executes rather than trusting it. Network and server
// errors surface as errors: the caller cannot tell a miss from an outage,
// and silently re-executing against a dead shared store would fork the
// fleet's view of the campaign.
func (r *Remote) Get(k Key, out any) (bool, error) {
	id, err := k.ID()
	if err != nil {
		return false, err
	}
	resp, err := r.client.Get(r.entryURL(id))
	if err != nil {
		r.misses.Add(1)
		return false, fmt.Errorf("store: remote get %s: %w", id, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		r.misses.Add(1)
		return false, nil
	default:
		r.misses.Add(1)
		return false, fmt.Errorf("store: remote get %s: HTTP %d", id, resp.StatusCode)
	}
	doc, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
	if err != nil {
		r.misses.Add(1)
		return false, fmt.Errorf("store: remote get %s: reading body: %w", id, err)
	}
	e, err := decodeEntry(id, doc)
	if err != nil {
		r.quarantined.Add(1)
		r.misses.Add(1)
		return false, nil
	}
	if err := json.Unmarshal(e.Value, out); err != nil {
		r.quarantined.Add(1)
		r.misses.Add(1)
		return false, nil
	}
	r.hits.Add(1)
	return true, nil
}

// Put encodes the entry locally — so the bytes on the wire are exactly
// what a local Put would have written — and publishes it to the peer.
func (r *Remote) Put(k Key, value any) error {
	id, doc, err := encodeEntry(k, value)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, r.entryURL(id), bytes.NewReader(doc))
	if err != nil {
		return fmt.Errorf("store: remote put %s: %w", id, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("store: remote put %s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("store: remote put %s: HTTP %d: %s", id, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// dirInfo is the GET /store response document.
type dirInfo struct {
	Entries int   `json:"entries"`
	Skipped int   `json:"skipped"`
	Stats   Stats `json:"stats"`
}

// Len asks the peer for its entry counts.
func (r *Remote) Len() (entries, skipped int, err error) {
	resp, err := r.client.Get(r.base + "/store")
	if err != nil {
		return 0, 0, fmt.Errorf("store: remote len: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("store: remote len: HTTP %d", resp.StatusCode)
	}
	var d dirInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&d); err != nil {
		return 0, 0, fmt.Errorf("store: remote len: %w", err)
	}
	return d.Entries, d.Skipped, nil
}

// Stats snapshots the client-side counters: this node's hits, misses, and
// quarantined fetches against the remote store. The peer's own counters
// are on its GET /store document and /metrics.
func (r *Remote) Stats() Stats {
	return Stats{Hits: r.hits.Load(), Misses: r.misses.Load(), Quarantined: r.quarantined.Load()}
}

// NewHandler serves the remote-store protocol over b. The handler routes
// GET /store, GET /store/{id}, and PUT /store/{id} (Go 1.22 patterns), so
// it can be mounted per-pattern on a service mux or served standalone.
func NewHandler(b RawBackend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /store/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !isEntryID(id) {
			storeError(w, http.StatusBadRequest, fmt.Sprintf("malformed entry id %q", id))
			return
		}
		doc, ok, err := b.GetRaw(id)
		if err != nil {
			storeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if !ok {
			storeError(w, http.StatusNotFound, "no entry "+id)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc)
	})
	mux.HandleFunc("PUT /store/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if !isEntryID(id) {
			storeError(w, http.StatusBadRequest, fmt.Sprintf("malformed entry id %q", id))
			return
		}
		doc, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxEntryBytes))
		if err != nil {
			storeError(w, http.StatusBadRequest, "reading entry document: "+err.Error())
			return
		}
		switch err := b.PutRaw(id, doc); {
		case errors.Is(err, ErrCorrupt):
			storeError(w, http.StatusBadRequest, err.Error())
		case err != nil:
			storeError(w, http.StatusInternalServerError, err.Error())
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	mux.HandleFunc("GET /store", func(w http.ResponseWriter, r *http.Request) {
		entries, skipped, err := b.Len()
		if err != nil {
			storeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		doc, _ := json.Marshal(dirInfo{Entries: entries, Skipped: skipped, Stats: b.Stats()})
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(doc, '\n'))
	})
	return mux
}

// storeError writes the protocol's JSON error document.
func storeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	doc, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(doc, '\n'))
}
