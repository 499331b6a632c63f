// Table-driven error-path coverage for the whole HTTP surface: unknown
// IDs, malformed bodies, wrong methods, and the remote-store and shard
// endpoints' error codes. Real multi-node clients hit these paths first.

package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"concat/internal/store"
)

func TestHTTPErrorPaths(t *testing.T) {
	fs, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: fs})
	absentID := strings.Repeat("a", 64)
	oversized := `{"component": "Account", "methods": ["` + strings.Repeat("a", maxBodyBytes) + `"]}`
	specRaw, _ := specJSON(t, "Account")
	impactBody := `{"oldSpec": ` + string(specRaw) + `, "newSpec": ` + string(specRaw) + `}`

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"status unknown id", http.MethodGet, "/campaigns/zz", "", http.StatusNotFound},
		{"report unknown id", http.MethodGet, "/campaigns/zz/report", "", http.StatusNotFound},
		{"coverage unknown id", http.MethodGet, "/campaigns/zz/coverage", "", http.StatusNotFound},
		{"events unknown id", http.MethodGet, "/campaigns/zz/events", "", http.StatusNotFound},
		{"submit malformed json", http.MethodPost, "/campaigns", "{not json", http.StatusBadRequest},
		{"submit unknown field", http.MethodPost, "/campaigns", `{"bogus": 1}`, http.StatusBadRequest},
		{"submit unknown component", http.MethodPost, "/campaigns", `{"component": "NoSuch"}`, http.StatusBadRequest},
		{"submit negative shards", http.MethodPost, "/campaigns", `{"component": "Account", "shards": -1}`, http.StatusBadRequest},
		{"submit negative alt", http.MethodPost, "/campaigns", `{"component": "Account", "alt": -1}`, http.StatusBadRequest},
		{"submit negative loop bound", http.MethodPost, "/campaigns", `{"component": "Account", "loopBound": -1}`, http.StatusBadRequest},
		{"submit negative pool size", http.MethodPost, "/campaigns", `{"component": "Account", "poolSize": -1}`, http.StatusBadRequest},
		{"submit trailing garbage", http.MethodPost, "/campaigns", `{"component": "Account"} garbage`, http.StatusBadRequest},
		{"submit two values", http.MethodPost, "/campaigns", `{"component": "Account"} {"component": "Account"}`, http.StatusBadRequest},
		{"submit oversized body", http.MethodPost, "/campaigns", oversized, http.StatusRequestEntityTooLarge},
		{"impact trailing garbage", http.MethodPost, "/impact", impactBody + " garbage", http.StatusBadRequest},
		{"impact oversized body", http.MethodPost, "/impact", oversized, http.StatusRequestEntityTooLarge},
		{"campaigns wrong method", http.MethodDelete, "/campaigns", "", http.StatusMethodNotAllowed},
		{"status wrong method", http.MethodPost, "/campaigns/zz", "", http.StatusMethodNotAllowed},
		{"metrics wrong method", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed},
		{"store malformed id", http.MethodGet, "/store/not-a-hash", "", http.StatusBadRequest},
		{"store absent entry", http.MethodGet, "/store/" + absentID, "", http.StatusNotFound},
		{"store wrong method", http.MethodDelete, "/store/" + absentID, "", http.StatusMethodNotAllowed},
		{"store corrupt put", http.MethodPut, "/store/" + absentID, `{"key":{"kind":"mutant-verdict"},"sum":"x","value":{}}`, http.StatusBadRequest},
		{"store dir wrong method", http.MethodPut, "/store", "", http.StatusMethodNotAllowed},
		{"lease wrong method", http.MethodGet, "/work/lease", "", http.StatusMethodNotAllowed},
		{"shard done unknown campaign", http.MethodPost, "/work/zz/shards/0", `{"epoch": 1}`, http.StatusNotFound},
		{"shard done malformed index", http.MethodPost, "/work/zz/shards/x", `{"epoch": 1}`, http.StatusBadRequest},
		{"shard done malformed body", http.MethodPost, "/work/zz/shards/0", "{", http.StatusBadRequest},
		{"shard done trailing data", http.MethodPost, "/work/zz/shards/0", `{"epoch": 1} {}`, http.StatusBadRequest},
		{"shard done oversized body", http.MethodPost, "/work/zz/shards/0", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s = HTTP %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}

// TestStoreEndpointsAbsentWithoutStore: a server with no store configured
// must not expose the remote-store protocol at all.
func TestStoreEndpointsAbsentWithoutStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/store")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /store without a store = HTTP %d, want 404", resp.StatusCode)
	}
}
