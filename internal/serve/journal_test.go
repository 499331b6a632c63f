package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []JobRecord{
		{Seq: 1, ID: "c1", Req: Request{Component: "Account"}, State: StateDone,
			Attempts: 1, Report: []byte("report\n"), Artifact: []byte(`{"v":1}`),
			Summary: &Status{ID: "c1", Component: "Account", State: StateDone, Mutants: 8, Killed: 8}},
		{Seq: 2, ID: "c2", Req: Request{Component: "Account", Seed: 7}, State: StateRunning, Attempts: 2},
		{Seq: 3, ID: "c3", Req: Request{Component: "Product"}, State: StateQueued},
	}
	// Append out of order; replay must sort by Seq.
	for _, i := range []int{2, 0, 1} {
		if err := jn.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, corrupt, err := jn.Replay()
	if err != nil || corrupt != 0 {
		t.Fatalf("Replay = corrupt %d, err %v", corrupt, err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
	for i, rec := range got {
		if rec.Seq != i+1 {
			t.Errorf("record %d has seq %d, want %d", i, rec.Seq, i+1)
		}
	}
	if !bytes.Equal(got[0].Report, recs[0].Report) || got[0].Summary == nil || got[0].Summary.Mutants != 8 {
		t.Errorf("terminal record lost its payload: %+v", got[0])
	}
	if got[1].State != StateRunning || got[1].Attempts != 2 {
		t.Errorf("running record = %+v", got[1])
	}
}

func TestJournalLatestStateWins(t *testing.T) {
	jn, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{Seq: 1, ID: "c1", Req: Request{Component: "Account"}, State: StateQueued}
	for _, state := range []string{StateQueued, StateRunning, StateDone} {
		rec.State = state
		if err := jn.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := jn.Replay()
	if err != nil || len(got) != 1 {
		t.Fatalf("Replay = %d records, %v; want 1", len(got), err)
	}
	if got[0].State != StateDone {
		t.Errorf("state = %q, want the latest (done)", got[0].State)
	}
}

func TestJournalCanonicalBytes(t *testing.T) {
	// The same record journals byte-identical files — the property that
	// makes journal directories diffable across runs and machines.
	write := func() []byte {
		dir := t.TempDir()
		jn, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec := JobRecord{Seq: 4, ID: "c4", Req: Request{Component: "Account", Seed: 9, Expand: true},
			State: StateDone, Attempts: 1, Report: []byte("tbl\n")}
		if err := jn.Append(rec); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "job-00000004.json"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if a, b := write(), write(); !bytes.Equal(a, b) {
		t.Errorf("same record, different bytes:\n%s\n%s", a, b)
	}
}

func TestJournalCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := JobRecord{Seq: 1, ID: "c1", Req: Request{Component: "Account"}, State: StateQueued}
	if err := jn.Append(good); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"job-00000002.json": "{torn",                          // invalid JSON
		"job-00000003.json": `{"seq":0,"id":"","state":""}`,   // fails validation
		"job-00000004.json": `{"seq":4,"id":"c4","state":""}`, // missing state
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs, corrupt, err := jn.Replay()
	if err != nil {
		t.Fatalf("Replay must not fail on corrupt records: %v", err)
	}
	if corrupt != 3 {
		t.Errorf("corrupt = %d, want 3", corrupt)
	}
	if len(recs) != 1 || recs[0].ID != "c1" {
		t.Errorf("good record lost: %+v", recs)
	}
	aside, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(aside) != 3 {
		t.Errorf("corrupt records renamed aside = %v (%v), want 3", aside, err)
	}
	// A second replay is stable: quarantined files stay out of the way.
	if _, corrupt2, _ := jn.Replay(); corrupt2 != 0 {
		t.Errorf("second replay found %d corrupt records, want 0", corrupt2)
	}
}

func TestJournalRejectsInvalidRecord(t *testing.T) {
	jn, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []JobRecord{
		{},
		{Seq: 1, State: StateQueued},
		{Seq: 1, ID: "c1"},
		{Seq: 1, ID: "c2", State: StateQueued},
		{Seq: 1, ID: "c1", State: "exploded"},
	} {
		if err := jn.Append(rec); err == nil {
			t.Errorf("Append(%+v) succeeded, want validation error", rec)
		}
	}
}

func TestJournalCheckpointRoundTrip(t *testing.T) {
	jn, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := jn.LastCheckpoint(); ok {
		t.Error("fresh journal has a checkpoint")
	}
	if err := jn.Checkpoint(Checkpoint{Clean: true, Active: 0}); err != nil {
		t.Fatal(err)
	}
	cp, ok := jn.LastCheckpoint()
	if !ok || !cp.Clean || cp.Active != 0 {
		t.Errorf("checkpoint = %+v, %v", cp, ok)
	}
	if err := jn.Checkpoint(Checkpoint{Clean: false, Active: 2}); err != nil {
		t.Fatal(err)
	}
	if cp, ok := jn.LastCheckpoint(); !ok || cp.Clean || cp.Active != 2 {
		t.Errorf("overwritten checkpoint = %+v, %v", cp, ok)
	}
}

func TestNilJournalDisabled(t *testing.T) {
	var jn *Journal
	if err := jn.Append(JobRecord{Seq: 1, ID: "c1", State: StateQueued}); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if recs, corrupt, err := jn.Replay(); recs != nil || corrupt != 0 || err != nil {
		t.Errorf("nil Replay = %v, %d, %v", recs, corrupt, err)
	}
	if err := jn.Checkpoint(Checkpoint{}); err != nil {
		t.Errorf("nil Checkpoint: %v", err)
	}
	if _, ok := jn.LastCheckpoint(); ok {
		t.Error("nil journal has a checkpoint")
	}
	if jn.Dir() != "" {
		t.Error("nil journal has a dir")
	}
}

func TestOpenJournalValidates(t *testing.T) {
	if _, err := OpenJournal(""); err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("OpenJournal(\"\") = %v, want error", err)
	}
}

// TestJournalReplayQuarantinesMisfiledRecords: a record that parses but
// could not have been journaled under its file name is corrupt. A copied
// record file would otherwise replay one job twice.
func TestJournalReplayQuarantinesMisfiledRecords(t *testing.T) {
	dir := t.TempDir()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Append(JobRecord{Seq: 1, ID: "c1", Req: Request{Component: "Account"},
		State: StateDone, Report: []byte("report\n")}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "job-00000001.json"))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"job-00000002.json": string(raw),                              // copy of c1
		"job-00000003.json": `{"seq":3,"id":"c9","state":"done"}`,     // ID is not c<Seq>
		"job-00000004.json": `{"seq":4,"id":"c4","state":"exploded"}`, // unknown state
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, _ := newTestServer(t, Config{Journal: jn})
	<-s.ready
	var ids []string
	for _, j := range s.Jobs() {
		ids = append(ids, j.ID)
	}
	if len(ids) != 1 || ids[0] != "c1" {
		t.Errorf("replayed jobs = %v, want [c1]", ids)
	}
	if got := counterValue(s, "journal.corrupt"); got != 3 {
		t.Errorf("journal.corrupt = %d, want 3", got)
	}
	aside, err := filepath.Glob(filepath.Join(dir, "*.corrupt"))
	if err != nil || len(aside) != 3 {
		t.Errorf("records renamed aside = %v (%v), want 3", aside, err)
	}
}

// FuzzJournalReplay feeds one arbitrary record file to Replay: it never
// fails or panics, the file is either replayed or quarantined, and every
// replayed record is one the server could have journaled under that name.
func FuzzJournalReplay(f *testing.F) {
	f.Add(1, []byte(`{"id":"c1","req":{"component":"Account"},"seq":1,"state":"queued"}`))
	f.Add(2, []byte(`{"id":"c1","req":{"component":"Account"},"seq":1,"state":"done"}`))
	f.Add(3, []byte(`{"id":"c3","seq":3,"state":"exploded"}`))
	f.Add(4, []byte(`{"id":"c4","seq":4,"state":"running","attempts":2,"summary":{"id":"c4"}}`))
	f.Add(5, []byte("{torn"))
	f.Add(0, []byte(`{"id":"c0","seq":0,"state":"queued"}`))
	f.Fuzz(func(t *testing.T, seq int, data []byte) {
		dir := t.TempDir()
		jn, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		name := recordName(seq)
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Skip(err) // a name the filesystem refuses is not a record file
		}
		recs, corrupt, err := jn.Replay()
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if len(recs)+corrupt != 1 {
			t.Fatalf("one record file gave %d records and %d corrupt", len(recs), corrupt)
		}
		for _, rec := range recs {
			if !rec.valid() || recordName(rec.Seq) != name {
				t.Fatalf("replayed an invalid record from %s: %+v", name, rec)
			}
		}
	})
}

// TestReplayParentJournal replays a journal written by the previous release
// of the service (testdata/journal-parent: a done mutation job, a done
// impact job, a quarantined job and a job queued for its third attempt).
// The statuses after replay must be byte-equal to the ones that release
// served, the journaled report, coverage and impact bytes must be served
// verbatim, the queued job must re-run as attempt 3, and the terminal record
// it then writes must be byte-equal to the one that release wrote.
func TestReplayParentJournal(t *testing.T) {
	golden := filepath.Join("testdata", "journal-parent")
	dir := t.TempDir()
	recs := map[string]JobRecord{}
	for seq := 1; seq <= 4; seq++ {
		raw, err := os.ReadFile(filepath.Join(golden, recordName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, recordName(seq)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var rec JobRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		recs[rec.ID] = rec
	}
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Journal: jn})
	if got := counterValue(s, "journal.replayed"); got != 1 {
		t.Errorf("replayed %d pending jobs, want 1 (c4)", got)
	}
	j4, ok := s.Job("c4")
	if !ok {
		t.Fatal("queued job c4 not replayed")
	}
	waitDone(t, j4)
	s.waitIdle(time.Time{}) // the terminal record is journaled after Done closes

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	want, err := os.ReadFile(filepath.Join(golden, "status.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, got := get("/campaigns"); !bytes.Equal(got, want) {
		t.Errorf("statuses after replay deviate from the parent's:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	for _, id := range []string{"c1", "c2"} {
		rec := recs[id]
		for path, want := range map[string][]byte{
			"/report": rec.Report, "/coverage": rec.Artifact, "/impact": rec.Impact,
		} {
			code, got := get("/campaigns/" + id + path)
			if len(want) == 0 {
				if code != http.StatusNotFound {
					t.Errorf("%s%s = HTTP %d, want 404", id, path, code)
				}
				continue
			}
			if code != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%s%s = HTTP %d, not the journaled bytes", id, path, code)
			}
		}
	}
	if code, _ := get("/campaigns/c3/report"); code != http.StatusInternalServerError {
		t.Errorf("quarantined c3 report = HTTP %d, want 500", code)
	}
	if a := j4.Attempts(); a != 3 {
		t.Errorf("c4 attempts = %d, want 3", a)
	}
	// c1..c3 are terminal and never rewritten; c4's done record is the one
	// the parent journaled for the same history.
	for seq := 1; seq <= 4; seq++ {
		wantPath := filepath.Join(golden, recordName(seq))
		if seq == 4 {
			wantPath = filepath.Join(golden, "after", recordName(seq))
		}
		want, err := os.ReadFile(wantPath)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, recordName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("journal record %s deviates from the parent's:\n--- got ---\n%s\n--- want ---\n%s", recordName(seq), got, want)
		}
	}
}
