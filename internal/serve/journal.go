// The write-ahead job journal: one canonical-JSON record file per job,
// rewritten through temp+rename+fsync on every state transition, so the set
// of submitted campaigns survives any process death. Submit appends the
// queued record *before* the job becomes runnable (write-ahead), terminal
// records carry the rendered report and coverage artifact bytes, and a
// restarted server replays every non-terminal record back into its queue —
// with the verdict store turning the re-execution into warm, byte-identical
// replay. Records are canonical JSON (internal/core/canon), so the same job
// state always journals byte-identical files.

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"concat/internal/core/canon"
	"concat/internal/serve/chaos"
)

// ErrJournal wraps journal write failures surfaced by Submit: the service
// refuses to accept a campaign it cannot make durable. The HTTP layer maps
// it to 500 Internal Server Error.
var ErrJournal = errors.New("serve: journal write failed")

// JobRecord is one journaled job state — the durable form of a Job. A
// record file always holds the job's *latest* state; terminal records embed
// the artifacts a restarted server must keep serving.
type JobRecord struct {
	// Seq is the numeric job sequence (the N of job ID "cN"); record files
	// sort and replay in Seq order so restarted IDs stay stable.
	Seq int `json:"seq"`
	// ID is the job ID ("c12").
	ID string `json:"id"`
	// Req is the original submission, replayed verbatim.
	Req Request `json:"req"`
	// State is the journaled job state (queued/running/done/failed/
	// quarantined).
	State string `json:"state"`
	// Attempts counts execution attempts begun, including one interrupted
	// by the crash this record may be replayed after.
	Attempts int `json:"attempts,omitempty"`
	// Error is the terminal error message for failed/quarantined records.
	Error string `json:"error,omitempty"`
	// Report is the rendered report of a done job (base64 in JSON).
	Report []byte `json:"report,omitempty"`
	// Artifact is the canonical coverage artifact of a done job.
	Artifact []byte `json:"artifact,omitempty"`
	// Impact is the canonical impact artifact of a done impact job.
	Impact []byte `json:"impact,omitempty"`
	// Summary is the terminal status snapshot (mutant totals, cache
	// counters, coverage line), restored verbatim after a restart.
	Summary *Status `json:"summary,omitempty"`
}

// Checkpoint is the graceful-shutdown marker Drain writes: whether the
// queue fully quiesced and how many jobs were still active when the
// process stopped admitting work.
type Checkpoint struct {
	Clean  bool `json:"clean"`
	Active int  `json:"active"`
}

// checkpointFile is the checkpoint's name inside the journal directory.
const checkpointFile = "checkpoint.json"

// Journal is the directory-backed write-ahead job journal. A nil *Journal
// is the disabled journal: Append and Checkpoint succeed without writing,
// Replay returns nothing — call sites thread it without checks. All
// methods are safe for concurrent use.
type Journal struct {
	dir string
	// Faults, when non-nil, lets the chaos kit fail writes.
	Faults *chaos.Faults

	mu sync.Mutex
}

// OpenJournal opens (creating if needed) a journal rooted at dir.
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, errors.New("serve: empty journal directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating journal %s: %w", dir, err)
	}
	return &Journal{dir: dir}, nil
}

// Dir returns the journal's root directory ("" on a nil journal).
func (jn *Journal) Dir() string {
	if jn == nil {
		return ""
	}
	return jn.dir
}

// recordPath names a record file; zero-padded Seq keeps lexical directory
// order equal to replay order.
func (jn *Journal) recordPath(seq int) string {
	return filepath.Join(jn.dir, recordName(seq))
}

func recordName(seq int) string {
	return fmt.Sprintf("job-%08d.json", seq)
}

// valid reports whether the record is one a Server journals: a positive
// Seq, the ID c<Seq> and a known job state.
func (rec JobRecord) valid() bool {
	return rec.Seq > 0 && rec.ID == fmt.Sprintf("c%d", rec.Seq) && slices.Contains(jobStates, rec.State)
}

// Append durably writes the record as the job's latest journaled state:
// canonical JSON to a temp file, fsync, rename over the previous record,
// fsync the directory. An append that fails leaves the previous record (or
// no record) intact — never a torn file.
func (jn *Journal) Append(rec JobRecord) error {
	if jn == nil {
		return nil
	}
	if !rec.valid() {
		return fmt.Errorf("serve: journal record needs seq N > 0, id cN and a job state, got %+v", rec)
	}
	if f := jn.Faults; f != nil && f.JournalWrite != nil {
		if err := f.JournalWrite(rec.ID); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrJournal, rec.ID, err)
		}
	}
	doc, err := canon.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: encoding %s: %v", ErrJournal, rec.ID, err)
	}
	doc = append(doc, '\n')
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if err := jn.writeFile(jn.recordPath(rec.Seq), doc); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrJournal, rec.ID, err)
	}
	return nil
}

// writeFile is the durable write primitive: temp file in the journal
// directory, write, fsync, rename, directory fsync (best effort — some
// filesystems reject directory syncs).
func (jn *Journal) writeFile(path string, doc []byte) error {
	tmp, err := os.CreateTemp(jn.dir, ".journal-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(doc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d, err := os.Open(jn.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Checkpoint writes the graceful-shutdown marker. It shares Append's
// durability path but not its fault hook: a checkpoint that cannot be
// written only costs the next start its clean/dirty hint.
func (jn *Journal) Checkpoint(cp Checkpoint) error {
	if jn == nil {
		return nil
	}
	doc, err := canon.Marshal(cp)
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	jn.mu.Lock()
	defer jn.mu.Unlock()
	return jn.writeFile(filepath.Join(jn.dir, checkpointFile), doc)
}

// LastCheckpoint reads the shutdown marker left by the previous process,
// returning ok=false when none exists or it is unreadable.
func (jn *Journal) LastCheckpoint() (Checkpoint, bool) {
	if jn == nil {
		return Checkpoint{}, false
	}
	raw, err := os.ReadFile(filepath.Join(jn.dir, checkpointFile))
	if err != nil {
		return Checkpoint{}, false
	}
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return Checkpoint{}, false
	}
	return cp, true
}

// Replay loads every journaled job record in Seq order. A record that
// cannot be read or parsed, fails validation, or sits in a file not named
// for its Seq (a copied record would replay a job twice) is quarantined —
// renamed aside with a .corrupt suffix and counted — instead of aborting
// the replay: one torn record must not strand every other campaign.
func (jn *Journal) Replay() (recs []JobRecord, corrupt int, err error) {
	if jn == nil {
		return nil, 0, nil
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	entries, err := os.ReadDir(jn.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: reading journal %s: %w", jn.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "job-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		path := filepath.Join(jn.dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			corrupt++
			_ = os.Rename(path, path+".corrupt")
			continue
		}
		var rec JobRecord
		if err := json.Unmarshal(raw, &rec); err != nil || !rec.valid() || name != recordName(rec.Seq) {
			corrupt++
			_ = os.Rename(path, path+".corrupt")
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, k int) bool { return recs[i].Seq < recs[k].Seq })
	return recs, corrupt, nil
}
