// Distributed campaigns, worker side: the engine behind `concat work`. A
// Worker polls its coordinator for shard leases, executes each shard with
// the core mutation step the coordinator's run step calls — same
// suite generation, same execution options, so its verdict-store keys
// match the coordinator's byte for byte — publishes every verdict into the
// shared store as it runs, and reports completion with the lease's epoch
// token. Workers are stateless and interchangeable: any number can serve
// one coordinator, join late, or die mid-shard (the lease reclaims it).

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"concat/internal/core"
	"concat/internal/store"
)

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8437").
	Coordinator string
	// Store is the shared verdict store the worker publishes into —
	// typically store.NewRemote over the coordinator's own /store mount,
	// or a filesystem store on a shared volume. Must be enabled: a worker
	// whose verdicts go nowhere would make the coordinator's merge re-run
	// everything.
	Store store.Backend
	// Parallelism is the per-shard mutant-worker count (0 = GOMAXPROCS).
	Parallelism int
	// Poll is the idle delay between lease requests (default 500ms).
	Poll time.Duration
	// IdleExit, when positive, makes Run return after this long without
	// obtaining a lease — lets batch jobs and CI drain and exit. Zero runs
	// until the context is cancelled.
	IdleExit time.Duration
	// Client is the HTTP client for coordinator calls (nil = default).
	Client *http.Client
	// Logf, when non-nil, receives one line per shard and per error.
	Logf func(format string, args ...any)
}

// Worker pulls and executes campaign shards until stopped.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker returns a worker over cfg.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	return &Worker{cfg: cfg}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run polls the coordinator for shard leases and executes them, returning
// the number of shards completed successfully. It returns when ctx is
// cancelled or, with IdleExit set, after going that long without work —
// an unreachable coordinator counts as idle, so a worker that outlives its
// coordinator drains instead of spinning forever.
func (w *Worker) Run(ctx context.Context) int {
	if !store.Enabled(w.cfg.Store) {
		w.logf("work: no verdict store configured; refusing to run")
		return 0
	}
	completed := 0
	idleSince := time.Now()
	for {
		if ctx.Err() != nil {
			return completed
		}
		lease, ok, err := w.lease(ctx)
		if err != nil {
			w.logf("work: lease: %v", err)
		}
		if !ok {
			if w.cfg.IdleExit > 0 && time.Since(idleSince) >= w.cfg.IdleExit {
				w.logf("work: idle for %s; exiting", w.cfg.IdleExit)
				return completed
			}
			select {
			case <-ctx.Done():
				return completed
			case <-time.After(w.cfg.Poll):
			}
			continue
		}
		idleSince = time.Now()
		w.logf("work: leased %s shard %d/%d (%s)", lease.Job, lease.Shard, lease.Shards, lease.Req.Component)
		runErr := RunShard(lease.Req, lease.Shard, lease.Shards, w.cfg.Parallelism, w.cfg.Store)
		if runErr != nil {
			w.logf("work: %s shard %d failed: %v", lease.Job, lease.Shard, runErr)
		} else {
			completed++
			w.logf("work: %s shard %d done", lease.Job, lease.Shard)
		}
		if err := w.complete(ctx, lease, runErr); err != nil {
			w.logf("work: reporting %s shard %d: %v", lease.Job, lease.Shard, err)
		}
	}
}

// lease asks the coordinator for one shard; ok=false means no work.
func (w *Worker) lease(ctx context.Context) (ShardLease, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+"/work/lease", nil)
	if err != nil {
		return ShardLease{}, false, err
	}
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return ShardLease{}, false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return ShardLease{}, false, nil
	case http.StatusOK:
		var lease ShardLease
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&lease); err != nil {
			return ShardLease{}, false, fmt.Errorf("decoding lease: %w", err)
		}
		if lease.Shards < 1 || lease.Shard < 0 || lease.Shard >= lease.Shards {
			return ShardLease{}, false, fmt.Errorf("coordinator sent invalid lease: shard %d of %d", lease.Shard, lease.Shards)
		}
		return lease, true, nil
	default:
		return ShardLease{}, false, fmt.Errorf("lease request: HTTP %d", resp.StatusCode)
	}
}

// complete reports a shard's outcome under its epoch token. A 409 means
// the lease was reclaimed while we worked — the verdicts are already in
// the shared store, so losing the race costs nothing.
func (w *Worker) complete(ctx context.Context, lease ShardLease, runErr error) error {
	d := ShardDone{Epoch: lease.Epoch}
	if runErr != nil {
		d.Error = runErr.Error()
	}
	body, err := json.Marshal(d)
	if err != nil {
		return err
	}
	url := fmt.Sprintf("%s/work/%s/shards/%d", w.cfg.Coordinator, lease.Job, lease.Shard)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode/100 == 2:
		return nil
	case resp.StatusCode == http.StatusConflict:
		w.logf("work: %s shard %d lease was reclaimed before completion landed", lease.Job, lease.Shard)
		return nil
	default:
		return fmt.Errorf("completion POST: HTTP %d", resp.StatusCode)
	}
}

// RunShard executes one shard of a distributed campaign: the mutants of
// req whose enumeration index is congruent to shard mod shards, publishing
// every verdict into backend. The suite and execution options derive from
// req exactly as the coordinator's run step derives them, so the cache
// keys match and the coordinator's merge replays these verdicts as hits.
func RunShard(req Request, shard, shards, parallelism int, backend store.Backend) error {
	if shards < 1 || shard < 0 || shard >= shards {
		return fmt.Errorf("serve: shard %d out of range for %d shards", shard, shards)
	}
	if !store.Enabled(backend) {
		return fmt.Errorf("serve: shard execution requires a verdict store")
	}
	t, err := core.LookupTarget(req.Component)
	if err != nil {
		return err
	}
	_, err = t.Mutate(req.genOptions(), req.Methods, nil, core.MutationOptions{
		Exec:        req.execOptions(),
		Parallelism: parallelism,
		Store:       backend,
		ShardIndex:  shard,
		ShardCount:  shards,
	})
	return err
}
