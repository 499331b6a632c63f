package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// modelRow is one lease as the model sees it.
type modelRow struct {
	state    rowState
	token    int
	attempts int
	deadline time.Time
}

// leaseModel restates the lease protocol over plain maps: FuzzLeaseTable
// drives it and the real table through the same operations and requires
// the same answers and the same rows after every step.
type leaseModel struct {
	budget int
	ids    []string
	rows   map[leaseKey]*modelRow // job rows always; shard rows while open
	shards map[string]int         // open shard count per job
	undone map[string]int
	last   int // highest token granted
}

func (m *leaseModel) end(r *modelRow, retry bool) {
	switch {
	case !retry:
		r.state = rowDone
	case r.attempts < m.budget:
		r.state = rowPending
	default:
		r.state = rowExhausted
	}
}

func (m *leaseModel) grant(r *modelRow, now time.Time, d time.Duration) int {
	m.last++
	*r = modelRow{state: rowLeased, token: m.last, attempts: r.attempts + 1, deadline: now.Add(d)}
	return m.last
}

func (m *leaseModel) retire(id string) {
	for i := 0; i < m.shards[id]; i++ {
		delete(m.rows, leaseKey{id, i})
	}
	m.shards[id] = 0
}

func (m *leaseModel) expired(r *modelRow, now time.Time) bool {
	return r.state == rowLeased && !now.Before(r.deadline)
}

// check compares every row of the table with the model and asserts the
// table-wide invariants.
func (m *leaseModel) check(t *testing.T, lt *leaseTable, granted map[leaseKey][]int) {
	t.Helper()
	same := func(k leaseKey, got leaseRow, want *modelRow) {
		t.Helper()
		if got.state != want.state || got.attempts != want.attempts ||
			(want.state == rowLeased && (got.token != want.token || !got.deadline.Equal(want.deadline))) {
			t.Fatalf("row %v = %+v, model %+v", k, got, *want)
		}
		if got.attempts > m.budget {
			t.Fatalf("row %v has %d attempts, budget %d", k, got.attempts, m.budget)
		}
		live := 0
		for _, tok := range granted[k] {
			if got.holds(tok) {
				live++
			}
		}
		if live > 1 {
			t.Fatalf("row %v has %d live holders", k, live)
		}
	}
	for _, id := range m.ids {
		jl := lt.jobs[id]
		same(leaseKey{id, jobRow}, jl.attempt, m.rows[leaseKey{id, jobRow}])
		n := m.shards[id]
		if (jl.shards != nil) != (n > 0) {
			t.Fatalf("%s: table shards open = %v, model %d", id, jl.shards != nil, n)
		}
		if n == 0 {
			continue
		}
		if len(jl.shards.rows) != n || jl.shards.undone != m.undone[id] {
			t.Fatalf("%s: table has %d shards, %d undone; model %d, %d", id, len(jl.shards.rows), jl.shards.undone, n, m.undone[id])
		}
		for i := range jl.shards.rows {
			same(leaseKey{id, i}, jl.shards.rows[i], m.rows[leaseKey{id, i}])
		}
	}
}

// FuzzLeaseTable drives random grant / open / conclude / complete / expire
// sequences against the lease table and a model of the protocol. At every
// step: at most one live holder per row, epochs strictly increasing and
// never reused, attempts never past the budget, and a stale token never
// concludes.
func FuzzLeaseTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 4, 2, 0, 2, 0, 3, 0, 3, 1, 5, 0})
	f.Add([]byte{0, 1, 1, 7, 2, 0, 4, 12, 0, 1, 1, 7, 2, 0, 3, 0, 5, 128})
	f.Add([]byte{0, 2, 1, 2, 2, 0, 3, 128, 2, 0, 3, 129, 2, 0, 3, 130, 4, 3, 0, 2})
	f.Add([]byte{0, 0, 5, 129, 0, 0, 5, 132, 0, 0, 5, 153, 0, 0}) // c1 retries until exhausted
	f.Fuzz(func(t *testing.T, ops []byte) {
		const budget = 3
		const jobLease, shardLease = 10 * time.Millisecond, 4 * time.Millisecond
		lt := newLeaseTable(budget)
		m := &leaseModel{budget: budget, ids: []string{"c1", "c2", "c3"},
			rows: map[leaseKey]*modelRow{}, shards: map[string]int{}, undone: map[string]int{}}
		for _, id := range m.ids {
			lt.add(id, 0, false)
			m.rows[leaseKey{id, jobRow}] = &modelRow{state: rowPending}
		}
		granted := map[leaseKey][]int{} // every token handed out, by row
		var shardLeases []ShardLease
		now := time.Unix(0, 0)
		newToken := func(k leaseKey, tok int) {
			t.Helper()
			for _, toks := range granted {
				for _, old := range toks {
					if tok <= old {
						t.Fatalf("token %d for %v after token %d", tok, k, old)
					}
				}
			}
			granted[k] = append(granted[k], tok)
		}
		// pickToken chooses a token for a conclusion attempt: one granted to
		// the row before (live or stale) or one never granted.
		pickToken := func(k leaseKey, arg byte) int {
			if toks := granted[k]; len(toks) > 0 && arg%4 != 3 {
				return toks[int(arg)%len(toks)]
			}
			return m.last + 1 + int(arg)
		}
		for len(ops) >= 2 {
			op, arg := ops[0]%6, ops[1]
			ops = ops[2:]
			id := m.ids[int(arg)%len(m.ids)]
			jk := leaseKey{id, jobRow}
			switch op {
			case 0: // grant a job attempt
				want := m.rows[jk].state == rowPending
				tok, attempt, ok := lt.grant(id, now, jobLease)
				if ok != want {
					t.Fatalf("grant %s = %v, model %v", id, ok, want)
				}
				if ok {
					mt := m.grant(m.rows[jk], now, jobLease)
					if tok != mt || attempt != m.rows[jk].attempts {
						t.Fatalf("grant %s = token %d attempt %d, model %d %d", id, tok, attempt, mt, m.rows[jk].attempts)
					}
					newToken(jk, tok)
				}
			case 1: // open the attempt's shards
				n := 1 + int(arg/3)%3
				want := m.rows[jk].state == rowLeased
				_, ok := lt.openShards(id, n)
				if ok != want {
					t.Fatalf("openShards %s = %v, model %v", id, ok, want)
				}
				if ok && m.shards[id] == 0 {
					m.shards[id], m.undone[id] = n, n
					for i := 0; i < n; i++ {
						m.rows[leaseKey{id, i}] = &modelRow{state: rowPending}
					}
				}
			case 2: // a worker asks for a shard
				lease, ok := lt.grantShard(now, shardLease)
				var want *ShardLease
			scan:
				for _, mid := range m.ids {
					for i := 0; i < m.shards[mid]; i++ {
						if r := m.rows[leaseKey{mid, i}]; r.state == rowPending {
							want = &ShardLease{Job: mid, Shard: i, Shards: m.shards[mid], Epoch: m.grant(r, now, shardLease)}
							break scan
						}
					}
				}
				if ok != (want != nil) || (ok && fmt.Sprint(lease) != fmt.Sprint(*want)) {
					t.Fatalf("grantShard = %+v %v, model %+v", lease, ok, want)
				}
				if ok {
					newToken(leaseKey{lease.Job, lease.Shard}, lease.Epoch)
					shardLeases = append(shardLeases, lease)
				}
			case 3: // a shard completion, live or stale, success or failure
				if len(shardLeases) == 0 {
					continue
				}
				l := shardLeases[int(arg&0x7f)%len(shardLeases)]
				k := leaseKey{l.Job, l.Shard}
				d := ShardDone{Epoch: pickToken(k, arg>>5)}
				if arg&0x80 != 0 {
					d.Error = "boom"
				}
				var wantErr error
				r := m.rows[k]
				switch {
				case m.shards[l.Job] == 0:
					wantErr = errNoShards
				case l.Shard >= m.shards[l.Job]:
					wantErr = errBadShard
				case r.state != rowLeased || r.token != d.Epoch:
					wantErr = errStaleShard
				}
				if err := lt.completeShard(l.Job, l.Shard, d); err != wantErr {
					t.Fatalf("completeShard %v epoch %d = %v, model %v", k, d.Epoch, err, wantErr)
				}
				if wantErr != nil {
					continue
				}
				m.end(r, d.Error != "")
				switch r.state {
				case rowDone:
					m.undone[l.Job]--
				case rowExhausted:
					m.retire(l.Job)
				}
			case 4: // time passes; reclaim what expired
				now = now.Add(time.Duration(arg%16) * time.Millisecond)
				var want []leaseKey
				for _, mid := range m.ids {
					if r := m.rows[leaseKey{mid, jobRow}]; m.expired(r, now) {
						m.end(r, true)
						m.retire(mid)
						want = append(want, leaseKey{mid, jobRow})
						continue
					}
					for i := 0; i < m.shards[mid]; i++ {
						r := m.rows[leaseKey{mid, i}]
						if !m.expired(r, now) {
							continue
						}
						m.end(r, true)
						want = append(want, leaseKey{mid, i})
						if r.state == rowExhausted {
							m.retire(mid)
							break
						}
					}
				}
				if got := lt.reclaim(now); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("reclaim = %v, model %v", got, want)
				}
			case 5: // the job attempt concludes, live or stale
				tok := pickToken(jk, arg>>2)
				retry := arg&0x80 != 0
				r := m.rows[jk]
				live := r.state == rowLeased && r.token == tok
				state, won := lt.conclude(id, tok, retry)
				if won != live {
					t.Fatalf("conclude %s token %d = %v, model live %v", id, tok, won, live)
				}
				if won {
					m.end(r, retry)
					m.retire(id)
				}
				if state != r.state {
					t.Fatalf("conclude %s left state %d, model %d", id, state, r.state)
				}
			}
			m.check(t, lt, granted)
		}
	})
}

// TestLeaseTableConcurrentShardLeases: workers racing for the shards of
// several distributed attempts, with reclaim scans interleaved, never
// share a token, and every shard concludes exactly once.
func TestLeaseTableConcurrentShardLeases(t *testing.T) {
	const jobs, shards, workers = 4, 8, 6
	lt := newLeaseTable(3)
	var wakes []*shardRows
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("c%d", i)
		lt.add(id, 0, false)
		if _, _, ok := lt.grant(id, time.Now(), time.Hour); !ok {
			t.Fatalf("%s: attempt not granted", id)
		}
		sh, ok := lt.openShards(id, shards)
		if !ok {
			t.Fatalf("%s: shards not opened", id)
		}
		wakes = append(wakes, sh)
	}
	var mu sync.Mutex
	tokens := map[int]bool{}
	concluded := map[leaseKey]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lt.reclaim(time.Now())
				l, ok := lt.grantShard(time.Now(), time.Hour)
				if !ok {
					return
				}
				if err := lt.completeShard(l.Job, l.Shard, ShardDone{Epoch: l.Epoch}); err != nil {
					t.Errorf("completing %s shard %d epoch %d: %v", l.Job, l.Shard, l.Epoch, err)
				}
				mu.Lock()
				if tokens[l.Epoch] {
					t.Errorf("epoch %d granted twice", l.Epoch)
				}
				tokens[l.Epoch] = true
				concluded[leaseKey{l.Job, l.Shard}]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(concluded) != jobs*shards {
		t.Errorf("%d shards concluded, want %d", len(concluded), jobs*shards)
	}
	for k, n := range concluded {
		if n != 1 {
			t.Errorf("shard %v concluded %d times", k, n)
		}
	}
	for i, sh := range wakes {
		select {
		case <-sh.wake:
		default:
			t.Errorf("c%d: attempt not woken with every shard done", i+1)
		}
	}
}
