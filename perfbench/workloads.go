package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"

	"hilight"
	"hilight/internal/service"
)

// workload is one named traffic mix.
type workload struct {
	conns    int
	sessions bool // inputs are session roots on one shared grid
	// tail is the quantile tail_ms reports: the highest of p90 and p99
	// with at least ten samples beyond it at a 20 s run, fixed so that
	// a run with a few more or fewer requests reports the same one.
	tail   float64
	config func(dir string) service.Config
	// warm runs the set-up traffic on a freshly booted server and returns
	// one script per connection.
	warm func(w *world) ([]script, error)
}

var workloads = map[string]*workload{
	// One connection of unique compiles: every request misses the cache
	// and fills it, so the core passes and the router do most of the work.
	"cold-compile": {
		conns:  1,
		tail:   0.90, // ~560 requests
		config: func(string) service.Config { return service.Config{} },
		warm:   warmCold,
	},
	// Two connections of repeated requests for a compiled working set:
	// parse, fingerprint, cache lookup and the JSON transcode, with the
	// cache lock and metrics registry under contention.
	"hot-hit": {
		conns:  2,
		tail:   0.99, // ~1900 requests
		config: func(string) service.Config { return service.Config{} },
		warm:   warmHot,
	},
	// One connection of session edits and defect feeds with the journal
	// on: RecompileFrom, journal fsyncs and the feed's cache sweep.
	"session-edit": {
		conns:    1,
		sessions: true,
		tail:     0.90, // ~1000 requests: p99 would sit at the edge
		config: func(dir string) service.Config {
			return service.Config{JournalDir: filepath.Join(dir, "journal"), CacheBytes: sessionCacheBytes}
		},
		warm: warmSession,
	},
}

// ---- cold-compile ----

// coldWarmup is the circuit the cold-compile set-up compiles once with
// every method before timing starts.
const coldWarmup = "urf2_277"

type pair struct {
	src    *circ
	method string
}

// coldScript sends every (circuit, method) pair once per round, in a
// seeded order, each with a compile seed no other request of the run
// uses, so every request is a cache miss.
type coldScript struct {
	in    *inputs
	pairs []pair
	perm  []int
	permR int
	buf   bytes.Buffer
}

func warmCold(w *world) ([]script, error) {
	sc := &coldScript{in: w.in, permR: -1}
	for _, c := range w.in.circs {
		for _, m := range compileMethods {
			sc.pairs = append(sc.pairs, pair{c, m})
		}
	}
	cl := w.client()
	var buf bytes.Buffer
	var warm *circ
	for _, c := range w.in.circs {
		if c.name == coldWarmup {
			warm = c
		}
	}
	for k, m := range compileMethods {
		seed := sc.seedFor(-1, k)
		c := &call{round: -1, src: warm, method: m, seed: seed, wantCached: 0}
		c.body = compileBody(&buf, warm.qasmJSON, m, seed, nil, nil)
		if _, err := w.send(cl, sc, c); err != nil {
			return nil, err
		}
	}
	return []script{sc}, nil
}

// seedFor is the compile seed of call i of round r (round -1: warm-up).
func (s *coldScript) seedFor(r, i int) int64 {
	return mix(s.in.seed, 1, int64(r), int64(i))
}

func (s *coldScript) roundLen() int { return len(s.pairs) }

func (s *coldScript) next(r, i int) *call {
	if s.permR != r {
		s.perm = rand.New(rand.NewSource(mix(s.in.seed, 2, int64(r)))).Perm(len(s.pairs))
		s.permR = r
	}
	p := s.pairs[s.perm[i]]
	seed := s.seedFor(r, i)
	c := &call{round: r, src: p.src, method: p.method, seed: seed, wantCached: 0}
	c.body = compileBody(&s.buf, p.src.qasmJSON, p.method, seed, nil, nil)
	return c
}

func (s *coldScript) observe(*call, []byte) {}

func (s *coldScript) replay(c *call, body []byte, tr *tracer) error {
	_, err := replayCompile(tr, c, c.src.qasm, c.src.grid, nil, nil)
	return err
}

func (s *coldScript) subject(c *call) (*hilight.Circuit, *hilight.Grid) {
	return c.src.c, c.src.grid
}

// ---- hot-hit ----

// hotSlots is the response-mode mix of one entry within a round: mostly
// the JSON envelope, plus one binary and one streamed request.
var hotSlots = []mode{modeJSON, modeJSON, modeJSON, modeBinary, modeStream}

type hotEntry struct {
	src    *circ
	method string
	seed   int64
	body   []byte
	setup  *call // the compile that filled the cache
	// bin is its schedule in the binary form the cache stores, decoded
	// once for the traced replay of both connections.
	binOnce sync.Once
	bin     []byte
	binErr  error
}

// hotScript sends every (entry, mode slot) once per round in a seeded
// order. Both connections send the same composition in their own order.
type hotScript struct {
	in      *inputs
	conn    int
	entries []*hotEntry
	sp      *spool
	perm    []int
	permR   int
}

func warmHot(w *world) ([]script, error) {
	var entries []*hotEntry
	cl := w.client()
	for i, src := range w.in.circs {
		e := &hotEntry{src: src, method: compileMethods[i%len(compileMethods)], seed: mix(w.in.seed, 3, int64(i))}
		e.body = compileBody(&bytes.Buffer{}, src.qasmJSON, e.method, e.seed, nil, nil)
		e.setup = &call{round: -1, src: src, method: e.method, seed: e.seed, wantCached: 0, body: e.body}
		if _, err := w.send(cl, nil, e.setup); err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	scripts := make([]script, w.wl.conns)
	for k := range scripts {
		scripts[k] = &hotScript{in: w.in, conn: k, entries: entries, sp: w.sp, permR: -1}
	}
	return scripts, nil
}

func (s *hotScript) roundLen() int { return len(s.entries) * len(hotSlots) }

func (s *hotScript) next(r, i int) *call {
	if s.permR != r {
		s.perm = rand.New(rand.NewSource(mix(s.in.seed, 4, int64(s.conn), int64(r)))).Perm(s.roundLen())
		s.permR = r
	}
	slot := s.perm[i]
	ei, m := slot/len(hotSlots), hotSlots[slot%len(hotSlots)]
	e := s.entries[ei]
	return &call{
		round: r, mode: m, src: e.src, method: e.method, seed: e.seed, wantCached: 1,
		body: e.body, key: fmt.Sprintf("hot/%d/%s", ei, modeNames[m]),
	}
}

func (s *hotScript) observe(*call, []byte) {}

func (s *hotScript) replay(c *call, body []byte, tr *tracer) error {
	for _, e := range s.entries {
		if e.src != c.src {
			continue
		}
		e.binOnce.Do(func() {
			var b []byte
			if b, e.binErr = s.sp.load(e.setup.ref); e.binErr == nil {
				e.bin, e.binErr = binaryOfEnvelope(b)
			}
		})
		if e.binErr != nil {
			return e.binErr
		}
		_, err := replayCompile(tr, c, c.src.qasm, c.src.grid, e.bin, nil)
		return err
	}
	return fmt.Errorf("hot-hit call for unknown entry %s", c.src.name)
}

func (s *hotScript) subject(c *call) (*hilight.Circuit, *hilight.Grid) {
	return c.src.c, c.src.grid
}

// binaryOfEnvelope re-encodes a JSON compile response's schedule in the
// binary wire form.
func binaryOfEnvelope(body []byte) ([]byte, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	s, err := hilight.DecodeScheduleJSON(env.Schedule)
	if err != nil {
		return nil, err
	}
	return hilight.EncodeScheduleBinary(s)
}

// feedResponse mirrors the body of POST /v1/defects.
type feedResponse struct {
	Checked      int               `json:"checked"`
	Conflicting  int               `json:"conflicting"`
	Evicted      int               `json:"evicted"`
	Recompiled   int               `json:"recompiled"`
	Failed       int               `json:"failed"`
	Fingerprints map[string]string `json:"fingerprints"`
}
