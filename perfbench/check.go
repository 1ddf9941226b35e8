package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hilight"
	"hilight/internal/core"
	"hilight/internal/session"
	"hilight/internal/wire"
)

// envelope mirrors the JSON compile response and the metadata frame
// that ends a stream.
type envelope struct {
	Fingerprint   string          `json:"fingerprint"`
	Cached        bool            `json:"cached"`
	LatencyCycles int             `json:"latency_cycles"`
	ResUtil       float64         `json:"resutil"`
	WarmCycles    int             `json:"warm_cycles"`
	Parent        string          `json:"parent"`
	Schedule      json.RawMessage `json:"schedule"`
}

// outcome is what the checker derived from one distinct response body.
type outcome struct {
	env     envelope
	layers  int
	resutil float64
	digest  [32]byte
}

// round0 sums the schedules of the first timed round: a fixed set of
// requests per seed, so the sums repeat exactly from run to run.
type round0 struct {
	n       int
	cycles  float64
	resutil float64
}

// checker verifies every response of a run after its timed phase, so the
// checks do not compete with the server for the CPUs.
type checker struct {
	sp     *spool
	errs   []string
	digest map[string][32]byte // fingerprint → its schedule's digest
	round0 round0
}

func newChecker(sp *spool) *checker {
	return &checker{sp: sp, digest: map[string][32]byte{}}
}

func (k *checker) failf(format string, args ...any) {
	k.errs = append(k.errs, fmt.Sprintf(format, args...))
}

// job is one distinct response to decode and check.
type job struct {
	c        *call
	circ     *hilight.Circuit
	g        *hilight.Grid
	validate bool // the first response for its fingerprint
	out      outcome
	err      error
	reported bool
}

// run checks a server's set-up traffic, then every call of a phase,
// connection by connection in send order. Decoding and validation, the
// costly part, run on every CPU; the comparisons across calls then run
// in send order, so the sums they keep are the same on every run.
func (k *checker) run(scripts []script, setup []*call, conns [][]*call) {
	type item struct {
		c *call
		j *job
	}
	var items []item
	var jobs []*job
	byKey := map[string]*job{}
	seenFP := map[string]bool{}
	add := func(sc script, c *call) {
		if c.feed {
			k.feed(c)
			return
		}
		circ, g := sc.subject(c) // in send order: sessions replay their edits
		if !c.ok() {
			return // counted as failed
		}
		j := byKey[c.key]
		if j == nil || c.key == "" {
			j = &job{c: c, circ: circ, g: g, validate: !seenFP[c.fp]}
			seenFP[c.fp] = true
			jobs = append(jobs, j)
			if c.key != "" {
				byKey[c.key] = j
			}
		}
		items = append(items, item{c, j})
	}
	for _, c := range setup {
		add(scripts[0], c)
	}
	for i, calls := range conns {
		for _, c := range calls {
			add(scripts[i], c)
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				j.out, j.err = decode(k.sp, j.c, j.circ, j.g, j.validate)
			}
		}()
	}
	wg.Wait()

	for _, it := range items {
		k.compare(it.c, it.j)
	}
	if k.sp.err != nil {
		k.failf("response spool: %v", k.sp.err)
	}
}

// compare checks one call against its decoded response and the other
// responses of the run.
func (k *checker) compare(c *call, j *job) {
	if j.err != nil {
		if !j.reported {
			k.failf("%s: %v", k.name(c), j.err)
			j.reported = true
		}
		return
	}
	o := j.out
	if !c.ref.same {
		k.failf("%s: repeated request answered with different bytes", k.name(c))
	}
	if o.env.Fingerprint != c.fp {
		k.failf("%s: body fingerprint %.16s, header %.16s", k.name(c), o.env.Fingerprint, c.fp)
	}
	if d, ok := k.digest[c.fp]; !ok {
		k.digest[c.fp] = o.digest
	} else if d != o.digest {
		k.failf("%s: fingerprint %.16s served two different schedules", k.name(c), c.fp)
	}
	switch {
	case c.wantCached == 1 && !o.env.Cached:
		k.failf("%s: expected a cache hit", k.name(c))
	case c.wantCached == 0 && o.env.Cached:
		k.failf("%s: expected a compile, got a cache hit", k.name(c))
	}
	if c.parent != "" && !o.env.Cached && o.env.Parent != c.parent {
		k.failf("%s: recompiled from parent %.16s, asked for %.16s", k.name(c), o.env.Parent, c.parent)
	}
	if c.replayFP != "" && c.replayFP != o.env.Fingerprint {
		k.failf("%s: replayed fingerprint %.16s differs", k.name(c), c.replayFP)
	}
	if c.replayed != ([32]byte{}) && c.replayed != o.digest {
		k.failf("%s: replayed schedule differs from the served one", k.name(c))
	}
	c.layers, c.warm = o.layers, o.env.WarmCycles
	if c.round == 0 {
		k.round0.n++
		k.round0.cycles += float64(o.layers)
		k.round0.resutil += o.resutil
	}
}

func (k *checker) name(c *call) string {
	subj := "session"
	if c.src != nil {
		subj = c.src.name + "/" + c.method
	}
	return fmt.Sprintf("round %d %s %s", c.round, subj, modeNames[c.mode])
}

// decode decodes a compile response in its mode and checks it: the
// fingerprint is the client's own, latency_cycles is the layer count,
// and (for the first response of a fingerprint) the schedule passes
// sched.Validate for the request's circuit, grid and defects.
func decode(sp *spool, c *call, circ *hilight.Circuit, g *hilight.Grid, validateIt bool) (outcome, error) {
	body, err := sp.load(c.ref)
	if err != nil {
		return outcome{}, err
	}
	var o outcome
	var s *hilight.Schedule
	switch c.mode {
	case modeJSON:
		if err := json.Unmarshal(body, &o.env); err != nil {
			return o, fmt.Errorf("envelope: %w", err)
		}
		if s, err = hilight.DecodeScheduleJSON(o.env.Schedule); err != nil {
			return o, err
		}
	case modeBinary:
		if s, err = hilight.DecodeScheduleBinary(body); err != nil {
			return o, err
		}
		o.env = envelope{Fingerprint: c.fp, Cached: c.cached, LatencyCycles: c.cycles, ResUtil: math.NaN()}
	case modeStream:
		var meta []byte
		if s, meta, err = wire.ReadStream(bytes.NewReader(body)); err != nil {
			return o, err
		}
		if s == nil {
			return o, fmt.Errorf("stream carried no schedule")
		}
		if err := json.Unmarshal(meta, &o.env); err != nil {
			return o, fmt.Errorf("stream metadata: %w", err)
		}
	}
	o.env.Schedule = nil // decoded; do not keep the body alive
	bin, err := hilight.EncodeScheduleBinary(s)
	if err != nil {
		return o, err
	}
	o.layers = len(s.Layers)
	o.resutil = hilight.ResUtil(s)
	o.digest = sha256.Sum256(bin)

	fp, err := hilight.Fingerprint(circ, g, compileOptions(c.method, c.seed, c.defects)...)
	if err != nil {
		return o, err
	}
	if fp != o.env.Fingerprint {
		return o, fmt.Errorf("served fingerprint %.16s, client computes %.16s", o.env.Fingerprint, fp)
	}
	if o.env.LatencyCycles != o.layers {
		return o, fmt.Errorf("latency_cycles %d, schedule has %d layers", o.env.LatencyCycles, o.layers)
	}
	if !math.IsNaN(o.env.ResUtil) && math.Abs(o.env.ResUtil-o.resutil) > 1e-9 {
		return o, fmt.Errorf("resutil %v, schedule gives %v", o.env.ResUtil, o.resutil)
	}
	if validateIt {
		if err := validate(s, circ, g, c); err != nil {
			return o, err
		}
	}
	return o, nil
}

// validate checks a schedule against the request: the grid it was
// compiled on, the defects the request named, and sched.Validate
// against the circuit the router schedules.
func validate(s *hilight.Schedule, circ *hilight.Circuit, g *hilight.Grid, c *call) error {
	if s.Grid.W != g.W || s.Grid.H != g.H {
		return fmt.Errorf("schedule grid %dx%d, request grid %dx%d", s.Grid.W, s.Grid.H, g.W, g.H)
	}
	if !sameDefects(s.Grid.Defects(), c.defects) {
		return fmt.Errorf("schedule defects %v, request defects %v", s.Grid.Defects(), c.defects)
	}
	method := c.method
	if method == "" {
		method = "hilight"
	}
	sp, ok := core.LookupMethod(method)
	if !ok {
		return fmt.Errorf("unknown method %q", method)
	}
	return s.Validate(session.WorkingCircuit(circ, sp.QCO))
}

func sameDefects(a, b *hilight.DefectMap) bool {
	ca, cb := canonDefects(a), canonDefects(b)
	return slices.Equal(ca.Tiles, cb.Tiles) && slices.Equal(ca.Vertices, cb.Vertices) && slices.Equal(ca.Channels, cb.Channels)
}

func canonDefects(d *hilight.DefectMap) hilight.DefectMap {
	var out hilight.DefectMap
	if d.Empty() {
		return out
	}
	out.Tiles = slices.Clone(d.Tiles)
	slices.Sort(out.Tiles)
	out.Vertices = slices.Clone(d.Vertices)
	slices.Sort(out.Vertices)
	for _, ch := range d.Channels {
		if ch[0] > ch[1] {
			ch[0], ch[1] = ch[1], ch[0]
		}
		out.Channels = append(out.Channels, ch)
	}
	slices.SortFunc(out.Channels, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	return out
}

// feed checks a defect feed's sweep: every conflicting entry was
// recompiled, none failed.
func (k *checker) feed(c *call) {
	if !c.ok() {
		return
	}
	body, err := k.sp.load(c.ref)
	if err != nil {
		k.failf("defect feed: %v", err)
		return
	}
	var fr feedResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		k.failf("defect feed round %d: %v", c.round, err)
		return
	}
	if fr.Failed != 0 || fr.Recompiled != fr.Conflicting {
		k.failf("defect feed round %d: %d conflicting, %d recompiled, %d failed", c.round, fr.Conflicting, fr.Recompiled, fr.Failed)
	}
	for old, nfp := range fr.Fingerprints {
		if nfp == "" {
			k.failf("defect feed round %d: entry %.16s evicted without a recompile", c.round, old)
		}
	}
}
