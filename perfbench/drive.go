package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hilight"
	"hilight/internal/service"
	"hilight/internal/wire"
)

// mode is the response rendering a compile call asks for.
type mode int

const (
	modeJSON   mode = iota // the default JSON envelope
	modeBinary             // Accept: application/x-hilight-sched
	modeStream             // ?stream=1 layer frames
)

var modeNames = [...]string{"json", "bin", "stream"}

// call is one request of a script and its outcome.
type call struct {
	round int  // -1 for set-up traffic
	feed  bool // POST /v1/defects
	fetch bool // a session head re-requested after a feed
	mode  mode
	// body is the request body; it aliases a script buffer and is
	// cleared once the call has been observed.
	body   []byte
	parent string // If-Fingerprint-Match

	// The compile subject: a drawn circuit (src) or a session edit.
	src        *circ
	method     string
	seed       int64
	defects    *hilight.DefectMap
	sess       int
	edit       *hilight.Edit
	wantCached int8 // 1: must be a cache hit, 0: must be compiled, -1: either
	key        string

	// Outcome.
	status   int
	err      error
	lat      time.Duration
	size     int
	fp       string
	cached   bool
	cycles   int // X-Hilight-Latency-Cycles of a binary response
	ref      bodyRef
	remapped []int // sessions whose head a defect feed remapped

	// Set by the checker: the schedule's layer count and replayed prefix.
	layers, warm int

	// Traced replay: the fingerprint, binary schedule digest and size the
	// client reproduced.
	replayFP string
	replayed [32]byte
	binSize  int
}

func (c *call) ok() bool { return c.err == nil && c.status == http.StatusOK }

// script is one connection's fixed, seeded request sequence, organised
// in rounds of equal composition.
type script interface {
	roundLen() int
	// next materialises call i of round r from the script's state.
	next(r, i int) *call
	// observe updates the state from a finished call.
	observe(c *call, body []byte)
	// replay times, after the HTTP call, the layers the call crossed.
	replay(c *call, body []byte, tr *tracer) error
	// subject returns the circuit and grid a compile call asked for. The
	// checker calls it once per call, in send order.
	subject(c *call) (*hilight.Circuit, *hilight.Grid)
}

// client is one keep-alive connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do sends the call and returns the response body, valid until the next
// call on this client. The latency covers the whole body.
func (cl *client) do(c *call) []byte {
	path := "/v1/compile"
	switch {
	case c.feed:
		path = "/v1/defects"
	case c.mode == modeStream:
		path += "?stream=1"
	}
	req, err := http.NewRequest(http.MethodPost, cl.base+path, bytes.NewReader(c.body))
	if err != nil {
		c.err = err
		return nil
	}
	req.Header.Set("Content-Type", "application/json")
	if c.mode == modeBinary {
		req.Header.Set("Accept", wire.Binary.ContentType())
	}
	if c.parent != "" {
		req.Header.Set("If-Fingerprint-Match", c.parent)
	}
	t0 := time.Now()
	resp, err := cl.hc.Do(req)
	if err != nil {
		c.lat = time.Since(t0)
		c.err = err
		return nil
	}
	cl.buf.Reset()
	_, err = cl.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.lat = time.Since(t0)
	c.status = resp.StatusCode
	c.err = err
	body := cl.buf.Bytes()
	c.size = len(body)
	if c.feed || !c.ok() {
		return body
	}
	if c.mode == modeJSON {
		c.fp, c.cached = peekEnvelope(body)
	} else {
		c.fp = resp.Header.Get("X-Hilight-Fingerprint")
		c.cached = resp.Header.Get("X-Hilight-Cached") == "true"
		c.cycles, _ = strconv.Atoi(resp.Header.Get("X-Hilight-Latency-Cycles"))
		if c.mode == modeStream {
			c.cached = peekStreamCached(body)
		}
	}
	return body
}

func (cl *client) close() { cl.tr.CloseIdleConnections() }

// world is one booted server with the scripts its set-up produced.
type world struct {
	dir     string // the server's scratch directory, unique per boot
	srv     *service.Server
	hs      *http.Server
	base    string
	served  chan error
	sp      *spool
	in      *inputs
	wl      *workload
	setup   []*call // set-up traffic, checked but not timed
	scripts []script
	clients []*client
}

// boot starts a server on loopback and runs the workload's set-up
// traffic against it: the work a run pays before its first timed call.
func boot(wl *workload, in *inputs, dir string, sp *spool) (*world, error) {
	srv, err := service.New(wl.config(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &world{
		dir:    dir,
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: time.Minute},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		sp:     sp,
		in:     in,
		wl:     wl,
	}
	go func() { w.served <- w.hs.Serve(ln) }()
	if w.scripts, err = wl.warm(w); err != nil {
		_ = w.stop()
		return nil, err
	}
	return w, nil
}

func (w *world) client() *client {
	cl := newClient(w.base)
	w.clients = append(w.clients, cl)
	return cl
}

// send runs one set-up call and records it.
func (w *world) send(cl *client, sc script, c *call) ([]byte, error) {
	body := cl.do(c)
	w.keep(c, body)
	c.body = nil
	w.setup = append(w.setup, c)
	if !c.ok() {
		return nil, fmt.Errorf("set-up call: status %d %v: %.200s", c.status, c.err, body)
	}
	if sc != nil {
		sc.observe(c, body)
	}
	return body, nil
}

// keep files a response body for the checks. Keys are scoped to the
// server: two servers compile the same request with different timings.
func (w *world) keep(c *call, body []byte) {
	key := c.key
	if key != "" {
		key = w.dir + "/" + key
	}
	c.ref = w.sp.keep(key, body)
}

// stop shuts the server down and waits for its serving goroutine.
func (w *world) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, cl := range w.clients {
		cl.close()
	}
	err := w.hs.Shutdown(ctx)
	if e := w.srv.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-w.served; e != http.ErrServerClosed && err == nil {
		err = e
	}
	return err
}

// scrape reads GET /metrics into name → value (histograms as _sum and
// _count).
func (w *world) scrape() (map[string]float64, error) {
	resp, err := http.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// phase is the record of one run of the scripts.
type phase struct {
	sp       *spool
	scripts  []script
	conns    [][]*call
	roundDur [][]time.Duration // per connection, per round
	elapsed  time.Duration
	before   map[string]float64 // /metrics at the start
	after    map[string]float64
	rt0, rt1 runtimeStats
	peakRSS  float64 // VmHWM at the end, MiB
}

func (p *phase) all() []*call {
	var out []*call
	for _, cs := range p.conns {
		out = append(out, cs...)
	}
	return out
}

func (p *phase) failed() int {
	n := 0
	for _, c := range p.all() {
		if !c.ok() {
			n++
		}
	}
	return n
}

// delta is the change of a /metrics sample over the phase.
func (p *phase) delta(name string) float64 { return p.after[name] - p.before[name] }

// timedPhase drives every connection's script in a closed loop until
// the deadline, finishing the round in progress so every run sends
// whole rounds of the same composition.
func timedPhase(w *world, d time.Duration) (*phase, error) {
	p, _, err := runPhase(w, d, 0, false)
	return p, err
}

// replay is the traced re-run of a timed phase's first round.
type replay struct {
	*phase
	tracers []*tracer // one per connection
}

// replayPhase runs every script's first round with a layer replay after
// each call.
func replayPhase(w *world) (*replay, error) {
	p, trs, err := runPhase(w, 0, 1, true)
	if err != nil {
		return nil, err
	}
	return &replay{p, trs}, nil
}

// runPhase drives the world's scripts, one goroutine per connection:
// for d (whole rounds) or, with maxRounds > 0, for exactly that many
// rounds. With tracing each call is followed by its layer replay.
func runPhase(w *world, d time.Duration, maxRounds int, trace bool) (*phase, []*tracer, error) {
	n := len(w.scripts)
	p := &phase{sp: w.sp, scripts: w.scripts, conns: make([][]*call, n), roundDur: make([][]time.Duration, n)}
	var err error
	if p.before, err = w.scrape(); err != nil {
		return nil, nil, err
	}
	tracers := make([]*tracer, len(w.scripts))
	errs := make([]error, len(w.scripts))
	p.rt0 = readRuntime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, sc := range w.scripts {
		cl := w.client()
		if trace {
			tracers[i] = &tracer{}
		}
		wg.Add(1)
		go func(i int, sc script, cl *client) {
			defer wg.Done()
			for r := 0; ; r++ {
				if maxRounds > 0 && r == maxRounds || maxRounds == 0 && r > 0 && !time.Now().Before(deadline) {
					return
				}
				t0 := time.Now()
				for j := 0; j < sc.roundLen(); j++ {
					c := sc.next(r, j)
					body := cl.do(c)
					w.keep(c, body)
					sc.observe(c, body)
					if trace && errs[i] == nil && c.ok() {
						errs[i] = sc.replay(c, body, tracers[i])
					}
					c.body = nil
					p.conns[i] = append(p.conns[i], c)
				}
				p.roundDur[i] = append(p.roundDur[i], time.Since(t0))
			}
		}(i, sc, cl)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.rt1 = readRuntime()
	p.peakRSS = peakRSSMB()
	if p.after, err = w.scrape(); err != nil {
		return nil, nil, err
	}
	for _, e := range errs {
		if e != nil {
			return nil, nil, fmt.Errorf("replay: %w", e)
		}
	}
	return p, tracers, nil
}
