package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"hilight"
	"hilight/internal/session"
)

// The session-edit shape: mid and large round-tripping circuits on one
// explicit chip. A round edits every session sessionEdits times in a
// seeded order and, after every len(sessionRoots)*sessionEdits/
// sessionFeeds edits, sends a defect feed — the run's seeded map and a
// heal in turn — followed by one fetch of every session head, which is
// how the client follows the feed's fingerprint remap.
//
// One map alternating with a heal keeps a feed's work bounded: entries
// compiled under the map do not conflict with it again, so a map feed
// recompiles only what was compiled since the last heal. It also keeps
// every fingerprint's schedule fixed: a second map would recompile the
// entries of the first, and feeding the first again would re-derive
// fingerprints the client was already served from other parents.
var sessionRoots = []string{"sqrt8_260", "squar5_261", "square_root_7", "urf2_277"}

const (
	sessionGridW        = 6
	sessionGridH        = 5
	sessionEdits        = 5
	sessionFeeds        = 4
	sessionDefectRate   = 0.03
	sessionDeadChannels = 2
	// sessionCacheBytes caps the schedule cache at about a hundred
	// session schedules, so the feed's sweep and the process's memory
	// stop growing after the first rounds however fast the server is.
	// The heads stay: each is used again after at most ten new entries
	// (five edits and a feed's recompiles), far short of a hundred.
	sessionCacheBytes = 8 << 20
	// sessionCompileSeed is the compile seed of every session request.
	// The run's seed draws the edits and the defect map; with only four
	// sessions, drawing their placements too would make a seed's
	// figures depend on four random layouts.
	sessionCompileSeed = 1
)

type stepKind int

const (
	stepEdit  stepKind = iota // a single-gate edit recompiled from the head
	stepFeed                  // POST /v1/defects
	stepFetch                 // re-request the head: a cache hit
)

type step struct {
	kind stepKind
	sess int
}

type sessState struct {
	root        *circ
	lines       []string // JSON-escaped QASM lines of the current circuit
	header      int      // lines before the first gate
	gates       int
	head        string             // fingerprint of the latest compile
	headDefects *hilight.DefectMap // the map the head was compiled under
	root0       *call              // the set-up compile of the root

	// Replay state: the head's QASM and binary schedule as the client
	// reproduced them.
	rpQASM string
	rpBin  []byte
	// Check state: the circuit as of the last call the checker saw.
	chk *hilight.Circuit
}

// sessionScript drives the sessions of one connection.
type sessionScript struct {
	in      *inputs
	sp      *spool
	sess    []*sessState
	defects *hilight.DefectMap // the map of the last feed; nil when healed
	plan    []step
	planR   int
	buf     bytes.Buffer
}

// warmSession opens the journal (at boot) and compiles every session
// root: the parents of the first edits.
func warmSession(w *world) ([]script, error) {
	sc := &sessionScript{in: w.in, sp: w.sp, planR: -1}
	cl := w.client()
	for i, root := range w.in.roots {
		st := &sessState{root: root, gates: len(root.c.Gates)}
		st.lines, st.header = qasmLines(root)
		sc.sess = append(sc.sess, st)
		c := &call{round: -1, src: root, sess: i, seed: sessionCompileSeed, wantCached: 0}
		c.body = compileBody(&sc.buf, root.qasmJSON, "", c.seed, w.in.grid, nil)
		st.root0 = c
		if _, err := w.send(cl, sc, c); err != nil {
			return nil, err
		}
	}
	return []script{sc}, nil
}

func (s *sessionScript) roundLen() int {
	return len(s.sess)*sessionEdits + sessionFeeds*(1+len(s.sess))
}

// planRound lays out round r: the shuffled edits in equal chunks, each
// chunk followed by a feed and a fetch of every head.
func (s *sessionScript) planRound(r int) {
	rng := rand.New(rand.NewSource(mix(s.in.seed, 5, int64(r))))
	var order []int
	for k := 0; k < sessionEdits; k++ {
		for si := range s.sess {
			order = append(order, si)
		}
	}
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	chunk := len(order) / sessionFeeds
	s.plan = s.plan[:0]
	for f := 0; f < sessionFeeds; f++ {
		for _, si := range order[f*chunk : (f+1)*chunk] {
			s.plan = append(s.plan, step{stepEdit, si})
		}
		s.plan = append(s.plan, step{stepFeed, -1})
		for si := range s.sess {
			s.plan = append(s.plan, step{stepFetch, si})
		}
	}
	s.planR = r
}

func (s *sessionScript) next(r, i int) *call {
	if s.planR != r {
		s.planRound(r)
	}
	switch st := s.plan[i]; st.kind {
	case stepFeed:
		return s.nextFeed(r, i)
	case stepFetch:
		ss := s.sess[st.sess]
		c := &call{round: r, fetch: true, sess: st.sess, seed: sessionCompileSeed, defects: ss.headDefects, wantCached: 1}
		c.body = s.body(ss, ss.headDefects)
		return c
	default:
		return s.nextEdit(r, i, st.sess)
	}
}

// nextEdit applies one seeded single-gate edit to a session — a CX
// appended or inserted near the end of the circuit — and asks for a
// recompile from the head under the current defect map.
func (s *sessionScript) nextEdit(r, i, si int) *call {
	rng := rand.New(rand.NewSource(mix(s.in.seed, 6, int64(r), int64(i))))
	st := s.sess[si]
	n := st.root.c.NumQubits
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	g := hilight.Gate{Kind: hilight.CX, Q0: a, Q1: b}
	// Edits only add gates, so no edit recreates a circuit the session
	// had before.
	var e hilight.Edit
	if rng.Intn(2) == 0 {
		e = hilight.Edit{Op: hilight.OpAppend, Gate: g}
		st.lines = append(st.lines, gateLine(g, n))
	} else {
		e = hilight.Edit{Op: hilight.OpInsert, Index: st.gates - rng.Intn(st.gates/10+1), Gate: g}
		at := st.header + e.Index
		st.lines = append(st.lines, "")
		copy(st.lines[at+1:], st.lines[at:])
		st.lines[at] = gateLine(g, n)
	}
	st.gates++
	c := &call{round: r, sess: si, edit: &e, seed: sessionCompileSeed, defects: s.defects, parent: st.head, wantCached: -1}
	c.body = s.body(st, s.defects)
	return c
}

// body writes a compile request for a session's current circuit.
func (s *sessionScript) body(st *sessState, dm *hilight.DefectMap) []byte {
	buf := &s.buf
	buf.Reset()
	buf.WriteString(`{"qasm":"`)
	for _, l := range st.lines {
		buf.WriteString(l)
		buf.WriteString(`\n`)
	}
	buf.WriteByte('"')
	writeOptions(buf, "", sessionCompileSeed, s.in.grid, dm)
	return buf.Bytes()
}

// nextFeed announces the next state of the chip: the run's defect map
// and a heal in turn.
func (s *sessionScript) nextFeed(r, i int) *call {
	k := 0
	for _, st := range s.plan[:i] {
		if st.kind == stepFeed {
			k++
		}
	}
	s.defects = nil
	dm := &hilight.DefectMap{}
	if k%2 == 0 {
		s.defects, dm = s.in.defects, s.in.defects
	}
	body, _ := json.Marshal(map[string]any{"defects": dm}) // plain int slices cannot fail
	return &call{round: r, feed: true, sess: -1, defects: s.defects, body: body}
}

func (s *sessionScript) observe(c *call, body []byte) {
	if !c.ok() {
		return
	}
	switch {
	case c.feed:
		var fr feedResponse
		if json.Unmarshal(body, &fr) != nil {
			return // the checker reports the undecodable body
		}
		for i, st := range s.sess {
			if nfp, ok := fr.Fingerprints[st.head]; ok && nfp != "" {
				st.head = nfp
				st.headDefects = c.defects
				c.remapped = append(c.remapped, i)
			}
		}
	case !c.fetch:
		st := s.sess[c.sess]
		st.head, st.headDefects = c.fp, c.defects
	}
}

func (s *sessionScript) replay(c *call, body []byte, tr *tracer) error {
	if c.feed {
		tr.add(-1, "defects.feed", c.lat)
		// Reproduce the feed's warm recompile of each remapped head, so
		// later edits replay against the parent the server holds.
		for _, si := range c.remapped {
			st := s.sess[si]
			if err := s.loadRoot(st); err != nil {
				return err
			}
			pc, err := hilight.ParseQASM("parent", st.rpQASM)
			if err != nil {
				return err
			}
			ps, err := hilight.DecodeScheduleBinary(st.rpBin)
			if err != nil {
				return err
			}
			res, err := hilight.RecompileFrom(pc, ps, pc, s.in.grid, compileOptions("", sessionCompileSeed, c.defects)...)
			if err != nil {
				return err
			}
			if st.rpBin, err = hilight.EncodeScheduleBinary(res.Schedule); err != nil {
				return err
			}
		}
		return nil
	}
	st := s.sess[c.sess]
	if err := s.loadRoot(st); err != nil {
		return err
	}
	var req struct {
		QASM string `json:"qasm"`
	}
	if err := json.Unmarshal(c.body, &req); err != nil {
		return err
	}
	if c.fetch {
		_, err := replayCompile(tr, c, req.QASM, s.in.grid, st.rpBin, nil)
		return err
	}
	var stored []byte
	if c.cached {
		// An edit that recreated an earlier circuit is served from the
		// cache; replay the hit against the schedule it returned.
		var err error
		if stored, err = binaryOfEnvelope(body); err != nil {
			return err
		}
	}
	bin, err := replayCompile(tr, c, req.QASM, s.in.grid, stored, &parentRef{qasm: st.rpQASM, bin: st.rpBin})
	if err != nil {
		return err
	}
	st.rpQASM, st.rpBin = req.QASM, bin
	return nil
}

// loadRoot fills a session's replay state from its set-up compile.
func (s *sessionScript) loadRoot(st *sessState) error {
	if st.rpBin != nil {
		return nil
	}
	b, err := s.sp.load(st.root0.ref)
	if err != nil {
		return err
	}
	st.rpQASM = st.root.qasm
	st.rpBin, err = binaryOfEnvelope(b)
	return err
}

func (s *sessionScript) subject(c *call) (*hilight.Circuit, *hilight.Grid) {
	if c.feed {
		return nil, nil
	}
	st := s.sess[c.sess]
	switch {
	case c.round < 0:
		st.chk = st.root.c
	case c.edit != nil:
		next, err := session.ApplyEdits(st.chk, []hilight.Edit{*c.edit})
		if err != nil {
			panic(fmt.Sprintf("generated session edit does not apply: %v", err)) // a bug in nextEdit
		}
		st.chk = next
	}
	return st.chk, s.in.grid
}
