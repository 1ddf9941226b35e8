package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"hilight"
)

// span is one timed layer call of the traced replay. A request's root
// span is its HTTP call; its children are the replayed layers, run after
// the call returns, so a span's self time is its duration minus its
// children's.
type span struct {
	parent int // index of the parent span, -1 for a root
	name   string
	dur    time.Duration
	bytes  int // input bytes the layer consumed, where that is meaningful
}

// tracer records the spans of one connection in memory.
type tracer struct {
	spans []span
}

func (t *tracer) add(parent int, name string, d time.Duration) int {
	t.spans = append(t.spans, span{parent: parent, name: name, dur: d})
	return len(t.spans) - 1
}

// time runs fn as a span under parent.
func (t *tracer) time(parent int, name string, fn func() error) (int, error) {
	t0 := time.Now()
	err := fn()
	return t.add(parent, name, time.Since(t0)), err
}

// layerTotals is the self time and count of every span name.
type layerTotals map[string]*layerTotal

type layerTotal struct {
	n     int
	self  time.Duration
	dur   time.Duration
	bytes int
}

func (lt layerTotals) ms(name string) float64 {
	if t := lt[name]; t != nil {
		return float64(t.self.Nanoseconds()) / 1e6
	}
	return 0
}

func (lt layerTotals) count(name string) int {
	if t := lt[name]; t != nil {
		return t.n
	}
	return 0
}

func totals(trs []*tracer) layerTotals {
	out := layerTotals{}
	for _, t := range trs {
		self := make([]time.Duration, len(t.spans))
		for i, s := range t.spans {
			self[i] += s.dur
			if s.parent >= 0 {
				self[s.parent] -= s.dur
			}
		}
		for i, s := range t.spans {
			lt := out[s.name]
			if lt == nil {
				lt = &layerTotal{}
				out[s.name] = lt
			}
			lt.n++
			lt.self += self[i]
			lt.dur += s.dur
			lt.bytes += s.bytes
		}
	}
	return out
}

// parentRef is a session parent as the handler rebuilds it: the QASM of
// its recorded request and its stored binary schedule.
type parentRef struct {
	qasm string
	bin  []byte
}

// replayCompile times, after a compile call returned, the public
// function of each layer the handler ran for it, in the handler's order:
// request parse, fingerprint, then for a hit the transcode the response
// mode needs (stored is the cached binary schedule), and for a miss the
// parent rebuild (sessions), Compile or RecompileFrom with its pass
// trace, the binary encode that fills the cache and the transcode back
// to JSON. It returns the binary schedule the replay produced or served
// and records its digest, which the checker compares with the schedule
// the server answered.
func replayCompile(tr *tracer, c *call, src string, g *hilight.Grid, stored []byte, parent *parentRef) ([]byte, error) {
	root := tr.add(-1, "http", c.lat)
	var pc *hilight.Circuit
	i, err := tr.time(root, "qasm.parse", func() (err error) {
		pc, err = hilight.ParseQASM("request", src)
		return err
	})
	tr.spans[i].bytes = len(src)
	if err != nil {
		return nil, err
	}
	opts := compileOptions(c.method, c.seed, c.defects)
	var fp string
	if _, err := tr.time(root, "fingerprint", func() (err error) {
		fp, err = hilight.Fingerprint(pc, g, opts...)
		return err
	}); err != nil {
		return nil, err
	}
	c.replayFP = fp

	bin := stored
	if c.cached {
		if stored == nil {
			return nil, fmt.Errorf("cache hit %.16s with no stored schedule to replay", c.fp)
		}
	} else {
		var res *hilight.Result
		if parent != nil {
			var ppc *hilight.Circuit
			var ps *hilight.Schedule
			if _, err := tr.time(root, "session.parent_rebuild", func() (err error) {
				if ppc, err = hilight.ParseQASM("parent", parent.qasm); err != nil {
					return err
				}
				ps, err = hilight.DecodeScheduleBinary(parent.bin)
				return err
			}); err != nil {
				return nil, err
			}
			var rc int
			if rc, err = tr.time(root, "session.recompile", func() (err error) {
				res, err = hilight.RecompileFrom(ppc, ps, pc, g, opts...)
				return err
			}); err != nil {
				return nil, err
			}
			addPasses(tr, rc, res)
			// The cold baseline of the same edit, outside the request tree.
			if _, err := tr.time(-1, "session.cold_base", func() error {
				_, err := hilight.Compile(pc, g, opts...)
				return err
			}); err != nil {
				return nil, err
			}
			tr.add(-1, "session.warm_base", tr.spans[rc].dur)
		} else {
			var cc int
			if cc, err = tr.time(root, "core.compile", func() (err error) {
				res, err = hilight.Compile(pc, g, opts...)
				return err
			}); err != nil {
				return nil, err
			}
			addPasses(tr, cc, res)
		}
		i, err := tr.time(root, "wire.encode", func() (err error) {
			bin, err = hilight.EncodeScheduleBinary(res.Schedule)
			return err
		})
		tr.spans[i].bytes = len(bin)
		if err != nil {
			return nil, err
		}
	}

	if c.mode != modeBinary {
		// JSON answers transcode the stored payload; streams decode it
		// into frames.
		var s *hilight.Schedule
		if _, err := tr.time(root, "wire.decode", func() (err error) {
			s, err = hilight.DecodeScheduleBinary(bin)
			return err
		}); err != nil {
			return nil, err
		}
		if c.mode == modeJSON {
			var js []byte
			i, err := tr.time(root, "sched.json_encode", func() (err error) {
				js, err = hilight.EncodeScheduleJSON(s)
				return err
			})
			if err != nil {
				return nil, err
			}
			tr.spans[i].bytes = len(js)
		}
	}
	c.replayed = sha256.Sum256(bin)
	c.binSize = len(bin)
	return bin, nil
}

// addPasses nests a compile's pass trace under its span.
func addPasses(tr *tracer, parent int, res *hilight.Result) {
	for _, st := range res.Trace {
		tr.add(parent, "core."+st.Stage, st.Duration)
	}
}
