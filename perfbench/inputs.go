package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"hilight"
	"hilight/internal/wire"
)

// drawSet names the Table 1 circuits the cold-compile and hot-hit
// workloads send as QASM. It is the set whose FormatQASM output parses
// back, fixed by name so that a later fix of the QFT rotation overflow
// (which breaks QFT-100 and larger) does not change the workloads.
var drawSet = []string{
	"4gt11_82", "4gt5_75", "alu-v0_26", "rd32_270", "sqrt8_260", "squar5_261",
	"square_root_7", "urf1_278", "urf2_277", "urf5_158", "urf5_280",
	"QFT-10", "QFT-16", "BV-10", "BV-100", "BV-150", "BV-200",
	"CC-11", "CC-18", "CC-100", "CC-200", "CC-300",
	"Ising-10", "Ising-13", "Ising-16", "Ising-500", "Ising-1000",
	"BWT-126", "BWT-254", "QAOA-100", "Shor-471",
}

// compileMethods are the methods the cold-compile and hot-hit workloads
// request.
var compileMethods = []string{"hilight", "hilight-map", "hilight-parallel"}

// circ is one input circuit with its QASM rendering.
type circ struct {
	name string
	c    *hilight.Circuit
	grid *hilight.Grid // the server's default grid for the circuit
	qasm string
	// qasmJSON is qasm as a JSON string literal, spliced into bodies.
	qasmJSON []byte
}

func newCirc(name string) (*circ, error) {
	c, ok := hilight.Benchmark(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	src := hilight.FormatQASM(c)
	if _, err := hilight.ParseQASM(name, src); err != nil {
		return nil, fmt.Errorf("%s does not round-trip through QASM: %w", name, err)
	}
	lit, err := json.Marshal(src)
	if err != nil {
		return nil, err
	}
	return &circ{name: name, c: c, grid: hilight.RectGrid(c.NumQubits), qasm: src, qasmJSON: lit}, nil
}

// inputs is everything a run sends, generated from the seed before any
// server boots.
type inputs struct {
	seed  int64
	circs []*circ // drawSet, in order
	// session-edit only
	roots   []*circ
	grid    *hilight.Grid      // the one chip every session compiles on
	defects *hilight.DefectMap // the defect map the feeds announce
}

func newInputs(seed int64, wl *workload) (*inputs, error) {
	in := &inputs{seed: seed}
	names := drawSet
	if wl.sessions {
		names = sessionRoots
	}
	for _, name := range names {
		c, err := newCirc(name)
		if err != nil {
			return nil, err
		}
		in.circs = append(in.circs, c)
	}
	if wl.sessions {
		in.roots = in.circs
		in.grid = hilight.NewGrid(sessionGridW, sessionGridH)
		// The first InjectDefects sample with no dead tile or vertex and
		// exactly sessionDeadChannels broken channels: every seed feeds
		// the same amount of damage, and no placed qubit loses its tile.
		for k := int64(0); in.defects == nil; k++ {
			if k == 100000 {
				return nil, fmt.Errorf("no defect map of the wanted shape")
			}
			_, dm := hilight.InjectDefects(in.grid, sessionDefectRate, mix(seed, 7, k))
			if len(dm.Tiles) == 0 && len(dm.Vertices) == 0 && len(dm.Channels) == sessionDeadChannels {
				in.defects = dm
			}
		}
	}
	return in, nil
}

// roundtripFailures counts the Table 1 circuits whose FormatQASM output
// does not parse back — requests for them would be answered 400.
func roundtripFailures() int {
	n := 0
	for _, name := range hilight.BenchmarkNames() {
		c, _ := hilight.Benchmark(name)
		if _, err := hilight.ParseQASM(name, hilight.FormatQASM(c)); err != nil {
			n++
		}
	}
	return n
}

// mix derives a sub-seed from a seed and coordinates (splitmix64 steps),
// so every round and step of every connection draws an independent,
// reproducible stream.
func mix(seed int64, xs ...int64) int64 {
	h := uint64(seed)
	for _, x := range xs {
		h ^= uint64(x) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// compileBody writes a POST /v1/compile body for an input circuit. The
// QASM literal is spliced in whole, so building a body costs a copy.
func compileBody(buf *bytes.Buffer, qasmJSON []byte, method string, seed int64, grid *hilight.Grid, dm *hilight.DefectMap) []byte {
	buf.Reset()
	buf.WriteString(`{"qasm":`)
	buf.Write(qasmJSON)
	writeOptions(buf, method, seed, grid, dm)
	return buf.Bytes()
}

// writeOptions writes the request fields after the QASM and closes the
// object.
func writeOptions(buf *bytes.Buffer, method string, seed int64, grid *hilight.Grid, dm *hilight.DefectMap) {
	if method != "" {
		buf.WriteString(`,"method":`)
		buf.WriteString(strconv.Quote(method))
	}
	buf.WriteString(`,"seed":`)
	buf.WriteString(strconv.FormatInt(seed, 10))
	if grid != nil {
		fmt.Fprintf(buf, `,"grid":{"w":%d,"h":%d}`, grid.W, grid.H)
	}
	if !dm.Empty() {
		b, _ := json.Marshal(dm) // plain int slices cannot fail
		buf.WriteString(`,"defects":`)
		buf.Write(b)
	}
	buf.WriteByte('}')
}

// compileOptions is the option list the server derives from a body
// written by compileBody.
func compileOptions(method string, seed int64, dm *hilight.DefectMap) []hilight.Option {
	var opts []hilight.Option
	if method != "" {
		opts = append(opts, hilight.WithMethod(method))
	}
	opts = append(opts, hilight.WithSeed(seed))
	if !dm.Empty() {
		opts = append(opts, hilight.WithDefects(dm))
	}
	return opts
}

// qasmLines splits a circuit's QASM into JSON-escaped lines (without
// their newlines) and returns how many header lines precede the gates.
func qasmLines(c *circ) ([]string, int) {
	raw := strings.Split(strings.TrimSuffix(c.qasm, "\n"), "\n")
	lines := make([]string, len(raw))
	for i, l := range raw {
		lines[i] = jsonEscape(l)
	}
	return lines, len(lines) - len(c.c.Gates)
}

// gateLine renders one gate as the JSON-escaped QASM line FormatQASM
// writes for it.
func gateLine(g hilight.Gate, qubits int) string {
	c := hilight.NewCircuit("", qubits)
	c.Append(g)
	src := strings.TrimSuffix(hilight.FormatQASM(c), "\n")
	return jsonEscape(src[strings.LastIndexByte(src, '\n')+1:])
}

func jsonEscape(s string) string {
	b, _ := json.Marshal(s) // strings always marshal
	return string(b[1 : len(b)-1])
}

// peekEnvelope reads the fingerprint and cached flag from the head of a
// JSON compile response without decoding the schedule behind them; the
// full decode happens in the output checks.
func peekEnvelope(body []byte) (fp string, cached bool) {
	head := body
	if len(head) > 256 {
		head = head[:256]
	}
	const key = `"fingerprint": "`
	if i := bytes.Index(head, []byte(key)); i >= 0 {
		rest := head[i+len(key):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			fp = string(rest[:j])
		}
	}
	cached = bytes.Contains(head, []byte(`"cached": true`))
	return fp, cached
}

// peekStreamCached walks a layer stream's frame headers to its closing
// metadata frame and reads the cached flag from it.
func peekStreamCached(body []byte) bool {
	const header = 4 // magic, kind, version
	if len(body) < header {
		return false
	}
	for b := body[header:]; len(b) > 0; {
		n, k := binary.Uvarint(b[1:])
		if k <= 0 || n > uint64(len(b)-1-k) {
			return false
		}
		payload := b[1+k : 1+k+int(n)]
		if b[0] == wire.FrameEnd {
			return bytes.Contains(payload, []byte(`"cached":true`))
		}
		b = b[1+k+int(n):]
	}
	return false
}
