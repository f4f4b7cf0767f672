package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Format selects the tracer's on-disk encoding.
type Format int

// Trace encodings.
const (
	// FormatJSONL writes one Record per line; ReadRecords decodes it.
	FormatJSONL Format = iota
	// FormatChrome writes a Chrome trace_event JSON array loadable in
	// chrome://tracing / Perfetto: write and read records become complete
	// ("X") slices on one timeline, everything else becomes an instant
	// ("i") event, with the simulated nanosecond clock mapped onto the
	// trace's microsecond axis.
	FormatChrome
)

// ParseFormat resolves a format name ("jsonl" or "chrome").
func ParseFormat(s string) (Format, error) {
	switch s {
	case "jsonl", "":
		return FormatJSONL, nil
	case "chrome":
		return FormatChrome, nil
	default:
		return 0, fmt.Errorf("telemetry: unknown trace format %q (want jsonl or chrome)", s)
	}
}

// Tracer renders a System's records into a trace file. The sink's owner
// hands it records (see flightStage.render); Close may be called once
// from any goroutine after the run.
type Tracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	enc    *json.Encoder
	format Format
	seq    uint64
	opened bool
	closed bool
	err    error
}

// NewTracer returns a tracer writing the given format to w. The caller
// owns w; Close flushes but does not close it.
func NewTracer(w io.Writer, format Format) *Tracer {
	t := &Tracer{w: bufio.NewWriterSize(w, 1<<16), format: format}
	t.enc = json.NewEncoder(t.w)
	return t
}

// render appends raw record r, numbering it with the tracer's sequence.
// Encoding errors are sticky and surfaced by Close.
func (t *Tracer) render(r *rec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	t.seq++
	out := r.decode(t.seq)
	if t.format == FormatChrome {
		t.renderChrome(&out)
		return
	}
	t.err = t.enc.Encode(&out)
}

// chromeEvent is the trace_event JSON shape chrome://tracing loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *Tracer) renderChrome(r *Record) {
	sep := ",\n"
	if !t.opened {
		t.opened, sep = true, "[\n"
	}
	if _, err := t.w.WriteString(sep); err != nil {
		t.err = err
		return
	}
	ce := chromeEvent{
		Name: r.Kind,
		Ph:   "i",
		Ts:   r.AtNs / 1000,
		Pid:  1,
		Tid:  1,
		Args: map[string]any{"seq": r.Seq},
	}
	if r.Trace != 0 {
		ce.Args["trace"] = r.Trace
	}
	if r.Decision != "" {
		ce.Args["decision"] = r.Decision
	}
	if r.Kind == "write" || r.Kind == "read" {
		ce.Ph = "X"
		ce.Dur = r.LatNs / 1000
		ce.Args["addr"] = r.Addr
		ce.Args["phys"] = r.Phys
		ce.Args["dedup"] = r.Dedup
		ce.Args["hit"] = r.Hit
	}
	if r.Detail != "" {
		ce.Args["detail"] = r.Detail
	}
	b, err := json.Marshal(ce)
	if err != nil {
		t.err = err
		return
	}
	_, t.err = t.w.Write(b)
}

// Close terminates the encoding (for Chrome, the closing bracket) and
// flushes, returning the first error the tracer encountered.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	if t.format == FormatChrome {
		end := "\n]\n"
		if !t.opened {
			end = "[\n]\n"
		}
		if _, err := t.w.WriteString(end); err != nil {
			t.err = err
			return t.err
		}
	}
	t.err = t.w.Flush()
	return t.err
}

// ReadRecords decodes a JSONL trace back into records — the round-trip
// counterpart of FormatJSONL. Decoding stops with an error at the first
// malformed line.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(r)
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, fmt.Errorf("telemetry: record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}
