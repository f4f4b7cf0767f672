package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/telemetry"
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the HTTP listen address (":0" picks a free port).
	Addr string
	// TCPAddr, when non-empty, additionally serves the raw binary
	// protocol on this address.
	TCPAddr string
	// RequestTimeout bounds each request's wait for its shard (default
	// 2s). On expiry the HTTP API returns 504 and the TCP protocol
	// StatusTimeout.
	RequestTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ when the engine
	// has telemetry enabled.
	Pprof bool
	// SlowRequestThreshold, when positive, logs every request (HTTP and
	// TCP, writes and reads) whose wall-clock service time reaches it.
	SlowRequestThreshold time.Duration
	// SlowLog receives slow-request lines and error-path flight-recorder
	// dumps (default os.Stderr).
	SlowLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.SlowLog == nil {
		c.SlowLog = os.Stderr
	}
	return c
}

// Server fronts a shard.Engine over HTTP/JSON and (optionally) raw TCP.
//
// Flow control: enqueueing on a full shard queue is never waited out —
// the request is shed immediately (HTTP 429 / StatusOverloaded), keeping
// the accept loops responsive under overload. Requests that enqueue but
// exceed RequestTimeout waiting for their shard return 504 /
// StatusTimeout (the shard still executes them; only the response is
// abandoned).
type Server struct {
	eng *shard.Engine
	cfg Config

	httpLn net.Listener
	httpSr *http.Server
	tcp    *FrameServer // nil without Config.TCPAddr

	draining chan struct{}
	closedMu sync.Once

	start  time.Time
	slow   atomic.Uint64 // requests at/over SlowRequestThreshold
	slowMu sync.Mutex    // serializes slow-log lines and flight dumps

	// Rolling-window rate trackers, sampled lazily on each /statusz
	// render: between scrapes they cost nothing.
	rateWrites *telemetry.Rolling
	rateReads  *telemetry.Rolling
	rateShed   *telemetry.Rolling
}

// New listens and starts serving eng in background goroutines. The
// engine's lifetime stays with the caller: Shutdown drains the server but
// does not Close the engine.
func New(eng *shard.Engine, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:        eng,
		cfg:        cfg,
		draining:   make(chan struct{}),
		start:      time.Now(),
		rateWrites: telemetry.NewRolling(rateWindow, rateSlots),
		rateReads:  telemetry.NewRolling(rateWindow, rateSlots),
		rateShed:   telemetry.NewRolling(rateWindow, rateSlots),
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s.httpLn = ln
	s.httpSr = &http.Server{
		Handler:           s.mux(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = s.httpSr.Serve(ln) }()
	if cfg.TCPAddr != "" {
		tcp, err := ListenFrames(cfg.TCPAddr, nodeHandler{s}, s.draining)
		if err != nil {
			_ = s.httpSr.Close()
			return nil, fmt.Errorf("server: listen tcp %s: %w", cfg.TCPAddr, err)
		}
		s.tcp = tcp
	}
	return s, nil
}

// Addr returns the bound HTTP address.
func (s *Server) Addr() string { return s.httpLn.Addr().String() }

// URL returns the HTTP base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// TCPAddr returns the bound binary-protocol address ("" when disabled).
func (s *Server) TCPAddr() string {
	if s.tcp == nil {
		return ""
	}
	return s.tcp.Addr()
}

// Shutdown gracefully drains the server: stop accepting, finish in-flight
// HTTP requests and TCP frames, then flush the engine so every accepted
// write reached the device model. On ctx expiry remaining connections are
// forcibly closed and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	var firstErr error
	if err := s.httpSr.Shutdown(ctx); err != nil {
		firstErr = err
		_ = s.httpSr.Close()
	}
	if s.tcp != nil {
		if err := s.tcp.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.eng.Flush(); err != nil && firstErr == nil && !errors.Is(err, shard.ErrClosed) {
		firstErr = err
	}
	return firstErr
}

func (s *Server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/write", s.handleWrite)
	mux.HandleFunc("/v1/read", s.handleRead)
	mux.HandleFunc("/v1/flush", s.handleFlush)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Statusz())
	})
	// Registered before the catch-all /debug/ telemetry mount below:
	// ServeMux routes the longer pattern first, so the flight recorder
	// works with or without -metrics.
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		recs := s.eng.FlightRecords()
		if recs == nil {
			recs = []telemetry.Record{}
		}
		s.writeJSON(w, http.StatusOK, recs)
	})
	mux.HandleFunc("/debug/device", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.Device())
	})
	// Raw per-shard health snapshots, shaped for nvm.MergeHealth: the
	// cluster router scrapes this from every member and merges the fleet
	// into one device view (/debug/device is the human-shaped rollup).
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, http.StatusOK, s.eng.DeviceHealths())
	})
	if reg := s.eng.Registry(); reg != nil {
		mux.Handle("/metrics", telemetry.Handler(reg, s.cfg.Pprof))
		mux.Handle("/debug/", telemetry.Handler(reg, s.cfg.Pprof))
	}
	return mux
}

// BeginDrain flips the server unready — /readyz answers 503 and new TCP
// connections are rejected — without closing the listeners or touching
// in-flight work. It is the advance drain announcement: a load balancer or
// cluster router polling /readyz stops sending traffic within one probe
// interval, after which Shutdown proceeds with an already-quiet server.
// Idempotent; Shutdown implies it.
func (s *Server) BeginDrain() {
	s.closedMu.Do(func() { close(s.draining) })
}

// Ready reports serving readiness: true until Shutdown begins draining.
func (s *Server) Ready() bool {
	select {
	case <-s.draining:
		return false
	default:
		return true
	}
}

// Rolling-rate window for the /statusz rates section: ~15 s of history in
// 1.5 s sub-windows smooths dashboard polling without hiding bursts.
const (
	rateWindow = 15 * time.Second
	rateSlots  = 10
)

// RateStatus is the /statusz rolling-window throughput section, derived
// from the engine's live op counters sampled at each render.
type RateStatus struct {
	WindowS    float64 `json:"window_s"`
	WritesPerS float64 `json:"writes_per_s"`
	ReadsPerS  float64 `json:"reads_per_s"`
	ShedPerS   float64 `json:"shed_per_s"`
}

// DeviceStatus is the compact device section of /statusz (the full
// per-bank view lives at /debug/device).
type DeviceStatus struct {
	MediaReads    uint64  `json:"media_reads"`
	MediaWrites   uint64  `json:"media_writes"`
	MaxWear       uint64  `json:"max_wear"`
	MeanWear      float64 `json:"mean_wear"`
	P99Wear       uint64  `json:"p99_wear"`
	WearSkew      float64 `json:"wear_skew"`
	EnergyReadNJ  float64 `json:"energy_read_nj"`
	EnergyWriteNJ float64 `json:"energy_write_nj"`
	DedupHitRate  float64 `json:"dedup_hit_rate"`
	BytesSaved    uint64  `json:"dedup_bytes_saved"`
}

// StatuszResponse is the /statusz JSON document: the live serving state —
// queue depths, shed counts, per-stage latency
// percentiles — gathered without any engine barrier, so it answers even
// while shards are wedged.
type StatuszResponse struct {
	Scheme          string                              `json:"scheme"`
	Shards          int                                 `json:"shards"`
	Ready           bool                                `json:"ready"`
	UptimeS         float64                             `json:"uptime_s"`
	QueueDepths     []int                               `json:"queue_depths"`
	QueueCap        int                                 `json:"queue_cap"`
	Shed            uint64                              `json:"shed_requests"`
	Tracing         bool                                `json:"tracing"`
	SlowThresholdMs float64                             `json:"slow_threshold_ms"`
	SlowRequests    uint64                              `json:"slow_requests"`
	FlightRecords   int                                 `json:"flight_records"`
	Rates           *RateStatus                         `json:"rates,omitempty"`
	Device          *DeviceStatus                       `json:"device,omitempty"`
	Hybrid          *HybridStatus                       `json:"hybrid,omitempty"`
	Stages          map[string]telemetry.LatencySummary `json:"stages,omitempty"`
}

// Statusz builds the /statusz document.
func (s *Server) Statusz() StatuszResponse {
	resp := StatuszResponse{
		Scheme:          s.eng.SchemeName(),
		Shards:          s.eng.NumShards(),
		Ready:           s.Ready(),
		UptimeS:         time.Since(s.start).Seconds(),
		QueueDepths:     s.eng.QueueLens(),
		QueueCap:        s.eng.QueueCap(),
		Shed:            s.eng.Shed(),
		Tracing:         s.eng.TracingEnabled(),
		SlowThresholdMs: float64(s.cfg.SlowRequestThreshold) / float64(time.Millisecond),
		SlowRequests:    s.slow.Load(),
		FlightRecords:   s.eng.FlightLen(),
	}
	now := time.Now()
	writes, reads, _ := s.eng.LiveOps()
	resp.Rates = &RateStatus{
		WindowS:    s.rateWrites.Window().Seconds(),
		WritesPerS: s.rateWrites.ObserveRate(now, writes),
		ReadsPerS:  s.rateReads.ObserveRate(now, reads),
		ShedPerS:   s.rateShed.ObserveRate(now, resp.Shed),
	}
	h := s.eng.DeviceHealth()
	st := s.eng.LiveSchemeStats()
	resp.Device = &DeviceStatus{
		MediaReads:    h.Reads,
		MediaWrites:   h.Writes,
		MaxWear:       h.MaxWear,
		MeanWear:      h.MeanWear(),
		P99Wear:       h.P99Wear,
		WearSkew:      h.WearSkew(),
		EnergyReadNJ:  h.ReadEnergyNJ,
		EnergyWriteNJ: h.WriteEnergyNJ,
		DedupHitRate:  st.DedupRate(),
		BytesSaved:    st.DedupWrites * 64,
	}
	if hs, ok := s.eng.HybridStats(); ok {
		resp.Hybrid = HybridFromStats(hs)
	}
	if hists, ok := s.eng.StageSnapshot(); ok {
		resp.Stages = telemetry.Summarize[telemetry.Stage](hists[:])
	}
	return resp
}

// noteRequest applies the slow-request policy to one completed request.
func (s *Server) noteRequest(proto, op string, tc telemetry.TraceCtx, addr uint64, wall time.Duration, err error) {
	if s.cfg.SlowRequestThreshold <= 0 || wall < s.cfg.SlowRequestThreshold {
		return
	}
	s.slow.Add(1)
	status := "ok"
	if err != nil {
		status = err.Error()
	}
	s.slowMu.Lock()
	fmt.Fprintf(s.cfg.SlowLog, "server: slow request trace=%d %s %s addr=%d shard=%d wall=%s status=%s\n",
		tc.TraceID, proto, op, addr, s.eng.ShardOf(addr), wall, status)
	s.slowMu.Unlock()
}

// noteBatch applies the slow-request policy to one completed batch frame.
// Exactly one of wops/addrs is non-nil (write vs read batch). Unlike the
// scalar path, a slow batch line reports the batch size and its distinct-
// shard fan-out — the two numbers that say whether the frame was slow
// because it was big or because it serialized behind one hot shard. The
// fan-out map is built only inside the slow branch, so the hot path stays
// allocation-free.
func (s *Server) noteBatch(proto, op string, tc telemetry.TraceCtx, wops []shard.WriteBatchOp, addrs []uint64, wall time.Duration, err error) {
	if s.cfg.SlowRequestThreshold <= 0 || wall < s.cfg.SlowRequestThreshold {
		return
	}
	s.slow.Add(1)
	shards := make(map[int]struct{}, 8)
	for i := range wops {
		shards[s.eng.ShardOf(wops[i].Addr)] = struct{}{}
	}
	for _, a := range addrs {
		shards[s.eng.ShardOf(a)] = struct{}{}
	}
	status := "ok"
	if err != nil {
		status = err.Error()
	}
	s.slowMu.Lock()
	fmt.Fprintf(s.cfg.SlowLog, "server: slow request trace=%d %s %s batch=%d shards=%d wall=%s status=%s\n",
		tc.TraceID, proto, op, len(wops)+len(addrs), len(shards), wall, status)
	s.slowMu.Unlock()
}

// dumpFlight writes the tail of the flight recorder to the slow log — the
// black-box dump accompanying an unexpected server error.
func (s *Server) dumpFlight(reason string) {
	recs := s.eng.FlightRecords()
	const tail = 8
	if len(recs) > tail {
		recs = recs[len(recs)-tail:]
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	fmt.Fprintf(s.cfg.SlowLog, "server: flight recorder dump (%s), last %d records:\n", reason, len(recs))
	enc := json.NewEncoder(s.cfg.SlowLog)
	for i := range recs {
		_ = enc.Encode(&recs[i])
	}
}

// DumpFlightRecorder writes the full flight-recorder contents (every
// shard's ring, oldest first) to w as JSONL — one telemetry.Record per line,
// decodable with encoding/json. esdserve calls it on SIGQUIT.
func (s *Server) DumpFlightRecorder(w io.Writer) {
	recs := s.eng.FlightRecords()
	fmt.Fprintf(w, "server: flight recorder dump, %d records:\n", len(recs))
	enc := json.NewEncoder(w)
	for i := range recs {
		_ = enc.Encode(&recs[i])
	}
}

// WriteRequest is the /v1/write JSON body.
type WriteRequest struct {
	Addr uint64 `json:"addr"`
	// Data is the base64-encoded 64-byte line.
	Data []byte `json:"data"`
}

// WriteResponse is the /v1/write JSON reply. LatencyNs is the simulated
// write-path service latency (not the wire round trip). Trace is the
// request's trace ID: grep it in the event trace or the flight recorder to
// see where the request's latency went.
type WriteResponse struct {
	Dedup     bool    `json:"dedup"`
	PhysAddr  uint64  `json:"phys_addr"`
	LatencyNs float64 `json:"latency_ns"`
	Shard     int     `json:"shard"`
	Trace     uint64  `json:"trace,omitempty"`
}

// ReadResponse is the /v1/read JSON reply.
type ReadResponse struct {
	Hit       bool    `json:"hit"`
	Data      []byte  `json:"data"`
	LatencyNs float64 `json:"latency_ns"`
	Shard     int     `json:"shard"`
	Trace     uint64  `json:"trace,omitempty"`
}

// StatsResponse is the /v1/stats JSON reply: the merged engine summary
// plus serving-side counters.
type StatsResponse struct {
	Scheme       string  `json:"scheme"`
	Shards       int     `json:"shards"`
	Writes       uint64  `json:"writes"`
	Reads        uint64  `json:"reads"`
	DedupWrites  uint64  `json:"dedup_writes"`
	UniqueWrites uint64  `json:"unique_writes"`
	DedupRate    float64 `json:"dedup_rate"`
	DeviceWrites uint64  `json:"device_writes"`
	WriteMeanNs  float64 `json:"write_mean_ns"`
	WriteP99Ns   float64 `json:"write_p99_ns"`
	ReadMeanNs   float64 `json:"read_mean_ns"`
	ReadP99Ns    float64 `json:"read_p99_ns"`
	EnergyNJ     float64 `json:"energy_nj"`
	MetadataNVMM int64   `json:"metadata_nvmm_bytes"`
	MaxWear      uint64  `json:"max_wear"`
	Shed         uint64  `json:"shed_requests"`
	SimNowNs     float64 `json:"sim_now_ns"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// mapErr translates engine errors to HTTP status codes. An unexpected
// error (the 500 path) also dumps the flight-recorder tail to the slow
// log, so the pipeline state that led to it is preserved.
func (s *Server) mapErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, shard.ErrOverloaded):
		w.Header().Set("Retry-After", "0")
		http.Error(w, "shard queue full", http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "request timed out", http.StatusGatewayTimeout)
	case errors.Is(err, shard.ErrClosed):
		http.Error(w, "server draining", http.StatusServiceUnavailable)
	default:
		s.dumpFlight("error: " + err.Error())
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req WriteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Data) != ecc.LineSize {
		http.Error(w, fmt.Sprintf("data must be %d bytes, got %d", ecc.LineSize, len(req.Data)), http.StatusBadRequest)
		return
	}
	var line ecc.Line
	copy(line[:], req.Data)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	tc := s.eng.NewTrace()
	tc.StartNs = time.Now().UnixNano()
	out, err := s.eng.TryWriteTraced(ctx, req.Addr, line, tc)
	s.noteRequest("http", "write", tc, req.Addr, time.Since(time.Unix(0, tc.StartNs)), err)
	if err != nil {
		s.mapErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, WriteResponse{
		Dedup:     out.Deduplicated,
		PhysAddr:  out.PhysAddr,
		LatencyNs: out.Breakdown.Total().Nanoseconds(),
		Shard:     s.eng.ShardOf(req.Addr),
		Trace:     tc.TraceID,
	})
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request) {
	addr, err := strconv.ParseUint(r.URL.Query().Get("addr"), 10, 64)
	if err != nil {
		http.Error(w, "addr query parameter must be an unsigned integer", http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	tc := s.eng.NewTrace()
	tc.StartNs = time.Now().UnixNano()
	res, err := s.eng.TryReadTraced(ctx, addr, tc)
	s.noteRequest("http", "read", tc, addr, time.Since(time.Unix(0, tc.StartNs)), err)
	if err != nil {
		s.mapErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ReadResponse{
		Hit:       res.Hit,
		Data:      res.Data[:],
		LatencyNs: res.Lat.Nanoseconds(),
		Shard:     s.eng.ShardOf(addr),
		Trace:     tc.TraceID,
	})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := s.eng.Flush(); err != nil {
		s.mapErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sum, err := s.eng.Summary()
	if err != nil {
		s.mapErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, statsFrom(s.eng, sum))
}

func statsFrom(eng *shard.Engine, sum shard.Summary) StatsResponse {
	return StatsResponse{
		Scheme:       eng.SchemeName(),
		Shards:       sum.Shards,
		Writes:       sum.Scheme.Writes,
		Reads:        sum.Scheme.Reads,
		DedupWrites:  sum.Scheme.DedupWrites,
		UniqueWrites: sum.Scheme.UniqueWrites,
		DedupRate:    sum.Scheme.DedupRate(),
		DeviceWrites: sum.DeviceWrites,
		WriteMeanNs:  sum.WriteHist.Mean().Nanoseconds(),
		WriteP99Ns:   sum.WriteHist.Percentile(0.99).Nanoseconds(),
		ReadMeanNs:   sum.ReadHist.Mean().Nanoseconds(),
		ReadP99Ns:    sum.ReadHist.Percentile(0.99).Nanoseconds(),
		EnergyNJ:     sum.Energy.Total(),
		MetadataNVMM: sum.MetadataNVMM,
		MaxWear:      sum.MaxWear,
		Shed:         sum.Shed,
		SimNowNs:     sum.Now.Nanoseconds(),
	}
}
