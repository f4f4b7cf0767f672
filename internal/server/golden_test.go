package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/esdsim/esd/internal/config"
	"github.com/esdsim/esd/internal/ecc"
	"github.com/esdsim/esd/internal/shard"
	"github.com/esdsim/esd/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata/")

// goldenStream sends a fixed mix of scalar and batch writes and reads from
// one goroutine: duplicate-heavy content over a small footprint, so every
// write decision and stage occurs, with every latency far below the top of
// the histogram range.
func goldenStream(t *testing.T, e *shard.Engine) {
	t.Helper()
	r := xrand.New(17)
	const footprint = 2048
	content := func() ecc.Line {
		var l ecc.Line
		l.SetWord(0, r.Uint64n(96)) // few distinct values: many duplicates
		l.SetWord(1, 7)
		return l
	}
	ctx := context.Background()
	wops := make([]shard.WriteBatchOp, 0, 16)
	rops := make([]shard.ReadBatchOp, 0, 16)
	for i := 0; i < 1500; i++ {
		switch i % 5 {
		case 0, 1:
			if _, err := e.Write(r.Uint64n(footprint), content()); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := e.TryWriteTraced(ctx, r.Uint64n(footprint), content(), e.NewTrace()); err != nil {
				t.Fatal(err)
			}
			if _, err := e.TryReadTraced(ctx, r.Uint64n(footprint), e.NewTrace()); err != nil {
				t.Fatal(err)
			}
		case 3:
			wops = wops[:0]
			for k := 0; k < 1+int(r.Uint64n(16)); k++ {
				wops = append(wops, shard.WriteBatchOp{Addr: r.Uint64n(footprint), Line: content()})
			}
			if err := e.WriteBatch(wops); err != nil {
				t.Fatal(err)
			}
		case 4:
			rops = rops[:0]
			for k := 0; k < 1+int(r.Uint64n(16)); k++ {
				rops = append(rops, shard.ReadBatchOp{Addr: r.Uint64n(footprint)})
			}
			if err := e.ReadBatch(rops); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Read(r.Uint64n(footprint)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExpositionGolden pins what a node exposes at quiescence: after a
// fixed request stream, the Prometheus exposition and the /statusz stage
// section must match, byte for byte, the files in testdata/ (rewrite them
// with -update). Staging, publication and bucketing changes must leave
// both untouched.
func TestExpositionGolden(t *testing.T) {
	for _, scheme := range []string{"esd", "esd+caram"} {
		t.Run(scheme, func(t *testing.T) {
			cfg := config.Default()
			cfg.PCM.CapacityBytes = 1 << 28
			e, err := shard.New(cfg, scheme, shard.Options{Shards: 4, Metrics: true, Tracing: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = e.Close() })
			s, err := New(e, Config{Addr: "127.0.0.1:0"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
			goldenStream(t, e)

			var got bytes.Buffer
			if err := e.Registry().WritePrometheus(&got); err != nil {
				t.Fatal(err)
			}
			stages, err := json.MarshalIndent(s.Statusz().Stages, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got.WriteString("# /statusz stages\n")
			got.Write(stages)
			got.WriteByte('\n')

			checkGolden(t, "exposition_"+strings.ReplaceAll(scheme, "+", "_")+".golden", got.Bytes())
		})
	}
}

// TestFlightRecorderGolden pins what a node's /debug/flightrecorder serves
// after the golden stream: every record field, the node-minted trace IDs
// and the simulated times, in small rings so the file stays short.
// Rewrite it with -update when the record changes on purpose.
func TestFlightRecorderGolden(t *testing.T) {
	cfg := config.Default()
	cfg.PCM.CapacityBytes = 1 << 28
	e, err := shard.New(cfg, "esd", shard.Options{Shards: 4, Tracing: true, FlightSlots: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	s, err := New(e, Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	goldenStream(t, e)

	resp, err := http.Get(s.URL() + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, body, "", "  "); err != nil {
		t.Fatalf("dump is not JSON: %v", err)
	}
	checkGolden(t, "flightrecorder.golden", got.Bytes())
}

// checkGolden compares got with testdata/name, line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs: %d lines, want %d", path, len(gl), len(wl))
	}
}
