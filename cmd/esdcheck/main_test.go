package main

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-ops", "1500", "-seed", "1", "-shards", "1", "-every", "500"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Fatalf("no OK line in output: %s", out.String())
	}
}

func TestRunMultipleSeeds(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-ops", "800", "-seeds", "2", "-shards", "", "-schemes", "esd,baseline"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errOut.String())
	}
	if got := strings.Count(out.String(), "OK"); got != 2 {
		t.Fatalf("want 2 OK lines, got %d: %s", got, out.String())
	}
}

func TestRunClusterSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-cluster", "-ops", "3000", "-seed", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "cluster seed 1: OK") {
		t.Fatalf("no cluster OK line in output: %s", out.String())
	}
}

func TestRunClusterRejectsUnreplicatedKill(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-cluster", "-ops", "100", "-replication", "1"}, &out, &errOut); code != 2 {
		t.Fatalf("replication=1 with kill enabled: exit %d, want 2", code)
	}
}

func TestBadFlags(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-gen", "sideways"}, &out, &errOut); code != 2 {
		t.Fatalf("bad -gen: exit %d", code)
	}
	if code := run([]string{"-shards", "0"}, &out, &errOut); code != 2 {
		t.Fatalf("bad -shards: exit %d", code)
	}
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown flag: exit %d", code)
	}
}

func TestUnknownSchemeFails(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-ops", "100", "-schemes", "nonesuch"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown scheme: exit %d\nstdout: %s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "nonesuch") {
		t.Fatalf("error does not name the scheme: %s", errOut.String())
	}
}

// TestReplayCommandReproducesRun parses a run's replay command with run's
// own flag set: it must give the run's generator config and, in cluster
// mode, its whole routed config, with only -seed and -upto changed.
func TestReplayCommandReproducesRun(t *testing.T) {
	for _, args := range [][]string{
		{"-ops", "20000", "-gen", "migrate", "-upto", "5000", "-shards", "", "-schemes", "esd"},
		{"-ops", "1000", "-batch", "0.5", "-every", "100"},
		{"-seed", "9"},
		{"-cluster", "-ops", "30000", "-replication", "3", "-kill-at", "-1", "-reshard-at", "9000", "-batch", "0.25"},
		{"-cluster", "-ops", "20000", "-cluster-nodes", "4", "-gen", "migrate"},
	} {
		fs, f := newFlags(io.Discard)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		line := replayCommand(fs, 3, 4001)
		fields := strings.Fields(line)
		rfs, rf := newFlags(io.Discard)
		if fields[0] != "esdcheck" || rfs.Parse(fields[1:]) != nil {
			t.Fatalf("%v: replay command %q does not parse", args, line)
		}
		if rf.seed != 3 || rf.upto != 4001 {
			t.Fatalf("%v: %q replays seed %d upto %d, want 3 and 4001", args, line, rf.seed, rf.upto)
		}
		if f.cluster {
			want, err := f.clusterConfig()
			if err != nil {
				t.Fatal(err)
			}
			want.Upto = 4001
			if got, _ := rf.clusterConfig(); !rf.cluster || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: %q gives cluster config %+v, want %+v", args, line, got, want)
			}
			continue
		}
		want, err := f.config()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := rf.config()
		if rf.cluster || got.Gen != want.Gen || got.BatchFraction != want.BatchFraction {
			t.Fatalf("%v: %q gives generator %+v batch %g, want %+v batch %g", args, line, got.Gen, got.BatchFraction, want.Gen, want.BatchFraction)
		}
	}
}
