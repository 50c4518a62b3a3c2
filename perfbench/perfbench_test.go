package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
)

// tinyScale keeps every workload to a second or two.
var tinyScale = scale{
	memBytes:    4 << 20,
	densePages:  64,
	sparsePages: 256,
	protections: 24,
	repSetups:   2,
	fleetSetups: 1,
	epochs:      detEpochs + 4,
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		duration: 1500 * time.Millisecond,
		trace:    trace,
		out:      t.TempDir(),
		scale:    tinyScale,
	}
}

var gatedMetrics = []string{"op_p50_ms", "op_tail_ms", "full_ms", "setup_s", "heap_mb"}

func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				o := tinyOptions(t, name, trace)
				rep := newReport()
				if err := workloads[name](o, rep); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := emit(o, rep, &out); err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if rep.attempted == 0 || rep.failed != 0 {
					t.Fatalf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
				want, got := gatedMetrics, rep.endToEnd
				if trace {
					want, got = nil, rep.perLayer
					for n := range layerJSON {
						want = append(want, n)
					}
				}
				if len(got) != len(want) {
					t.Errorf("JSON metrics %v, want %v", got, want)
				}
				for _, n := range want {
					if _, ok := got[n]; !ok {
						t.Errorf("metric %s missing", n)
					}
				}
				for _, n := range gatedMetrics {
					if v := rep.endToEnd[n].Value; !(v > 0) {
						t.Errorf("%s = %v, want > 0", n, v)
					}
				}
				if last := lastLine(out.String()); !strings.HasPrefix(last, `{"correct":true,`) {
					t.Errorf("last line %q", last)
				}
			})
		}
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

func TestReplicaCheckCatchesFlippedByte(t *testing.T) {
	o := tinyOptions(t, "replicate-dense", false)
	rig, err := newRepRig(o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	if _, err := rig.rep.Seed(); err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		rig.gw.gen.next(uint64(epoch))
		rig.gw.arm(nil, 0, int64(epoch))
		if _, err := rig.rep.RunCycle(); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkReplica(rig, 3); err != nil {
		t.Fatalf("healthy replica: %v", err)
	}
	if err := checkReplica(rig, 4); err == nil {
		t.Fatal("acked-epoch check passed with a wrong checkpoint count")
	}
	mem, _, _, _ := rig.srv.Replica(protection)
	addr := memory.Addr(rig.gw.gen.pages[0])*memory.PageSize + 100
	b := make([]byte, 1)
	if err := mem.Read(addr, b); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if err := mem.Write(addr, b); err != nil {
		t.Fatal(err)
	}
	if err := checkReplica(rig, 3); err == nil {
		t.Fatal("hash check passed with a flipped replica byte")
	}
}

func TestEventCheckCatchesGap(t *testing.T) {
	dir := t.TempDir()
	rig, err := newFleetRig(dir, fleetNames(3, 12))
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	evs := rig.sched.EventsSince(0)
	last := rig.sched.LastEventSeq()
	if len(evs) < 3 {
		t.Fatalf("only %d events", len(evs))
	}
	if err := checkEvents(evs, 0, last); err != nil {
		t.Fatalf("real cursor: %v", err)
	}
	gap := append(append([]orchestrator.Event(nil), evs[:len(evs)/2]...), evs[len(evs)/2+1:]...)
	if err := checkEvents(gap, 0, last); err == nil {
		t.Fatal("cursor check passed with a planted gap")
	}
	if err := checkEvents(evs[:len(evs)-1], 0, last); err == nil {
		t.Fatal("cursor check passed with the newest event missing")
	}
}

// TestTracedMatchesUntraced runs a fixed number of epochs three times
// on one seed: the untraced runs repeat the determinism fingerprint
// exactly, and the traced run ships the same bytes and leaves the
// same replica.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		var runs []*repRun
		for _, trace := range []bool{false, false, true} {
			o := tinyOptions(t, "replicate", trace)
			rep := newReport()
			run, err := replicate(o, sparse, rep)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.failures) > 0 {
				t.Fatal(rep.failures)
			}
			runs = append(runs, run)
		}
		for i, r := range runs[1:] {
			a, b := fingerprint(runs[0]), fingerprint(r)
			if a != b {
				t.Errorf("sparse=%v run %d: %+v, want %+v", sparse, i+1, b, a)
			}
		}
		if len(runs[2].spans) == 0 {
			t.Errorf("sparse=%v: traced run recorded no spans", sparse)
		}
	}
}

type runFingerprint struct {
	linkBytes, encoded int64
	zero, delta, raw   int64
	dirty, checkpoints int
	replicaHash        uint64
}

func fingerprint(r *repRun) runFingerprint {
	f := runFingerprint{linkBytes: r.linkBytes, checkpoints: len(r.cycles), replicaHash: r.replicaHash}
	for _, c := range r.cycles {
		f.encoded += c.stats.Wire.EncodedBytes
		f.zero += c.stats.Wire.ZeroPages
		f.delta += c.stats.Wire.DeltaFrames
		f.raw += c.stats.Wire.RawFrames
		f.dirty += c.stats.DirtyPages
	}
	return f
}

func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 100}, {20, 50}, {100, 90}, {200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		s := make(samples, tc.n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		v, p := s.tail()
		if p != tc.want {
			t.Errorf("n=%d: tail p%g, want p%g", tc.n, p, tc.want)
		}
		if beyond := tc.n - int(v); p < 100 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the tail", tc.n, beyond)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
	}
	self := selfTimes(spans)
	if got := self["root"][0]; got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := self["a"][0]; got != 30 {
		t.Errorf("leaf self = %d, want its duration 30", got)
	}
}
