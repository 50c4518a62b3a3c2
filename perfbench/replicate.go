package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/transport"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

const (
	protection = "bench"
	// fenceGen is the fencing generation both transport ends agree on.
	fenceGen = 1
	// detEpochs is the determinism window: wire_ratio, dirty pages and
	// the frame mix are computed over the first detEpochs checkpoints
	// of a run, so they repeat exactly for a seed whatever the run
	// length.
	detEpochs = 16
	// patchBytes is how much of a page a sparse epoch rewrites.
	patchBytes = 32
)

// inputGen makes each epoch's guest writes from the seed. Pages of an
// epoch are distinct: a persistent partial Fisher–Yates shuffle hands
// out the next perEpoch pages of a fresh permutation every epoch.
type inputGen struct {
	sparse   bool
	perEpoch int
	rng      *rand.Rand
	bytes    *rand.ChaCha8
	perm     []memory.PageNum

	pages []memory.PageNum
	data  []byte // dense: one page each; sparse: patchBytes each
	offs  []int  // sparse: patch offset in the page
}

func newInputGen(seed int64, numPages memory.PageNum, perEpoch int, sparse bool) *inputGen {
	var key [32]byte
	binary.LittleEndian.PutUint64(key[:], uint64(seed))
	key[8] = 'c'
	g := &inputGen{
		sparse:   sparse,
		perEpoch: perEpoch,
		rng:      rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15)),
		bytes:    rand.NewChaCha8(key),
		perm:     make([]memory.PageNum, numPages),
		pages:    make([]memory.PageNum, perEpoch),
		offs:     make([]int, perEpoch),
	}
	for i := range g.perm {
		g.perm[i] = memory.PageNum(i)
	}
	if sparse {
		g.data = make([]byte, perEpoch*patchBytes)
	} else {
		g.data = make([]byte, perEpoch*memory.PageSize)
	}
	return g
}

// fill writes seeded random content into every page of vm.
func (g *inputGen) fill(vm *hypervisor.VM) error {
	buf := make([]byte, 64*memory.PageSize)
	mem := vm.Memory()
	for addr := uint64(0); addr < mem.SizeBytes(); addr += uint64(len(buf)) {
		g.bytes.Read(buf)
		if err := vm.WriteGuest(0, memory.Addr(addr), buf); err != nil {
			return err
		}
	}
	return nil
}

// next prepares epoch's writes.
func (g *inputGen) next(epoch uint64) {
	n := len(g.perm)
	for i := 0; i < g.perEpoch; i++ {
		j := i + g.rng.IntN(n-i)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		g.pages[i] = g.perm[i]
	}
	g.bytes.Read(g.data)
	for i, p := range g.pages {
		if g.sparse {
			g.offs[i] = g.rng.IntN(memory.PageSize - patchBytes + 1)
			continue
		}
		// Stamp epoch and page number so no two pages ever repeat.
		pg := g.data[i*memory.PageSize:]
		binary.LittleEndian.PutUint64(pg[0:], epoch)
		binary.LittleEndian.PutUint64(pg[8:], uint64(p))
	}
}

var zeroPage [memory.PageSize]byte

// guestWriter is the benchmark's workload.Workload: the first Step
// after arm applies the prepared epoch's writes through the VM's
// store path (dirty logging included) and times itself, so checkpoint
// time can be separated from it.
type guestWriter struct {
	gen      *inputGen
	armed    bool
	stepTime time.Duration
	tr       *tracer
	parent   int
	op       int64
}

func (w *guestWriter) Name() string { return "perfbench" }

func (w *guestWriter) arm(tr *tracer, parent int, op int64) {
	w.armed, w.stepTime, w.tr, w.parent, w.op = true, 0, tr, parent, op
}

func (w *guestWriter) Step(vm *hypervisor.VM, _ time.Duration) (workload.StepStats, error) {
	if !w.armed {
		return workload.StepStats{}, nil
	}
	w.armed = false
	id := w.tr.start("workload.step", w.parent, w.op)
	start := time.Now()
	g := w.gen
	vcpus := vm.NumVCPUs()
	for i, p := range g.pages {
		addr := memory.Addr(p) * memory.PageSize
		var err error
		switch {
		case !g.sparse:
			err = vm.WriteGuest(i%vcpus, addr, g.data[i*memory.PageSize:(i+1)*memory.PageSize])
		case i%8 == 0:
			err = vm.WriteGuest(i%vcpus, addr, zeroPage[:])
		default:
			err = vm.WriteGuest(i%vcpus, addr+memory.Addr(g.offs[i]), g.data[i*patchBytes:(i+1)*patchBytes])
		}
		if err != nil {
			return workload.StepStats{}, err
		}
	}
	w.stepTime = time.Since(start)
	w.tr.finish(id)
	return workload.StepStats{Writes: int64(len(g.pages))}, nil
}

// tracedClient wraps the transport client to time SendCheckpoint and
// SendSeed. Embedding forwards every other method, so the replicator's
// and seeder's interface assertions (CheckpointSender, remote stage
// timings, seed sender) see the same client and take the same path.
type tracedClient struct {
	*transport.Client
	tr       *tracer
	parent   int
	op       int64
	send     time.Duration // last SendCheckpoint
	seedSend time.Duration // SendSeed total since reset
}

func (c *tracedClient) SendCheckpoint(seq uint64, stream []byte) error {
	id := c.tr.start("transport.send", c.parent, c.op)
	start := time.Now()
	err := c.Client.SendCheckpoint(seq, stream)
	c.send = time.Since(start)
	c.tr.finish(id)
	return err
}

func (c *tracedClient) SendSeed(round uint64, stream []byte) error {
	id := c.tr.start("transport.seed_send", c.parent, c.op)
	start := time.Now()
	err := c.Client.SendSeed(round, stream)
	c.seedSend += time.Since(start)
	c.tr.finish(id)
	return err
}

// repRig is one replicate-* topology: a Xen-flavour primary streaming
// to a KVM-flavour replica held by a transport server on loopback.
type repRig struct {
	vm  *hypervisor.VM
	srv *transport.Server
	cli *tracedClient
	rep *replication.Replicator
	gw  *guestWriter
}

func newRepRig(o options, sparse bool) (*repRig, error) {
	clk := vclock.NewSim()
	xh, err := xen.New("xen0", clk)
	if err != nil {
		return nil, err
	}
	kh, err := kvm.New("kvm0", clk)
	if err != nil {
		return nil, err
	}
	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: protection, MemBytes: o.scale.memBytes, VCPUs: 2,
		Features: translate.CompatibleFeatures(xh, kh),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:01"},
		},
	})
	if err != nil {
		return nil, err
	}
	perEpoch := o.scale.densePages
	if sparse {
		perEpoch = o.scale.sparsePages
	}
	gen := newInputGen(o.seed, vm.Memory().NumPages(), perEpoch, sparse)
	if err := gen.fill(vm); err != nil {
		return nil, err
	}
	srv := transport.NewServer(transport.ServerConfig{Fence: transport.StaticFence(fenceGen)})
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	cli, err := transport.Dial(transport.ClientConfig{
		Addr: srv.Addr(), Protection: protection, MemBytes: o.scale.memBytes, Generation: fenceGen,
		AckTimeout: 60 * time.Second,
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	tc := &tracedClient{Client: cli}
	gw := &guestWriter{gen: gen}
	rep, err := replication.New(vm, kh, replication.Config{
		Engine:      replication.EngineHERE,
		Transport:   tc,
		Compression: sparse,
		Period:      500 * time.Millisecond, // virtual time: only the modeled pause sees it
		Workload:    gw,
	})
	if err != nil {
		cli.Close()
		srv.Close()
		return nil, err
	}
	return &repRig{vm: vm, srv: srv, cli: tc, rep: rep, gw: gw}, nil
}

func (r *repRig) close() {
	r.cli.Close()
	r.srv.Close()
}

// checkReplica is the end-of-run correctness check: the server-side
// replica holds exactly the primary's memory, and its acked epoch is
// the last checkpoint taken.
func checkReplica(r *repRig, checkpoints int) error {
	mem, _, acked, ok := r.srv.Replica(protection)
	if !ok {
		return errors.New("server holds no replica")
	}
	if checkpoints > 0 && acked != uint64(checkpoints-1) {
		return fmt.Errorf("replica acked epoch %d after %d checkpoints (want %d)", acked, checkpoints, checkpoints-1)
	}
	if got, want := mem.Hash(), r.vm.Memory().Hash(); got != want {
		return fmt.Errorf("replica memory hash %016x != primary %016x", got, want)
	}
	return nil
}

// cycleRecord is one measured checkpoint.
type cycleRecord struct {
	traced  bool
	cycle   time.Duration // RunCycle wall time
	step    time.Duration // the benchmark's own guest writes inside it
	send    time.Duration // traced: SendCheckpoint
	remote  [4]time.Duration
	remOK   bool
	allocMB float64
	allocs  uint64
	stats   replication.CheckpointStats
	failed  bool
}

func (c cycleRecord) ckpt() time.Duration { return c.cycle - c.step }

// repRun is what one replicate-* run measured, before reporting.
type repRun struct {
	setups, seeds      []time.Duration
	seedSend           time.Duration
	cycles             []cycleRecord
	window             time.Duration
	heapMB, heapPeakMB float64
	gc                 gcDelta
	linkBytes          int64 // client stream bytes over the determinism window
	reconnects         int64
	replicaHash        uint64
	spans              []span
}

// replicate runs the set-ups, seeds, and the measured closed loop of
// checkpoints, and checks the replica.
func replicate(o options, sparse bool, rep *report) (*repRun, error) {
	run := &repRun{}
	var rig *repRig
	var tr *tracer
	for i := 0; i < o.scale.repSetups; i++ {
		if rig != nil {
			rig.close()
			rig = nil
		}
		// Every set-up starts from the same process state: garbage
		// collected and freed memory returned to the OS.
		debug.FreeOSMemory()
		start := time.Now()
		r, err := newRepRig(o, sparse)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		run.setups = append(run.setups, time.Since(start))
		rig = r
		last := i == o.scale.repSetups-1
		if last && o.trace {
			tr = newTracer()
		}
		rig.cli.tr = tr
		runtime.GC()
		rig.cli.parent = tr.start("replication.seed", 0, -1)
		seedStart := time.Now()
		_, err = rig.rep.Seed()
		run.seeds = append(run.seeds, time.Since(seedStart))
		tr.finish(rig.cli.parent)
		rep.attempted++
		if err != nil {
			rig.close()
			return nil, fmt.Errorf("seed: %w", err)
		}
		if last {
			run.seedSend = rig.cli.seedSend
		}
	}
	defer rig.close()

	bytes0 := rig.cli.Status().Bytes
	runtime.GC()
	heap := startHeapSampler()
	gcw := startGCWindow()
	deadline := time.Now().Add(o.duration)
	for epoch := 0; ; epoch++ {
		if o.scale.epochs > 0 {
			if epoch >= o.scale.epochs {
				break
			}
		} else if epoch >= detEpochs && time.Now().After(deadline) {
			break
		}
		if epoch == detEpochs {
			run.linkBytes = rig.cli.Status().Bytes - bytes0
		}
		rig.gw.gen.next(uint64(epoch))
		// Traced runs trace every other epoch; the untraced ones in
		// between give the tracing overhead on the same inputs.
		traced := o.trace && epoch%2 == 0
		var etr *tracer
		if traced {
			etr = tr
		}
		rec := cycleRecord{traced: traced}
		var m0 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		id := etr.start("replication.cycle", 0, int64(epoch))
		rig.gw.arm(etr, id, int64(epoch))
		rig.cli.tr, rig.cli.parent, rig.cli.op = etr, id, int64(epoch)
		start := time.Now()
		st, err := rig.rep.RunCycle()
		rec.cycle = time.Since(start)
		etr.finish(id)
		rec.step = rig.gw.stepTime
		rec.stats = st
		rep.attempted++
		if err != nil || st.Mode != replication.StateProtected {
			rec.failed = true
			rep.failed++
			rep.check(fmt.Sprintf("epoch %d", epoch), fmt.Errorf("mode %v: %v", st.Mode, err))
		}
		if traced {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			rec.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			rec.allocs = m1.Mallocs - m0.Mallocs
			rec.send = rig.cli.send
			r, d, a, k, ok := rig.cli.LastRemoteStages()
			rec.remote, rec.remOK = [4]time.Duration{r, d, a, k}, ok
		}
		run.cycles = append(run.cycles, rec)
	}
	run.gc = gcw.finish()
	run.window = run.gc.elapsed
	run.heapPeakMB = heap.finish()
	run.heapMB = retainedHeapMB()
	if len(run.cycles) <= detEpochs {
		run.linkBytes = rig.cli.Status().Bytes - bytes0
	}
	run.reconnects = rig.cli.Status().Connects - 1
	rep.check("replica", checkReplica(rig, len(run.cycles)))
	if mem, _, _, ok := rig.srv.Replica(protection); ok {
		run.replicaHash = mem.Hash()
	}
	run.spans = tr.snapshot()
	return run, nil
}

func runReplicate(o options, sparse bool, rep *report) error {
	run, err := replicate(o, sparse, rep)
	if err != nil {
		return err
	}
	reportReplicate(o, sparse, run, rep)
	return nil
}

func reportReplicate(o options, sparse bool, run *repRun, rep *report) {
	rep.spans = run.spans
	perEpoch := o.scale.densePages
	if sparse {
		perEpoch = o.scale.sparsePages
	}
	var ckpt, untracedCkpt, tracedCkpt samples
	var dirtyBytes, encodeTime, rawBytes int64
	var pause samples
	var degr []float64
	for i, c := range run.cycles {
		if c.failed {
			continue
		}
		if c.stats.DirtyPages != perEpoch {
			rep.check(fmt.Sprintf("epoch %d dirty pages", i), fmt.Errorf("%d, wrote %d", c.stats.DirtyPages, perEpoch))
		}
		if c.traced {
			tracedCkpt = append(tracedCkpt, c.ckpt())
		} else {
			untracedCkpt = append(untracedCkpt, c.ckpt())
		}
		ckpt = append(ckpt, c.ckpt())
		dirtyBytes += int64(c.stats.DirtyPages) * memory.PageSize
		encodeTime += int64(c.stats.Wire.EncodeTime)
		rawBytes += c.stats.Wire.RawBytes
		pause = append(pause, c.stats.Pause)
		degr = append(degr, c.stats.Degradation)
	}
	// Untraced runs report every checkpoint; traced runs report the
	// untraced half so the tracing cost stays out of them.
	gated := ckpt
	if o.trace {
		gated = untracedCkpt
	}
	p50 := gated.median()
	tail, tailP := gated.tail()
	mbps := float64(dirtyBytes) / (1 << 20) / ckpt.sum().Seconds()
	seed := samples(run.seeds).median()
	setup := samples(run.setups).median()

	// The determinism window: the first detEpochs checkpoints.
	var win struct{ dirty, zero, delta, raw, state int64 }
	for _, c := range run.cycles[:min(detEpochs, len(run.cycles))] {
		win.dirty += int64(c.stats.DirtyPages)
		win.zero += c.stats.Wire.ZeroPages
		win.delta += c.stats.Wire.DeltaFrames
		win.raw += c.stats.Wire.RawFrames
		win.state += c.stats.Wire.StateFrames
	}
	wireRatio := float64(run.linkBytes) / float64(win.dirty*memory.PageSize)
	frames := float64(win.zero + win.delta + win.raw)

	rep.gate("op_p50_ms", ms(p50), "ms")
	rep.gate("op_tail_ms", ms(gated.percentile(gatedTailPct)), "ms")
	rep.gate("full_ms", ms(seed), "ms")
	rep.gate("setup_s", setup.Seconds(), "s")
	rep.gate("heap_mb", run.heapMB, "MB")

	n := len(gated)
	rep.printf("end-to-end (wall clock; gated: op_p50_ms=ckpt p50, op_tail_ms=ckpt %s, full_ms=Seed median, setup_s, heap_mb):", tailName(gatedTailPct))
	rep.named("ckpt_p50_ms", ms(p50), "ms", fmt.Sprintf("n=%d RunCycle minus Step", n))
	rep.named("ckpt_tail_ms", ms(tail), "ms", fmt.Sprintf("%s n=%d", tailName(tailP), n))
	rep.named("protect_mbps", mbps, "MB/s", fmt.Sprintf("dirty MiB per checkpoint second, n=%d", len(ckpt)))
	rep.named("wire_ratio", wireRatio, "ratio", fmt.Sprintf("link bytes per dirty byte, first %d epochs", min(detEpochs, len(run.cycles))))
	rep.named("seed_s", seed.Seconds(), "s", fmt.Sprintf("median of n=%d Seed() calls %v", len(run.seeds), run.seeds))
	rep.named("setup_s", setup.Seconds(), "s", fmt.Sprintf("median of n=%d set-ups", len(run.setups)))
	rep.named("heap_mb", run.heapMB, "MB", "live heap after a full GC at the end of the window")
	rep.named("heap_peak_mb", run.heapPeakMB, "MB", "peak live heap over the window's GC cycles")
	rep.named("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", fmt.Sprintf("%d of %d operations", rep.failed, rep.attempted))
	rep.printf("modeled (virtual clock, cost model; never gated, never added to wall time):")
	rep.named("modeled.pause_p50_ms", ms(pause.median()), "ms", "CheckpointStats.Pause")
	rep.named("modeled.degradation_p50", medianFloat(degr), "ratio", "CheckpointStats.Degradation")
	rep.printf("determinism (repeat exactly for a seed): wire_ratio=%.9f dirty_pages=%d frames zero=%d delta=%d raw=%d state=%d",
		wireRatio, win.dirty, win.zero, win.delta, win.raw, win.state)
	rep.printf("  replica_hash=%016x checkpoints=%d window=%.2fs", run.replicaHash, len(run.cycles), run.window.Seconds())

	rep.printf("per-layer:")
	rep.named("memory.dirty_pages", float64(win.dirty)/float64(min(detEpochs, len(run.cycles))), "pages", "per epoch (input check)")
	rep.named("wire.encode_ms", ms(medianDur(encodeTimes(run.cycles))), "ms", "median CheckpointStats.Wire.EncodeTime")
	rep.named("wire.encode_mbps", float64(rawBytes)/(1<<20)/time.Duration(encodeTime).Seconds(), "MB/s", "raw bytes per encode second")
	rep.named("wire.zero_frac", float64(win.zero)/frames, "ratio", "page frames, determinism window")
	rep.named("wire.delta_frac", float64(win.delta)/frames, "ratio", "page frames, determinism window")
	rep.named("wire.raw_frac", float64(win.raw)/frames, "ratio", "page frames, determinism window")
	rep.named("transport.reconnects", float64(run.reconnects), "count", "")
	rep.gcLayers(run.gc)
	if o.trace {
		reportReplicateTrace(run, tracedCkpt, untracedCkpt, rep)
	}
}

func encodeTimes(cs []cycleRecord) []time.Duration {
	var out []time.Duration
	for _, c := range cs {
		if !c.failed {
			out = append(out, c.stats.Wire.EncodeTime)
		}
	}
	return out
}

func reportReplicateTrace(run *repRun, traced, untraced samples, rep *report) {
	self := selfTimes(run.spans)
	var cycle, send, transit, repSelf samples
	var stages [4]samples
	var allocMB, allocs []float64
	for _, c := range run.cycles {
		if !c.traced || c.failed {
			continue
		}
		cycle = append(cycle, c.cycle)
		send = append(send, c.send)
		repSelf = append(repSelf, c.cycle-c.step-c.stats.Wire.EncodeTime-c.send)
		if c.remOK {
			var sum time.Duration
			for i, d := range c.remote {
				stages[i] = append(stages[i], d)
				sum += d
			}
			transit = append(transit, c.send-sum)
		}
		allocMB = append(allocMB, c.allocMB)
		allocs = append(allocs, float64(c.allocs))
	}
	n := fmt.Sprintf("median of n=%d traced checkpoints", len(cycle))
	rep.layer("replication.cycle_ms", ms(cycle.median()), "ms", n)
	rep.layer("replication.self_ms", ms(repSelf.median()), "ms", "cycle minus step, encode and send; "+n)
	rep.layer("replication.cycle_self_ms", ms(self["replication.cycle"].median()), "ms", "from spans: cycle minus step and send")
	rep.layer("replication.alloc_mb", medianFloat(allocMB), "MB", "per checkpoint, MemStats delta")
	rep.layer("replication.allocs", medianFloat(allocs), "count", "per checkpoint, MemStats delta")
	rep.layer("transport.send_ms", ms(send.median()), "ms", n)
	rep.layer("transport.seed_send_ms", ms(run.seedSend), "ms", "SendSeed total in the traced Seed()")
	for i, name := range []string{"recv", "decode", "apply", "ack"} {
		rep.layer("transport.remote_"+name+"_ms", ms(stages[i].median()), "ms", "LastRemoteStages")
	}
	rep.layer("transport.transit_ms", ms(transit.median()), "ms", "send minus remote stages")
	rep.layer("workload.step_ms", ms(self["workload.step"].median()), "ms", "the benchmark's own guest writes")
	tracingOverhead(traced, untraced, "checkpoint", rep)
}

// tracingOverhead reports how much slower the traced half of the
// operations ran than the untraced half.
func tracingOverhead(traced, untraced samples, what string, rep *report) {
	t, u := traced.median(), untraced.median()
	pct := 0.0
	if u > 0 {
		pct = 100 * (float64(t) - float64(u)) / float64(u)
	}
	rep.layer("trace.overhead_pct", pct, "%", fmt.Sprintf("traced %s p50 %.4f ms (n=%d) vs untraced %.4f ms (n=%d)",
		what, ms(t), len(traced), ms(u), len(untraced)))
}
