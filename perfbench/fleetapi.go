package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/here-ft/here/internal/controlplane"
	"github.com/here-ft/here/internal/fleet"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/journal"
	"github.com/here-ft/here/internal/kvm"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/placement"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"
)

const (
	fleetGroups = 8
	fleetHosts  = 6 // per flavour
	// pumpInterval is the daemon's default round interval; group i
	// starts at i/fleetGroups of it, as fleet.Scheduler.StartPump does.
	pumpInterval = controlplane.DefaultPumpInterval
	// listEvery: one GET /v1/vms per listEvery reads.
	listEvery = 50
	// writeInterval paces the open-loop writer at 20 writes/s.
	writeInterval = 50 * time.Millisecond
	// writeSetShare: writes touch 1/writeSetShare of the names; reads
	// the rest, so no read ever races its name's unprotect.
	writeSetShare = 20
	vmPages       = 4
)

// journalOptions open the store as hered -state-dir -fleet-groups 8
// does: group commit, fsync on.
var journalOptions = journal.Options{GroupCommit: true}

// fleetRig is one fleet-api set-up: a journaled sharded scheduler with
// idle protections, served by the control plane over loopback HTTP.
type fleetRig struct {
	dir     string
	store   *journal.Store
	sched   *fleet.Scheduler
	hosts   []*hypervisor.Host
	httpSrv *http.Server
	served  chan error
	base    string
	protect samples // direct Protect calls in set-up
}

func newFleetRig(dir string, names []string) (*fleetRig, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, _, err := journal.Open(dir, journalOptions)
	if err != nil {
		return nil, err
	}
	r := &fleetRig{dir: dir, store: store}
	if err := r.build(names); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *fleetRig) build(names []string) error {
	clk := vclock.NewSim()
	sched, err := fleet.New(fleet.Config{
		Groups:       fleetGroups,
		Orchestrator: orchestrator.Config{Clock: clk, NoTrace: true, Journal: r.store},
	})
	if err != nil {
		return err
	}
	r.sched = sched
	for i := 0; i < fleetHosts; i++ {
		xh, err := xen.New(fmt.Sprintf("bx%d", i), clk)
		if err != nil {
			return err
		}
		kh, err := kvm.New(fmt.Sprintf("bk%d", i), clk)
		if err != nil {
			return err
		}
		for _, h := range []*hypervisor.Host{xh, kh} {
			if err := sched.AddHost(h); err != nil {
				return err
			}
			r.hosts = append(r.hosts, h)
		}
	}
	if _, err := sched.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if err := r.protectAll(names); err != nil {
		return err
	}
	cp, err := controlplane.New(controlplane.Config{Manager: sched, Journal: r.store})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.base = "http://" + ln.Addr().String()
	// Serve the handler directly: controlplane.Server.Serve would start
	// the scheduler's own pumps, and the benchmark drives rounds itself.
	r.httpSrv = &http.Server{Handler: cp.Handler()}
	r.served = make(chan error, 1)
	go func() { r.served <- r.httpSrv.Serve(ln) }()
	return nil
}

// protectAll protects names with as many concurrent callers as the
// daemon admits protect requests, so journal group commit batches
// their fsyncs as it does for a bulk registration over the API.
func (r *fleetRig) protectAll(names []string) error {
	var (
		next atomic.Int64
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for w := 0; w < controlplane.DefaultMaxInflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(names); i = int(next.Add(1) - 1) {
				start := time.Now()
				_, err := r.sched.Protect(orchestrator.VMSpec{Name: names[i], MemoryBytes: vmPages * memory.PageSize, VCPUs: 1})
				d := time.Since(start)
				mu.Lock()
				r.protect = append(r.protect, d)
				if err != nil {
					errs = append(errs, fmt.Errorf("protect %s: %w", names[i], err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close stops serving and closes the journal.
func (r *fleetRig) close() error {
	var errs []error
	if r.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		errs = append(errs, r.httpSrv.Shutdown(ctx))
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, r.store.Close())
	return errors.Join(errs...)
}

// fleetNames makes the protection names from the seed.
func fleetNames(seed int64, n int) []string {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xf1ee7))
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("pb-%04d-%06x", i, rng.Uint32()&0xffffff)
	}
	return names
}

// apiClient is one keep-alive connection to the control plane.
type apiClient struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// do sends one request and reads the whole body into c.buf.
func (c *apiClient) do(method, path string, body any, want int) error {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	var req *http.Request
	var err error
	if rd != nil {
		req, err = http.NewRequest(method, c.base+path, rd)
	} else {
		req, err = http.NewRequest(method, c.base+path, nil)
	}
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// listNames decodes the protection names of a GET /v1/vms body.
func listNames(body []byte) ([]string, error) {
	var list struct {
		VMs []struct {
			Name string `json:"name"`
		} `json:"vms"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, fmt.Errorf("decode list: %w", err)
	}
	names := make([]string, len(list.VMs))
	for i, vm := range list.VMs {
		names[i] = vm.Name
	}
	return names, nil
}

// checkEvents verifies a merged event cursor read: sequence numbers
// since+1, since+2, ... with no gap and no duplicate, ending at last.
func checkEvents(evs []orchestrator.Event, since, last uint64) error {
	want := since + 1
	for _, ev := range evs {
		if ev.Seq != want {
			return fmt.Errorf("event cursor gap: got seq %d, want %d", ev.Seq, want)
		}
		want++
	}
	if want-1 != last {
		return fmt.Errorf("event cursor ends at %d, frontier is %d", want-1, last)
	}
	return nil
}

// checkJournal reopens the journal in dir and compares the replayed
// protection set with want.
func checkJournal(dir string, want []string) error {
	store, _, err := journal.Open(dir, journalOptions)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer store.Close()
	var got []string
	for n := range store.State().Protections {
		got = append(got, n)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		return fmt.Errorf("journal replays %d protections, fleet had %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("journal replays %q where the fleet had %q", got[i], want[i])
		}
	}
	return nil
}

// fleetRun is what one fleet-api run measured.
type fleetRun struct {
	setups                        []time.Duration
	protect                       samples
	status, list, writes          latencyLog
	tracedStatus, untracedStatus  latencyLog
	service                       latencyLog // writes, from send
	patch, churn                  latencyLog
	lateness                      samples
	backlog                       int // writes due but unsent at the deadline
	rounds                        latencyLog
	direct                        struct{ status, statusAll, hosts, plan, setPeriod latencyLog }
	listBytes                     []float64
	lsn, fsyncs                   uint64 // journal deltas over the window
	probe                         struct{ writes, lsn, fsyncs uint64 }
	heapMB, heapEndMB, heapPeakMB float64 // retained after set-up and after the window; peak live
	gc                            gcDelta
	spans                         []span
}

func runFleetAPI(o options, rep *report) error {
	run, err := fleetAPI(o, rep)
	if err != nil {
		return err
	}
	reportFleet(o, run, rep)
	return nil
}

func fleetAPI(o options, rep *report) (*fleetRun, error) {
	names := fleetNames(o.seed, o.scale.protections)
	run := &fleetRun{}
	var rig *fleetRig
	for i := 0; i < o.scale.fleetSetups; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return nil, err
			}
		}
		// Every set-up starts from the same process state: garbage
		// collected and freed memory returned to the OS.
		debug.FreeOSMemory()
		start := time.Now()
		r, err := newFleetRig(filepath.Join(o.out, fmt.Sprintf("fleet-state-%d", i)), names)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		run.setups = append(run.setups, time.Since(start))
		rig = r
	}
	run.protect = rig.protect
	for i := 0; i < o.scale.fleetSetups-1; i++ {
		os.RemoveAll(filepath.Join(o.out, fmt.Sprintf("fleet-state-%d", i)))
	}

	d := &fleetDriver{o: o, rig: rig, run: run, rep: rep, want: len(names), stop: make(chan struct{})}
	// Writes touch a seeded subset of names, reads the rest.
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0xa11))
	nWrite := max(1, len(names)/writeSetShare)
	for i, p := range rng.Perm(len(names)) {
		if i < nWrite {
			d.writeSet = append(d.writeSet, names[p])
		} else {
			d.readSet = append(d.readSet, names[p])
		}
	}
	if o.trace {
		d.tr = newTracer()
	}
	sched := rig.sched
	since := sched.LastEventSeq()
	lsn0, fs0 := rig.store.LSN(), rig.store.Fsyncs()
	run.heapMB = retainedHeapMB()
	heap := startHeapSampler()
	gcw := startGCWindow()
	d.start = time.Now()
	d.deadline = d.start.Add(o.duration)
	var wg sync.WaitGroup
	for g := 0; g < sched.Groups(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.pump(g)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.write()
	}()
	d.read()
	close(d.stop)
	wg.Wait()
	run.gc = gcw.finish()
	run.heapPeakMB = heap.finish()
	run.heapEndMB = retainedHeapMB()
	run.lsn, run.fsyncs = rig.store.LSN()-lsn0, rig.store.Fsyncs()-fs0
	if o.trace {
		d.probe()
	}

	rep.attempted += d.attempted.Load()
	rep.failed += d.failed.Load()
	rep.check("events", checkEvents(sched.EventsSince(since), since, sched.LastEventSeq()))
	live := sched.Protections()
	if len(live) != d.want {
		rep.check("live set", fmt.Errorf("%d protections live at the end, want %d", len(live), d.want))
	}
	if err := rig.close(); err != nil {
		return nil, err
	}
	rep.check("journal", checkJournal(rig.dir, live))
	run.spans = d.tr.snapshot()
	return run, nil
}

// fleetDriver runs the measured window of a fleet-api run: the group
// round pumps, the open-loop writer and the closed-loop reader.
type fleetDriver struct {
	o                 options
	rig               *fleetRig
	run               *fleetRun
	rep               *report
	tr                *tracer // nil in untraced runs
	want              int     // live protections
	writeSet, readSet []string
	start, deadline   time.Time
	stop              chan struct{}

	// churn is odd while a protection is being unprotected and
	// re-protected, so the list check knows one name may be missing.
	churn             atomic.Int64
	attempted, failed atomic.Int64
	failMu            sync.Mutex
}

func (d *fleetDriver) fail(what string, err error) {
	d.failed.Add(1)
	d.failMu.Lock()
	d.rep.check(what, err)
	d.failMu.Unlock()
}

// tracerFor returns the tracer when an operation is traced, else nil.
func (d *fleetDriver) tracerFor(traced bool) *tracer {
	if traced {
		return d.tr
	}
	return nil
}

// pump runs group g's rounds, phase-staggered like
// fleet.Scheduler.StartPump, until stop.
func (d *fleetDriver) pump(g int) {
	sched := d.rig.sched
	next := d.start.Add(pumpInterval * time.Duration(g) / time.Duration(sched.Groups()))
	for {
		select {
		case <-d.stop:
			return
		case <-time.After(time.Until(next)):
		}
		id := d.tr.start("fleet.round", 0, int64(g))
		t0 := time.Now()
		err := sched.Group(g).Tick()
		d.run.rounds.add(time.Since(t0))
		d.tr.finish(id)
		d.attempted.Add(1)
		if err != nil {
			d.fail(fmt.Sprintf("group %d round", g), err)
		}
		// A round that overran its slot starts the next one
		// immediately, as a ticker would.
		next = next.Add(pumpInterval)
		if now := time.Now(); next.Before(now) {
			next = now
		}
	}
}

// patchPeriod and reprotect are the two API writes.
func patchPeriod(c *apiClient, name string, patch controlplane.PeriodPatch) error {
	return c.do(http.MethodPatch, "/v1/vms/"+name+"/period", patch, http.StatusOK)
}

func reprotect(c *apiClient, tr *tracer, parent int, op int64, name string) error {
	id := tr.start("api.unprotect", parent, op)
	err := c.do(http.MethodDelete, "/v1/vms/"+name, nil, http.StatusNoContent)
	tr.finish(id)
	if err != nil {
		return err
	}
	id = tr.start("api.protect", parent, op)
	defer tr.finish(id)
	return c.do(http.MethodPost, "/v1/vms", controlplane.ProtectRequest{Name: name, MemoryBytes: vmPages * memory.PageSize, VCPUs: 1}, http.StatusCreated)
}

// write is the open-loop writer: one write every writeInterval from
// the start, alternating a period patch with an unprotect+protect of
// the same name, each timed from when it was due.
func (d *fleetDriver) write() {
	c := newAPIClient(d.rig.base)
	defer c.close()
	rng := rand.New(rand.NewPCG(uint64(d.o.seed), 0x3717e))
	for k := 0; ; k++ {
		due := d.start.Add(time.Duration(k) * writeInterval)
		if due.After(d.deadline) {
			return
		}
		if time.Now().After(d.deadline) {
			// Writes still queued at the deadline were never sent.
			d.run.backlog = int(d.deadline.Sub(due)/writeInterval) + 1
			return
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-d.stop:
				return
			case <-time.After(wait):
			}
		}
		sent := time.Now()
		d.run.lateness = append(d.run.lateness, sent.Sub(due))
		name := d.writeSet[rng.IntN(len(d.writeSet))]
		tr := d.tracerFor(d.tr != nil && (k/2)%2 == 0)
		id := tr.start("api.write", 0, int64(k))
		var err error
		if k%2 == 0 {
			patch := controlplane.PeriodPatch{Budget: 0.1 + 0.1*float64(rng.IntN(4)), MaxPeriodMS: int64(5000 * (1 + rng.IntN(5)))}
			sid := tr.start("api.patch", id, int64(k))
			err = patchPeriod(c, name, patch)
			tr.finish(sid)
			d.run.patch.add(time.Since(due))
		} else {
			d.churn.Add(1)
			err = reprotect(c, tr, id, int64(k), name)
			d.churn.Add(1)
			d.run.churn.add(time.Since(due))
		}
		tr.finish(id)
		d.run.writes.add(time.Since(due))
		d.run.service.add(time.Since(sent))
		d.attempted.Add(1)
		if err != nil {
			d.fail(fmt.Sprintf("write %d", k), err)
		}
	}
}

// read is the closed-loop reader, on one keep-alive connection until
// the deadline: listEvery-1 single-protection reads, then one list.
// Traced runs trace alternate blocks of listEvery reads and time the
// layer calls behind them directly.
func (d *fleetDriver) read() {
	c := newAPIClient(d.rig.base)
	defer c.close()
	planner := placement.New(placement.Config{})
	rng := rand.New(rand.NewPCG(uint64(d.o.seed), 0x4ead))
	for i := 0; time.Now().Before(d.deadline); i++ {
		traced := d.tr != nil && (i/listEvery)%2 == 0
		d.attempted.Add(1)
		var err error
		if i%listEvery == listEvery-1 {
			err = d.readList(c, traced, planner, int64(i))
		} else {
			err = d.readStatus(c, traced, d.readSet[rng.IntN(len(d.readSet))], int64(i))
		}
		if err != nil {
			d.fail(fmt.Sprintf("read %d", i), err)
		}
	}
}

func (d *fleetDriver) readList(c *apiClient, traced bool, planner *placement.Engine, op int64) error {
	tr := d.tracerFor(traced)
	c0 := d.churn.Load()
	id := tr.start("api.list", 0, op)
	t0 := time.Now()
	err := c.do(http.MethodGet, "/v1/vms", nil, http.StatusOK)
	d.run.list.add(time.Since(t0))
	tr.finish(id)
	if err != nil {
		return err
	}
	listed, err := listNames(c.buf.Bytes())
	if err != nil {
		return err
	}
	// A list racing an unprotect+protect may miss that one name.
	got, want := len(listed), d.want
	if quiet := c0 == d.churn.Load() && c0%2 == 0; got != want && (quiet || got != want-1) {
		return fmt.Errorf("list returned %d protections, %d live", got, want)
	}
	if traced {
		d.run.listBytes = append(d.run.listBytes, float64(c.buf.Len()))
		sched := d.rig.sched
		timeCall(tr, "fleet.statusall", op, &d.run.direct.statusAll, func() { sched.StatusAll() })
		timeCall(tr, "fleet.hosts", op, &d.run.direct.hosts, func() { sched.HostsStatus() })
		timeCall(tr, "placement.plan", op, &d.run.direct.plan, func() {
			if _, err := planner.Plan(placement.Spec{Name: "probe"}, d.rig.hosts); err != nil {
				d.fail("placement plan", err)
			}
		})
	}
	return nil
}

func (d *fleetDriver) readStatus(c *apiClient, traced bool, name string, op int64) error {
	tr := d.tracerFor(traced)
	id := tr.start("api.status", 0, op)
	t0 := time.Now()
	err := c.do(http.MethodGet, "/v1/vms/"+name, nil, http.StatusOK)
	dur := time.Since(t0)
	tr.finish(id)
	d.run.status.add(dur)
	if err == nil && !bytes.Contains(c.buf.Bytes(), []byte(`"name":"`+name+`"`)) {
		err = fmt.Errorf("status of %s names another protection", name)
	}
	if err != nil {
		return err
	}
	if !traced {
		d.run.untracedStatus.add(dur)
		return nil
	}
	d.run.tracedStatus.add(dur)
	timeCall(tr, "fleet.status", op, &d.run.direct.status, func() {
		if _, err := d.rig.sched.Status(name); err != nil {
			d.fail("direct status", err)
		}
	})
	return nil
}

// probe runs after the window with the rounds stopped: the journal
// records and fsyncs each API write costs, exactly, and direct
// SetPeriod calls.
func (d *fleetDriver) probe() {
	const writes = 20
	store := d.rig.store
	c := newAPIClient(d.rig.base)
	lsn, fsy := store.LSN(), store.Fsyncs()
	for k := 0; k < writes; k++ {
		name := d.writeSet[k%len(d.writeSet)]
		var err error
		if k%2 == 0 {
			err = patchPeriod(c, name, controlplane.PeriodPatch{Budget: 0.3, MaxPeriodMS: 25000})
		} else {
			err = reprotect(c, nil, 0, 0, name)
		}
		if err != nil {
			d.fail("probe write", err)
		}
	}
	c.close()
	d.run.probe.writes, d.run.probe.lsn, d.run.probe.fsyncs = writes, store.LSN()-lsn, store.Fsyncs()-fsy
	for k := 0; k < 40; k++ {
		name := d.writeSet[k%len(d.writeSet)]
		timeCall(d.tr, "fleet.setperiod", int64(k), &d.run.direct.setPeriod, func() {
			if _, err := d.rig.sched.SetPeriod(name, 0.3, 25*time.Second); err != nil {
				d.fail("direct setperiod", err)
			}
		})
	}
}

// timeCall times one direct layer call into log, as a root span.
func timeCall(tr *tracer, name string, op int64, log *latencyLog, fn func()) {
	id := tr.start(name, 0, op)
	t0 := time.Now()
	fn()
	log.add(time.Since(t0))
	tr.finish(id)
}

func reportFleet(o options, run *fleetRun, rep *report) {
	status := run.status.samples()
	if o.trace {
		status = run.untracedStatus.samples()
	}
	rep.spans = run.spans
	list, writes, rounds := run.list.samples(), run.writes.samples(), run.rounds.samples()
	setup := samples(run.setups).median()

	rep.gate("op_p50_ms", ms(status.median()), "ms")
	rep.gate("op_tail_ms", ms(status.percentile(gatedTailPct)), "ms")
	rep.gate("full_ms", ms(list.median()), "ms")
	rep.gate("setup_s", setup.Seconds(), "s")
	rep.gate("heap_mb", run.heapMB, "MB")

	rep.printf("end-to-end (wall clock; gated: op_p50_ms=status p50, op_tail_ms=status %s, full_ms=list p50, setup_s, heap_mb):", tailName(gatedTailPct))
	st, stP := status.tail()
	rep.named("status_p50_ms", ms(status.median()), "ms", fmt.Sprintf("n=%d GET /v1/vms/{name}, closed loop", len(status)))
	rep.named("status_tail_ms", ms(st), "ms", fmt.Sprintf("%s n=%d", tailName(stP), len(status)))
	lt, ltP := list.tail()
	rep.named("list_p50_ms", ms(list.median()), "ms", fmt.Sprintf("n=%d GET /v1/vms", len(list)))
	rep.named("list_tail_ms", ms(lt), "ms", fmt.Sprintf("%s n=%d", tailName(ltP), len(list)))
	wt, wtP := writes.tail()
	rep.named("write_p50_ms", ms(writes.median()), "ms", fmt.Sprintf("n=%d open loop 20/s, from due time", len(writes)))
	rep.named("write_tail_ms", ms(wt), "ms", fmt.Sprintf("%s n=%d", tailName(wtP), len(writes)))
	svc := run.service.samples()
	svcT, svcP := svc.tail()
	rep.named("write_service_p50_ms", ms(svc.median()), "ms", fmt.Sprintf("n=%d from send, queueing excluded", len(svc)))
	rep.named("write_service_tail_ms", ms(svcT), "ms", fmt.Sprintf("%s n=%d", tailName(svcP), len(svc)))
	rep.named("write_patch_p50_ms", ms(run.patch.samples().median()), "ms", fmt.Sprintf("n=%d PATCH period", len(run.patch.samples())))
	rep.named("write_churn_p50_ms", ms(run.churn.samples().median()), "ms", fmt.Sprintf("n=%d DELETE+POST", len(run.churn.samples())))
	lateT, lateP := run.lateness.tail()
	rep.named("writer_late_p50_ms", ms(run.lateness.median()), "ms", "generator lateness")
	rep.named("writer_late_tail_ms", ms(lateT), "ms", fmt.Sprintf("%s n=%d", tailName(lateP), len(run.lateness)))
	rep.named("writes_served_per_s", float64(len(writes))/run.gc.elapsed.Seconds(), "1/s", fmt.Sprintf("offered 20/s; %d due writes unsent at the deadline", run.backlog))
	rep.named("round_p50_ms", ms(rounds.median()), "ms", fmt.Sprintf("n=%d Group(i).Tick()", len(rounds)))
	rep.named("setup_s", setup.Seconds(), "s", fmt.Sprintf("median of n=%d set-ups (%d protections each)", len(run.setups), o.scale.protections))
	rep.named("heap_mb", run.heapMB, "MB", "live heap after a full GC at the end of set-up")
	rep.named("heap_end_mb", run.heapEndMB, "MB", fmt.Sprintf("live heap after a full GC at the end of the window (%+.1f KiB per round, %d rounds)",
		(run.heapEndMB-run.heapMB)*1024/float64(max(len(rounds), 1)), len(rounds)))
	rep.named("heap_peak_mb", run.heapPeakMB, "MB", "peak live heap over the window's GC cycles")
	rep.named("fail_ratio", float64(rep.failed)/float64(rep.attempted), "ratio", fmt.Sprintf("%d of %d operations", rep.failed, rep.attempted))

	rep.printf("per-layer:")
	rep.named("fleet.protect_ms", ms(run.protect.median()), "ms", fmt.Sprintf("direct Protect in set-up, %d concurrent callers, n=%d", controlplane.DefaultMaxInflight, len(run.protect)))
	rep.named("journal.records_per_fsync", float64(run.lsn)/float64(max(run.fsyncs, 1)), "ratio", fmt.Sprintf("%d records, %d fsyncs in the window", run.lsn, run.fsyncs))
	rep.gcLayers(run.gc)
	if !o.trace {
		return
	}
	rep.layer("fleet.round_ms", ms(rounds.median()), "ms", "Group(i).Tick()")
	rep.layer("fleet.status_us", us(run.direct.status.samples().median()), "us", fmt.Sprintf("direct Status, n=%d", len(run.direct.status.samples())))
	rep.layer("fleet.statusall_ms", ms(run.direct.statusAll.samples().median()), "ms", "direct StatusAll")
	rep.layer("fleet.hosts_us", us(run.direct.hosts.samples().median()), "us", "direct HostsStatus")
	rep.layer("fleet.setperiod_ms", ms(run.direct.setPeriod.samples().median()), "ms", "direct SetPeriod, rounds stopped")
	traced := run.tracedStatus.samples()
	rep.layer("controlplane.status_overhead_us", us(traced.median()-run.direct.status.samples().median()), "us", "traced HTTP status minus direct Status, medians")
	rep.layer("controlplane.list_bytes", medianFloat(run.listBytes), "bytes", "GET /v1/vms body")
	p := run.probe
	rep.layer("journal.appends_per_write", float64(p.lsn)/float64(p.writes), "count", fmt.Sprintf("quiet probe, %d writes", p.writes))
	rep.layer("journal.fsyncs_per_write", float64(p.fsyncs)/float64(p.writes), "count", fmt.Sprintf("quiet probe, %d writes", p.writes))
	rep.layer("placement.plan_us", us(run.direct.plan.samples().median()), "us", "Engine.Plan on the fleet's hosts")
	tracingOverhead(traced, run.untracedStatus.samples(), "status", rep)
}
