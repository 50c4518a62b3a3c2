package replication_test

import (
	"errors"
	"testing"
	"time"

	"github.com/here-ft/here/internal/devices"
	"github.com/here-ft/here/internal/faults"
	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/replication"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/translate"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/xen"

	"github.com/here-ft/here/internal/arch"
	"github.com/here-ft/here/internal/kvm"
)

// newRigOnClock is newRig on a caller-supplied clock (e.g. a fault
// plan's pumping clock). rig.clk is left nil.
func newRigOnClock(t *testing.T, clk vclock.Clock, memBytes uint64, vcpus int) *rig {
	t.Helper()
	xh, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := kvm.New("host-b", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := xh.CreateVM(hypervisor.VMConfig{
		Name: "protected", MemBytes: memBytes, VCPUs: vcpus,
		Features: translate.CompatibleFeatures(xh, kh),
		Devices: []hypervisor.DeviceSpec{
			{Class: arch.DeviceNet, ID: "net0", MAC: "52:54:00:00:00:02"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{xh: xh, kh: kh, vm: vm, link: link}
}

// flakyInjector fails the next `fails` transfers, then passes.
type flakyInjector struct{ fails int }

func (f *flakyInjector) Advance(time.Time) {}

func (f *flakyInjector) TransferFault(int64, int) error {
	if f.fails > 0 {
		f.fails--
		return simnet.ErrTransferLost
	}
	return nil
}

// nthFailInjector fails every transfer from the failFrom-th onward.
type nthFailInjector struct {
	n, failFrom int
}

func (f *nthFailInjector) Advance(time.Time) {}

func (f *nthFailInjector) TransferFault(int64, int) error {
	f.n++
	if f.n >= f.failFrom {
		return simnet.ErrTransferLost
	}
	return nil
}

func TestRetryPolicyDefaultsAndBudget(t *testing.T) {
	// The zero value must yield a usable policy whose worst-case stall
	// is the jittered sum of the default backoffs: (50+100+200) × 1.2.
	if got := (replication.RetryPolicy{}).Budget(); got != 420*time.Millisecond {
		t.Fatalf("default budget = %v, want 420ms", got)
	}
	noJitter := replication.RetryPolicy{Jitter: -1}
	if got := noJitter.Budget(); got != 350*time.Millisecond {
		t.Fatalf("jitterless budget = %v, want 350ms", got)
	}
	one := replication.RetryPolicy{MaxAttempts: 1}
	if got := one.Budget(); got != 0 {
		t.Fatalf("single-attempt budget = %v, want 0", got)
	}
}

func TestRetryRidesOutTransientLoss(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	rep := r.here(t, replication.Config{Period: time.Second})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	// Two lost transfers, then clean: well within the 4-attempt budget.
	r.link.SetInjector(&flakyInjector{fails: 2})
	if err := r.vm.WriteGuest(0, 10*memory.PageSize, []byte("survives loss")); err != nil {
		t.Fatal(err)
	}
	st, err := rep.RunCycle()
	if err != nil {
		t.Fatalf("cycle failed despite retry budget: %v", err)
	}
	if st.Mode != replication.StateProtected {
		t.Fatalf("mode = %v, want protected", st.Mode)
	}
	rec := rep.Recovery()
	if rec.Retries != 2 || rec.Rollbacks != 0 {
		t.Fatalf("Recovery = %+v, want 2 retries, 0 rollbacks", rec)
	}
	_, mem, err := rep.ReplicaImage()
	if err != nil {
		t.Fatal(err)
	}
	if mem.Hash() != r.vm.Memory().Hash() {
		t.Fatal("replica diverged after retried checkpoint")
	}
}

func TestExhaustedRetriesFailWithoutDegradedMode(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	rep := r.here(t, replication.Config{Period: time.Second})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	r.link.SetInjector(&flakyInjector{fails: 100})
	_, err := rep.RunCycle()
	if !errors.Is(err, replication.ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, simnet.ErrTransferLost) {
		t.Fatalf("err = %v, must also match the transfer cause", err)
	}
	if rep.State() != replication.StateProtected {
		t.Fatalf("state = %v; without DegradedMode the machine must not enter degraded", rep.State())
	}
	if !r.vm.Running() {
		t.Fatal("guest not resumed after rollback")
	}
}

// TestRollbackKeepsReplicaOnAckedEpoch is the mid-flight-checkpoint
// failover precondition: whether the payload or only its ack is lost,
// the replica must stay on the last acknowledged epoch, and the
// re-marked dirty pages must converge it on the next healthy cycle.
func TestRollbackKeepsReplicaOnAckedEpoch(t *testing.T) {
	cases := map[string]simnet.Injector{
		"payload-fails": &flakyInjector{fails: 100},
		"ack-fails":     &nthFailInjector{failFrom: 2}, // payload lands, ack (and its retries) lost
	}
	for name, inj := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 512*memory.PageSize, 2)
			rep := r.here(t, replication.Config{Period: time.Second})
			if _, err := rep.Seed(); err != nil {
				t.Fatal(err)
			}
			if _, err := rep.RunCycle(); err != nil {
				t.Fatal(err)
			}
			_, mem, err := rep.ReplicaImage()
			if err != nil {
				t.Fatal(err)
			}
			acked := mem.Hash()

			if err := r.vm.WriteGuest(0, 42*memory.PageSize, []byte("mid-flight")); err != nil {
				t.Fatal(err)
			}
			r.link.SetInjector(inj)
			if _, err := rep.RunCycle(); err == nil {
				t.Fatal("cycle succeeded under persistent loss")
			}
			if _, mem2, err := rep.ReplicaImage(); err != nil || mem2.Hash() != acked {
				t.Fatal("replica moved off the last acknowledged epoch")
			}

			// Heal the link: the re-marked dirty pages ship on the next
			// cycle and the replica converges.
			r.link.SetInjector(nil)
			st, err := rep.RunCycle()
			if err != nil {
				t.Fatal(err)
			}
			if st.DirtyPages == 0 {
				t.Fatal("rolled-back dirty pages were not re-marked")
			}
			if _, mem3, err := rep.ReplicaImage(); err != nil || mem3.Hash() != r.vm.Memory().Hash() {
				t.Fatal("replica did not converge after recovery")
			}
			if rep.Recovery().Rollbacks != 1 {
				t.Fatalf("rollbacks = %d, want 1", rep.Recovery().Rollbacks)
			}
		})
	}
}

// TestRollbackKeepsEncoderBaseline pins the wire codec's baseline
// lifecycle to the acknowledgement protocol: the leg's replica mirror,
// which Encode diffs against, must not advance on a rolled-back
// checkpoint, whether the payload or only the ack was lost. If it did,
// the next checkpoint's XOR deltas would diff against content the
// replica never acknowledged, and applying them on the replica's older
// image would corrupt it — caught here by the hash comparison after
// recovery.
func TestRollbackKeepsEncoderBaseline(t *testing.T) {
	cases := map[string]func() simnet.Injector{
		"payload-fails": func() simnet.Injector { return &flakyInjector{fails: 100} },
		"ack-fails":     func() simnet.Injector { return &nthFailInjector{failFrom: 2} },
	}
	for name, inj := range cases {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 512*memory.PageSize, 2)
			rep := r.here(t, replication.Config{Period: time.Second, Compression: true})
			if _, err := rep.Seed(); err != nil {
				t.Fatal(err)
			}
			// Establish a baseline image for page 42 via an acked cycle.
			if err := r.vm.WriteGuest(0, 42*memory.PageSize, []byte("epoch-1")); err != nil {
				t.Fatal(err)
			}
			if _, err := rep.RunCycle(); err != nil {
				t.Fatal(err)
			}
			_, base, err := rep.ReplicaImage()
			if err != nil {
				t.Fatal(err)
			}
			acked := base.Hash()

			// Mutate the page and lose the checkpoint.
			if err := r.vm.WriteGuest(0, 42*memory.PageSize, []byte("epoch-2")); err != nil {
				t.Fatal(err)
			}
			r.link.SetInjector(inj())
			if _, err := rep.RunCycle(); err == nil {
				t.Fatal("cycle succeeded under persistent loss")
			}
			if base.Hash() != acked {
				t.Fatal("delta baseline advanced on a rolled-back checkpoint")
			}

			// Mutate again and recover: the delta must encode against
			// epoch-1 (what the replica holds), not the abandoned
			// epoch-2 stream.
			if err := r.vm.WriteGuest(0, 42*memory.PageSize, []byte("epoch-3")); err != nil {
				t.Fatal(err)
			}
			r.link.SetInjector(nil)
			st, err := rep.RunCycle()
			if err != nil {
				t.Fatal(err)
			}
			if st.Wire.DeltaFrames == 0 {
				t.Fatalf("recovery checkpoint used no delta frames: %+v", st.Wire)
			}
			if _, mem, err := rep.ReplicaImage(); err != nil || mem.Hash() != r.vm.Memory().Hash() {
				t.Fatal("replica corrupted: baseline advanced on a rolled-back checkpoint")
			}
		})
	}
}

func TestDegradedModeOutageAndDeltaResync(t *testing.T) {
	// Build the rig on a fault plan's pumping clock so the scheduled
	// outage begins and ends purely as simulated time passes.
	inner := vclock.NewSim()
	plan := faults.New(inner, 42)
	clk := plan.Clock()
	r := newRigOnClock(t, clk, 2048*memory.PageSize, 2)
	plan.AttachLink(r.link)

	var delivered []devices.Packet
	rep := r.here(t, replication.Config{
		Period:       time.Second,
		DegradedMode: true,
		Sink:         func(p []devices.Packet) { delivered = append(delivered, p...) },
	})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.RunCycle(); err != nil {
		t.Fatal(err)
	}

	// A 5 s outage starting mid-run of the next cycle.
	plan.LinkOutage(inner.Elapsed()+500*time.Millisecond, 5*time.Second)

	writes := 0
	dirtyEachCycle := func() {
		writes++
		addr := memory.Addr(100+writes) * memory.PageSize
		if err := r.vm.WriteGuest(0, addr, []byte("outage write")); err != nil {
			t.Fatal(err)
		}
		rep.IOBuffer().Buffer(64, []byte{byte(writes)})
	}

	sawDegraded := false
	sawResync := false
	for i := 0; i < 12 && !sawResync; i++ {
		dirtyEachCycle()
		st, err := rep.RunCycle()
		if err != nil {
			t.Fatal(err)
		}
		if st.Mode == replication.StateDegraded {
			sawDegraded = true
			if len(delivered) != 0 {
				t.Fatal("buffered output escaped during degraded interval")
			}
		}
		sawResync = st.Resync
	}
	if !sawDegraded {
		t.Fatal("outage never produced a degraded cycle")
	}
	if !sawResync {
		t.Fatal("link recovery never produced a resync")
	}

	// Zero lost acknowledged state: the replica converged.
	if _, mem, err := rep.ReplicaImage(); err != nil || mem.Hash() != r.vm.Memory().Hash() {
		t.Fatal("replica did not converge after delta resync")
	}
	// The delta resync shipped only the outage's dirty set — far less
	// than the full memory.
	rec := rep.Recovery()
	full := int64(r.vm.Memory().SizeBytes())
	if rec.Resyncs != 1 || rec.ResyncBytes <= 0 || rec.ResyncBytes >= full {
		t.Fatalf("Recovery = %+v (full=%d): want one cheap delta resync", rec, full)
	}
	if rec.DegradedEntries != 1 {
		t.Fatalf("DegradedEntries = %d, want 1", rec.DegradedEntries)
	}
	if rec.DegradedTime <= 0 || rec.ProtectedTime <= 0 {
		t.Fatalf("mode times not accounted: %+v", rec)
	}
	// Output buffered while unprotected is released by the resync, in
	// order, with nothing lost.
	if len(delivered) != writes {
		t.Fatalf("delivered %d packets, want %d", len(delivered), writes)
	}
	if rep.State() != replication.StateProtected {
		t.Fatalf("state = %v after resync", rep.State())
	}
}

func TestFailedOverStopsCycles(t *testing.T) {
	r := newRig(t, 512*memory.PageSize, 2)
	rep := r.here(t, replication.Config{Period: time.Second})
	if _, err := rep.Seed(); err != nil {
		t.Fatal(err)
	}
	rep.MarkFailedOver()
	if rep.State() != replication.StateFailedOver {
		t.Fatalf("state = %v", rep.State())
	}
	if _, err := rep.RunCycle(); !errors.Is(err, replication.ErrFailedOver) {
		t.Fatalf("err = %v, want ErrFailedOver", err)
	}
}

func TestStateString(t *testing.T) {
	pairs := map[replication.State]string{
		replication.StateProtected:  "protected",
		replication.StateDegraded:   "degraded",
		replication.StateResyncing:  "resyncing",
		replication.StateFailedOver: "failed-over",
	}
	for s, want := range pairs {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if replication.State(99).String() == "" {
		t.Fatal("unknown state must render")
	}
}
