package migration_test

import (
	"testing"
	"time"

	"github.com/here-ft/here/internal/hypervisor"
	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/migration"
	"github.com/here-ft/here/internal/simnet"
	"github.com/here-ft/here/internal/vclock"
	"github.com/here-ft/here/internal/workload"
	"github.com/here-ft/here/internal/xen"
)

type rig struct {
	clk  *vclock.SimClock
	host *hypervisor.Host
	vm   *hypervisor.VM
	link *simnet.Link
	dst  *memory.GuestMemory
}

func newRig(t *testing.T, memBytes uint64, vcpus int) *rig {
	t.Helper()
	clk := vclock.NewSim()
	host, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := host.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: memBytes, VCPUs: vcpus,
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clk: clk, host: host, vm: vm, link: link, dst: memory.NewGuestMemory(memBytes)}
}

func TestMigrateValidation(t *testing.T) {
	r := newRig(t, 1<<20, 1)
	if _, err := migration.Migrate(nil, r.dst, migration.Config{Transport: migration.Modeled(r.link), Mode: migration.ModeXen}); err == nil {
		t.Fatal("nil vm accepted")
	}
	if _, err := migration.Migrate(r.vm, nil, migration.Config{Transport: migration.Modeled(r.link), Mode: migration.ModeXen}); err == nil {
		t.Fatal("nil dst accepted")
	}
	if _, err := migration.Migrate(r.vm, r.dst, migration.Config{Mode: migration.ModeXen}); err == nil {
		t.Fatal("nil link accepted")
	}
	if _, err := migration.Migrate(r.vm, r.dst, migration.Config{Transport: migration.Modeled(r.link)}); err == nil {
		t.Fatal("zero mode accepted")
	}
	r.vm.Pause()
	if _, err := migration.Migrate(r.vm, r.dst, migration.Config{Transport: migration.Modeled(r.link), Mode: migration.ModeXen}); err == nil {
		t.Fatal("paused vm accepted")
	}
}

func TestMigrateIdleCopiesMemoryExactly(t *testing.T) {
	r := newRig(t, 256*memory.PageSize, 2)
	// Populate some guest content before migrating.
	for i := 0; i < 40; i++ {
		data := []byte{byte(i), 0xCC, byte(i * 3)}
		if err := r.vm.WriteGuest(i%2, memory.Addr(i*5*memory.PageSize/4), data); err != nil {
			t.Fatal(err)
		}
	}
	res, err := migration.Migrate(r.vm, r.dst, migration.Config{
		Transport: migration.Modeled(r.link), Mode: migration.ModeXen,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.vm.Running() {
		t.Fatal("vm must end paused")
	}
	if r.vm.Memory().Hash() != r.dst.Hash() {
		t.Fatal("destination memory differs from source")
	}
	if res.Duration <= 0 || res.Downtime <= 0 || res.Duration < res.Downtime {
		t.Fatalf("times inconsistent: %+v", res)
	}
	if res.PagesSent < int64(r.vm.Memory().NumPages()) {
		t.Fatalf("PagesSent = %d, want ≥ %d", res.PagesSent, r.vm.Memory().NumPages())
	}
	if err := res.FinalState.Validate(); err != nil {
		t.Fatalf("final state invalid: %v", err)
	}
	// Idle guest converges immediately: low iteration count.
	if res.Iterations != 1 {
		t.Fatalf("idle iterations = %d, want 1", res.Iterations)
	}
}

func TestMigrateHEREPreservesContentUnderLoad(t *testing.T) {
	r := newRig(t, 2048*memory.PageSize, 4)
	// Real content plus a random write workload.
	payload := []byte("critical database record")
	if err := r.vm.WriteGuest(0, 100*memory.PageSize, payload); err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewMemoryBench(40, 200_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := migration.Migrate(r.vm, r.dst, migration.Config{
		Transport: migration.Modeled(r.link), Mode: migration.ModeHERE, Workload: w, StopThreshold: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.vm.Memory().Hash() != r.dst.Hash() {
		t.Fatal("destination memory differs from source after loaded migration")
	}
	got := make([]byte, len(payload))
	if err := r.dst.Read(100*memory.PageSize, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload corrupted: %q", got)
	}
	if res.Iterations < 2 {
		t.Fatalf("loaded migration converged too fast: %d iterations", res.Iterations)
	}
}

func TestMigrateLoadedRunsMoreIterationsThanIdle(t *testing.T) {
	idle := newRig(t, 4096*memory.PageSize, 4)
	resIdle, err := migration.Migrate(idle.vm, idle.dst, migration.Config{
		Transport: migration.Modeled(idle.link), Mode: migration.ModeXen,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded := newRig(t, 4096*memory.PageSize, 4)
	w, err := workload.NewMemoryBench(60, 500_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	resLoaded, err := migration.Migrate(loaded.vm, loaded.dst, migration.Config{
		Transport: migration.Modeled(loaded.link), Mode: migration.ModeXen, Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resLoaded.Iterations <= resIdle.Iterations {
		t.Fatalf("loaded iterations (%d) not above idle (%d)",
			resLoaded.Iterations, resIdle.Iterations)
	}
	if resLoaded.Duration <= resIdle.Duration {
		t.Fatalf("loaded migration (%v) not slower than idle (%v)",
			resLoaded.Duration, resIdle.Duration)
	}
	if resLoaded.Iterations > migration.DefaultMaxIterations {
		t.Fatalf("iteration cap exceeded: %d", resLoaded.Iterations)
	}
}

// Fig 6 shape (left): for large idle VMs, HERE migrates 15–35% faster
// than stock Xen (paper: "up to 25%").
func TestHEREFasterOnLargeIdleVM(t *testing.T) {
	const size = 4 << 30 // 4 GB
	xenRig := newRig(t, size, 4)
	resXen, err := migration.Migrate(xenRig.vm, xenRig.dst, migration.Config{
		Transport: migration.Modeled(xenRig.link), Mode: migration.ModeXen,
	})
	if err != nil {
		t.Fatal(err)
	}
	hereRig := newRig(t, size, 4)
	resHERE, err := migration.Migrate(hereRig.vm, hereRig.dst, migration.Config{
		Transport: migration.Modeled(hereRig.link), Mode: migration.ModeHERE,
	})
	if err != nil {
		t.Fatal(err)
	}
	gain := 1 - resHERE.Duration.Seconds()/resXen.Duration.Seconds()
	if gain < 0.10 || gain > 0.45 {
		t.Fatalf("idle HERE gain = %.0f%% (xen %v, here %v), want ~25%%",
			gain*100, resXen.Duration, resHERE.Duration)
	}
}

// Fig 6 shape (right): under memory load the gain grows to ~49%.
func TestHEREFasterUnderLoad(t *testing.T) {
	const size = 2 << 30
	run := func(mode migration.Mode) migration.Result {
		r := newRig(t, size, 4)
		w, err := workload.NewMemoryBench(30, workload.DefaultWriteRate, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := migration.Migrate(r.vm, r.dst, migration.Config{
			Transport: migration.Modeled(r.link), Mode: mode, Workload: w,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	resXen := run(migration.ModeXen)
	resHERE := run(migration.ModeHERE)
	gain := 1 - resHERE.Duration.Seconds()/resXen.Duration.Seconds()
	if gain < 0.30 || gain > 0.70 {
		t.Fatalf("loaded HERE gain = %.0f%% (xen %v, here %v), want ~49%%",
			gain*100, resXen.Duration, resHERE.Duration)
	}
	// The loaded gain must exceed the idle gain (Fig 6's key contrast).
	if gain < 0.25 {
		t.Fatalf("loaded gain %.0f%% should exceed the idle band", gain*100)
	}
}

func TestMigrateLinkFailureAborts(t *testing.T) {
	r := newRig(t, 1<<22, 2)
	r.link.SetDown(true)
	if _, err := migration.Migrate(r.vm, r.dst, migration.Config{
		Transport: migration.Modeled(r.link), Mode: migration.ModeXen,
	}); err == nil {
		t.Fatal("migration over a dead link succeeded")
	}
}

func TestProblematicPagesAreResent(t *testing.T) {
	r := newRig(t, 2048*memory.PageSize, 4)
	// A workload that hammers a tiny working set from all vCPUs makes
	// cross-vCPU page collisions certain.
	w, err := workload.NewMemoryBench(2, 400_000, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := migration.Migrate(r.vm, r.dst, migration.Config{
		Transport: migration.Modeled(r.link), Mode: migration.ModeHERE, Workload: w,
		// Large PML rings so attribution survives; see VMConfig below.
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res // problematic counting needs non-overflowing rings; see next test
}

func TestProblematicPagesCountedWithLargeRings(t *testing.T) {
	clk := vclock.NewSim()
	host, err := xen.New("host-a", clk)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := host.CreateVM(hypervisor.VMConfig{
		Name: "vm", MemBytes: 2048 * memory.PageSize, VCPUs: 4,
		PMLRingCap: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := simnet.NewLink(simnet.OmniPath100(), clk)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewMemoryBench(2, 400_000, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := migration.Migrate(vm, memory.NewGuestMemory(2048*memory.PageSize), migration.Config{
		Transport: migration.Modeled(link), Mode: migration.ModeHERE, Workload: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProblematicResent == 0 {
		t.Fatal("no problematic pages detected despite cross-vCPU collisions")
	}
	if vm.Memory().Hash() == 0 {
		t.Fatal("sanity")
	}
}

func TestMigrationTimeScalesWithMemory(t *testing.T) {
	var prev time.Duration
	for _, gb := range []uint64{1, 2, 4} {
		r := newRig(t, gb<<30, 4)
		res, err := migration.Migrate(r.vm, r.dst, migration.Config{
			Transport: migration.Modeled(r.link), Mode: migration.ModeXen,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Duration <= prev {
			t.Fatalf("%d GB migration (%v) not slower than previous (%v)",
				gb, res.Duration, prev)
		}
		prev = res.Duration
	}
}

func TestModeString(t *testing.T) {
	if migration.ModeXen.String() != "xen" || migration.ModeHERE.String() != "here" {
		t.Fatal("mode names wrong")
	}
	if migration.Mode(9).String() == "" {
		t.Fatal("unknown mode must render")
	}
}
