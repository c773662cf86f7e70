package vm

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"spin/internal/dispatch"
	"spin/internal/domain"
	"spin/internal/sal"
	"spin/internal/sim"
)

func newVM(t *testing.T) *System {
	t.Helper()
	eng := sim.NewEngine()
	disp := dispatch.New(eng, &sim.SPINProfile)
	mmu := sal.NewMMU(eng.Clock, &sim.SPINProfile)
	phys := sal.NewPhysMem(64 << 20)
	sys, err := New(eng, &sim.SPINProfile, disp, mmu, phys)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAllocateMapAccess(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, err := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead|sal.ProtWrite); err != nil {
		t.Fatal(err)
	}
	fault, _ := sys.Access(ctx, v.Start(), sal.ProtRead)
	if fault != nil {
		t.Fatalf("fault on mapped page: %v", fault.Kind)
	}
}

func TestDirtyQuery(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead|sal.ProtWrite)

	dirty, err := sys.PhysSvc.IsDirty(p)
	if err != nil || dirty {
		t.Fatalf("fresh page dirty=%v err=%v", dirty, err)
	}
	sys.Access(ctx, v.Start(), sal.ProtRead)
	dirty, _ = sys.PhysSvc.IsDirty(p)
	if dirty {
		t.Error("read marked page dirty")
	}
	sys.Access(ctx, v.Start(), sal.ProtWrite)
	dirty, _ = sys.PhysSvc.IsDirty(p)
	if !dirty {
		t.Error("write did not mark page dirty")
	}
}

func TestUnhandledFaultReturns(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	fault, _ := sys.Access(ctx, userBase, sal.ProtRead)
	if fault == nil || fault.Kind != sal.FaultBadAddress {
		t.Errorf("fault = %v", fault)
	}
}

func TestFaultEventResolution(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead)

	// Write to read-only page: protection fault; install a handler that
	// upgrades protection and resolves.
	handled := 0
	_, err := sys.Disp.Install(EvProtectionFault, func(arg, _ any) any {
		handled++
		_ = sys.TransSvc.Protect(ctx, v, sal.ProtRead|sal.ProtWrite)
		return true
	}, dispatch.InstallOptions{Guard: GuardContext(ctx)})
	if err != nil {
		t.Fatal(err)
	}
	fault, trapLat := sys.Access(ctx, v.Start(), sal.ProtWrite)
	if fault != nil {
		t.Fatalf("resolved fault still returned: %v", fault.Kind)
	}
	if handled != 1 {
		t.Errorf("handler ran %d times", handled)
	}
	if trapLat <= 0 {
		t.Error("trap latency not measured")
	}
}

func TestFaultRetryBound(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	// A handler that claims resolution but never fixes the mapping must
	// not loop forever.
	calls := 0
	_, _ = sys.Disp.Install(EvBadAddress, func(arg, _ any) any {
		calls++
		return true
	}, dispatch.InstallOptions{})
	fault, _ := sys.Access(ctx, userBase, sal.ProtRead)
	if fault == nil {
		t.Fatal("lying handler convinced Access")
	}
	if calls < 2 || calls > 8 {
		t.Errorf("handler calls = %d, want bounded retries", calls)
	}
}

func TestPhysAllocatorColors(t *testing.T) {
	sys := newVM(t)
	p, err := sys.PhysSvc.Allocate(4*sal.PageSize, Attrib{Color: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.frames {
		fr, _ := sys.Phys.Frame(f)
		if fr.Color != 3 {
			t.Errorf("frame %d color %d, want 3", f, fr.Color)
		}
	}
	if _, err := sys.PhysSvc.Allocate(sal.PageSize, Attrib{Color: sal.NumColors}); !errors.Is(err, ErrNoMemory) {
		t.Errorf("color %d (no such color) err = %v, want ErrNoMemory", sal.NumColors, err)
	}
}

func TestPhysAllocatorContiguous(t *testing.T) {
	sys := newVM(t)
	p, err := sys.PhysSvc.Allocate(8*sal.PageSize, Attrib{Color: -1, Contiguous: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.frames); i++ {
		if p.frames[i] != p.frames[i-1]+1 {
			t.Fatalf("frames not contiguous: %v", p.frames)
		}
	}
}

// TestPhysAllocatorContiguousDeterministic: contiguous allocation is a
// first-fit scan, so two fresh systems driven through the same history
// hand out identical frames, and each run is the lowest free one.
func TestPhysAllocatorContiguousDeterministic(t *testing.T) {
	history := func(sys *System) [][]uint64 {
		var got [][]uint64
		alloc := func(pages int, attrib Attrib) *PhysAddr {
			// Check the lowest free run before the allocation changes it.
			want := lowestFreeRun(sys.PhysSvc, pages)
			p, err := sys.PhysSvc.Allocate(int64(pages)*sal.PageSize, attrib)
			if err != nil {
				t.Fatal(err)
			}
			if attrib.Contiguous && p.frames[0] != want {
				t.Errorf("contiguous %d pages start at frame %d, lowest free run starts at %d",
					pages, p.frames[0], want)
			}
			got = append(got, append([]uint64(nil), p.frames...))
			return p
		}
		alloc(4, Attrib{Color: 3}) // holes at every 64th frame from 259
		alloc(8, Attrib{Color: -1, Contiguous: true})
		hole := alloc(16, Attrib{Color: -1, Contiguous: true})
		alloc(70, Attrib{Color: -1, Contiguous: true}) // must skip the color-3 frames
		if err := sys.PhysSvc.Deallocate(hole); err != nil {
			t.Fatal(err)
		}
		alloc(12, Attrib{Color: -1, Contiguous: true}) // fits the freed hole
		alloc(3, AnyAttrib)
		alloc(5, Attrib{Color: -1, Contiguous: true})
		return got
	}
	a, b := history(newVM(t)), history(newVM(t))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two fresh systems handed out different frames:\n%v\n%v", a, b)
	}
}

// lowestFreeRun is the reference for first-fit: the lowest frame starting
// pages consecutive frames that all sit on a free list.
func lowestFreeRun(svc *PhysAddrService, pages int) uint64 {
	free := make(map[uint64]bool)
	for _, list := range svc.free {
		for _, f := range list {
			free[uint64(f)] = true
		}
	}
	run := 0
	for f := uint64(0); f < uint64(svc.total); f++ {
		if !free[f] {
			run = 0
			continue
		}
		if run++; run == pages {
			return f + 1 - uint64(pages)
		}
	}
	return ^uint64(0)
}

func TestPhysAllocatorExhaustion(t *testing.T) {
	sys := newVM(t)
	free := sys.PhysSvc.FreePages()
	_, err := sys.PhysSvc.Allocate(int64(free+1)*sal.PageSize, AnyAttrib)
	if !errors.Is(err, ErrNoMemory) {
		t.Errorf("err = %v, want ErrNoMemory", err)
	}
	// Failed allocation must not leak frames.
	if sys.PhysSvc.FreePages() != free {
		t.Errorf("free pages leaked: %d -> %d", free, sys.PhysSvc.FreePages())
	}
}

func TestDeallocateInvalidatesMappings(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead)
	if err := sys.PhysSvc.Deallocate(p); err != nil {
		t.Fatal(err)
	}
	// The mapping must be gone: access faults.
	fault, _ := sys.Access(ctx, v.Start(), sal.ProtRead)
	if fault == nil {
		t.Fatal("mapping survived physical deallocation")
	}
	// Double free is a capability error.
	if err := sys.PhysSvc.Deallocate(p); !errors.Is(err, ErrBadCapability) {
		t.Errorf("double free err = %v", err)
	}
}

func TestReclaimNomination(t *testing.T) {
	sys := newVM(t)
	candidate, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	alternative, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	// A client nominates its less-important page instead.
	_, _ = sys.Disp.Install(EvReclaim, func(arg, _ any) any {
		if arg.(*PhysAddr) == candidate {
			return alternative
		}
		return (*PhysAddr)(nil)
	}, dispatch.InstallOptions{})
	victim, err := sys.PhysSvc.Reclaim(candidate)
	if err != nil {
		t.Fatal(err)
	}
	if victim != alternative {
		t.Error("nomination ignored")
	}
	// The candidate survives; the alternative is gone.
	if _, err := sys.PhysSvc.IsDirty(candidate); err != nil {
		t.Errorf("candidate dead after nominated reclaim: %v", err)
	}
	if err := sys.PhysSvc.Deallocate(alternative); !errors.Is(err, ErrBadCapability) {
		t.Errorf("alternative still live: %v", err)
	}
}

func TestReclaimWithoutHandlers(t *testing.T) {
	sys := newVM(t)
	candidate, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	victim, err := sys.PhysSvc.Reclaim(candidate)
	if err != nil {
		t.Fatal(err)
	}
	if victim != candidate {
		t.Error("unhandled reclaim should take the candidate")
	}
}

func TestVirtAddrDistinct(t *testing.T) {
	sys := newVM(t)
	asid := sys.VirtSvc.NewASID()
	a, _ := sys.VirtSvc.Allocate(asid, 3*sal.PageSize, AnyAttrib)
	b, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	if a.Start()+uint64(a.Size()) > b.Start() {
		t.Errorf("ranges overlap: %#x+%d vs %#x", a.Start(), a.Size(), b.Start())
	}
	other := sys.VirtSvc.NewASID()
	c, _ := sys.VirtSvc.Allocate(other, sal.PageSize, AnyAttrib)
	if c.ASID() == a.ASID() {
		t.Error("ASIDs not distinct")
	}
}

func TestAddMappingSizeMismatch(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, 2*sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	if err := sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestDestroyContext(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead)
	frame := p.frames[0]
	if sys.TransSvc.MappingsOf(frame) != 1 {
		t.Fatal("reverse map missing")
	}
	if err := sys.TransSvc.Destroy(ctx); err != nil {
		t.Fatal(err)
	}
	if sys.TransSvc.MappingsOf(frame) != 0 {
		t.Error("reverse map leaked after Destroy")
	}
	if err := sys.TransSvc.Destroy(ctx); !errors.Is(err, ErrBadCapability) {
		t.Errorf("double destroy err = %v", err)
	}
}

func TestProtCostShape(t *testing.T) {
	// Table 4 shape: Prot100 must cost far less than 100×Prot1 — a fixed
	// service overhead plus a small per-page cost.
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v1, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	p1, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v1, p1, sal.ProtRead|sal.ProtWrite)
	v100, _ := sys.VirtSvc.Allocate(asid, 100*sal.PageSize, AnyAttrib)
	p100, _ := sys.PhysSvc.Allocate(100*sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v100, p100, sal.ProtRead|sal.ProtWrite)

	start := sys.Clock.Now()
	_ = sys.TransSvc.Protect(ctx, v1, sal.ProtRead)
	prot1 := sys.Clock.Now().Sub(start)

	start = sys.Clock.Now()
	_ = sys.TransSvc.Protect(ctx, v100, sal.ProtRead)
	prot100 := sys.Clock.Now().Sub(start)

	if prot100 >= 100*prot1 {
		t.Errorf("no batching advantage: prot1=%v prot100=%v", prot1, prot100)
	}
	// Against the paper: ~16µs and ~213µs for SPIN.
	if prot1 < 10*sim.Microsecond || prot1 > 25*sim.Microsecond {
		t.Errorf("Prot1 = %v, want ≈16µs", prot1)
	}
	if prot100 < 150*sim.Microsecond || prot100 > 300*sim.Microsecond {
		t.Errorf("Prot100 = %v, want ≈213µs", prot100)
	}
}

func TestDemandZero(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	region, _ := sys.VirtSvc.Allocate(asid, 4*sal.PageSize, AnyAttrib)
	dz, err := NewDemandZero(sys, ctx, region, sal.ProtRead|sal.ProtWrite, domain.Identity{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fault, _ := sys.Access(ctx, region.Start()+uint64(i)*sal.PageSize, sal.ProtWrite)
		if fault != nil {
			t.Fatalf("page %d: %v", i, fault.Kind)
		}
	}
	if dz.Faults != 4 {
		t.Errorf("materialized %d pages, want 4", dz.Faults)
	}
	// Second touch: no new faults.
	sys.Access(ctx, region.Start(), sal.ProtWrite)
	if dz.Faults != 4 {
		t.Error("already-mapped page refaulted")
	}
	dz.Disarm()
}

func TestDemandZeroGuardIsolation(t *testing.T) {
	// Faults in another context must not be serviced by this region's
	// handler.
	sys := newVM(t)
	ctxA := sys.TransSvc.Create()
	ctxB := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	region, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	dz, _ := NewDemandZero(sys, ctxA, region, sal.ProtRead, domain.Identity{Name: "a"})
	// Mark the same range allocated in B so the same event is raised.
	_ = sys.TransSvc.MarkAllocated(ctxB, region)
	fault, _ := sys.Access(ctxB, region.Start(), sal.ProtRead)
	if fault == nil {
		t.Fatal("foreign context fault resolved by guarded handler")
	}
	if dz.Faults != 0 {
		t.Error("handler ran for foreign context")
	}
}

func TestAddressSpaceCopyOnWrite(t *testing.T) {
	sys := newVM(t)
	parent := NewAddressSpace(sys, domain.Identity{Name: "parent"})
	region, err := parent.AllocateMemory(2*sal.PageSize, sal.ProtRead|sal.ProtWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the parent's first page before the fork.
	sys.Access(parent.Ctx, region.Start(), sal.ProtWrite)

	child, err := parent.Copy(domain.Identity{Name: "child"})
	if err != nil {
		t.Fatal(err)
	}
	// Both sides read without faulting.
	if f, _ := sys.Access(parent.Ctx, region.Start(), sal.ProtRead); f != nil {
		t.Fatalf("parent read: %v", f.Kind)
	}
	if f, _ := sys.Access(child.Ctx, region.Start(), sal.ProtRead); f != nil {
		t.Fatalf("child read: %v", f.Kind)
	}
	// Before any write both map the same frame.
	pf, _ := sys.TransSvc.FrameOf(parent.Ctx, region, 0)
	cf, _ := sys.TransSvc.FrameOf(child.Ctx, region, 0)
	if pf != cf {
		t.Fatal("COW did not share frames")
	}
	// Child writes: gets a private copy.
	if f, _ := sys.Access(child.Ctx, region.Start(), sal.ProtWrite); f != nil {
		t.Fatalf("child COW write: %v", f.Kind)
	}
	if child.CowFaults != 1 {
		t.Errorf("child COW faults = %d", child.CowFaults)
	}
	cf2, _ := sys.TransSvc.FrameOf(child.Ctx, region, 0)
	if cf2 == pf {
		t.Error("child write did not break sharing")
	}
	// Parent writes its (still-shared) page: its own COW fault.
	if f, _ := sys.Access(parent.Ctx, region.Start(), sal.ProtWrite); f != nil {
		t.Fatalf("parent COW write: %v", f.Kind)
	}
	if parent.CowFaults != 1 {
		t.Errorf("parent COW faults = %d", parent.CowFaults)
	}
	parent.Destroy()
	child.Destroy()
}

func TestMachTaskExtension(t *testing.T) {
	sys := newVM(t)
	task := NewTask(sys, domain.Identity{Name: "task"})
	addr, err := task.VMAllocate(3 * sal.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := sys.Access(task.AddressSpace().Ctx, addr, sal.ProtWrite); f != nil {
		t.Fatalf("write to vm_allocate'd memory: %v", f.Kind)
	}
	if err := task.VMProtect(addr, sal.ProtRead); err != nil {
		t.Fatal(err)
	}
	if f, _ := sys.Access(task.AddressSpace().Ctx, addr, sal.ProtWrite); f == nil {
		t.Fatal("write after vm_protect(read) succeeded")
	}
	if err := task.VMDeallocate(addr); err != nil {
		t.Fatal(err)
	}
	if err := task.VMProtect(addr, sal.ProtRead); err == nil {
		t.Error("vm_protect after deallocate succeeded")
	}
}

// Property: alloc/dealloc sequences conserve frames: free + in-use is
// constant, and no frame is handed out twice concurrently.
func TestAllocatorConservationProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint8) bool {
		sys := newVM(t)
		totalFree := sys.PhysSvc.FreePages()
		var live []*PhysAddr
		owned := map[uint64]bool{}
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				p, err := sys.PhysSvc.Allocate(int64(op%8+1)*sal.PageSize, AnyAttrib)
				if err != nil {
					continue
				}
				for _, f := range p.frames {
					if owned[f] {
						return false // double allocation
					}
					owned[f] = true
				}
				live = append(live, p)
			} else {
				i := int(op) % len(live)
				p := live[i]
				for _, f := range p.frames {
					delete(owned, f)
				}
				if err := sys.PhysSvc.Deallocate(p); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if sys.PhysSvc.FreePages()+sys.PhysSvc.InUsePages() != totalFree {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestExamineMapping(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	// Unmapped: ProtNone.
	prot, err := sys.TransSvc.ExamineMapping(ctx, v)
	if err != nil || prot != sal.ProtNone {
		t.Errorf("unmapped examine = %v, %v", prot, err)
	}
	_ = sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead|sal.ProtExec)
	prot, err = sys.TransSvc.ExamineMapping(ctx, v)
	if err != nil || prot != sal.ProtRead|sal.ProtExec {
		t.Errorf("examine = %v, %v", prot, err)
	}
	if _, err := sys.TransSvc.ExamineMapping(nil, v); !errors.Is(err, ErrBadCapability) {
		t.Errorf("nil ctx: %v", err)
	}
}

func TestProtectPageSingle(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, 2*sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(2*sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead|sal.ProtWrite)
	if err := sys.TransSvc.ProtectPage(ctx, v, 1, sal.ProtRead); err != nil {
		t.Fatal(err)
	}
	// Page 0 still writable, page 1 not.
	if f, _ := sys.Access(ctx, v.Start(), sal.ProtWrite); f != nil {
		t.Error("page 0 lost write access")
	}
	if f, _ := sys.Access(ctx, v.Start()+sal.PageSize, sal.ProtWrite); f == nil {
		t.Error("page 1 kept write access")
	}
	if err := sys.TransSvc.ProtectPage(ctx, v, 5, sal.ProtRead); !errors.Is(err, ErrBadCapability) {
		t.Errorf("out-of-range page: %v", err)
	}
}

func TestCapabilityAccessors(t *testing.T) {
	sys := newVM(t)
	p, _ := sys.PhysSvc.Allocate(3*sal.PageSize, AnyAttrib)
	if p.Size() != 3*sal.PageSize || p.Pages() != 3 {
		t.Errorf("size=%d pages=%d", p.Size(), p.Pages())
	}
	ctx := sys.TransSvc.Create()
	if ctx.ID() == 0 {
		t.Error("context id zero")
	}
}

func TestVirtAddrDeallocateRemovesMappings(t *testing.T) {
	sys := newVM(t)
	ctx := sys.TransSvc.Create()
	asid := sys.VirtSvc.NewASID()
	v, _ := sys.VirtSvc.Allocate(asid, sal.PageSize, AnyAttrib)
	p, _ := sys.PhysSvc.Allocate(sal.PageSize, AnyAttrib)
	_ = sys.TransSvc.AddMapping(ctx, v, p, sal.ProtRead)
	if err := sys.VirtSvc.Deallocate(v); err != nil {
		t.Fatal(err)
	}
	if sys.TransSvc.MappingsOf(p.frames[0]) != 0 {
		t.Error("mappings survived virtual deallocation")
	}
	if err := sys.VirtSvc.Deallocate(v); !errors.Is(err, ErrBadCapability) {
		t.Errorf("double dealloc: %v", err)
	}
}

func TestTaskDeallocateMissingRegion(t *testing.T) {
	sys := newVM(t)
	task := NewTask(sys, domain.Identity{Name: "t"})
	if err := task.VMDeallocate(0xdeadbeef); err == nil {
		t.Error("dealloc of unmapped address succeeded")
	}
}
