package vm

import (
	"spin/internal/sal"
	"spin/internal/sim"
)

// Attrib expresses machine-specific allocation preferences (paper: "an
// optional series of attributes that reflect preferences for machine
// specific parameters such as color or contiguity").
type Attrib struct {
	// Color requests frames of one cache color; -1 means any.
	Color int
	// Contiguous requests physically contiguous frames.
	Contiguous bool
}

// AnyAttrib is the default: any color, no contiguity.
var AnyAttrib = Attrib{Color: -1}

// PhysAddr is a capability for physical memory (PhysAddr.T). A physical
// page "is not, for most purposes, a nameable entity"; clients hold this
// capability, not frame numbers. Frames are reachable only by the
// translation service.
type PhysAddr struct {
	frames []uint64
	owner  *PhysAddrService
	dead   bool
}

// Pages reports the number of frames backing the capability.
func (p *PhysAddr) Pages() int { return len(p.frames) }

// Size reports the backing size in bytes.
func (p *PhysAddr) Size() int64 { return int64(len(p.frames)) * sal.PageSize }

// PhysAddrService controls the use and allocation of physical pages.
type PhysAddrService struct {
	sys *System
	// free holds the per-color free lists; frames are taken from the
	// front and returned to the back.
	free [sal.NumColors][]uint32
	// first is the lowest allocatable frame: the frames below it hold the
	// kernel image. A frame at or above first is free exactly when it is
	// not InUse.
	first    uint64
	liveCaps map[*PhysAddr]bool
	total    int
	inUse    int
}

func newPhysAddrService(sys *System) *PhysAddrService {
	// Low frames are reserved for the kernel image (first 2 MB), as on
	// real hardware.
	svc := &PhysAddrService{
		sys:      sys,
		first:    (2 << 20) / sal.PageSize,
		liveCaps: make(map[*PhysAddr]bool),
		total:    sys.Phys.NumFrames(),
	}
	perColor := (svc.total - int(svc.first) + sal.NumColors - 1) / sal.NumColors
	for color := range svc.free {
		svc.free[color] = make([]uint32, 0, perColor)
	}
	for f := svc.first; f < uint64(svc.total); f++ {
		fr, _ := sys.Phys.Frame(f)
		svc.free[fr.Color] = append(svc.free[fr.Color], uint32(f))
	}
	return svc
}

// Allocate grants a capability for size bytes (rounded up to whole pages) of
// physical memory satisfying attrib. Raising Allocate costs a procedure
// call plus per-frame bookkeeping.
func (svc *PhysAddrService) Allocate(size int64, attrib Attrib) (*PhysAddr, error) {
	svc.sys.Clock.Advance(svc.sys.Profile.CrossDomainCall)
	pages := int((size + sal.PageSize - 1) / sal.PageSize)
	if pages == 0 {
		pages = 1
	}
	frames, err := svc.take(pages, attrib)
	if err != nil {
		return nil, err
	}
	svc.sys.Clock.Advance(sim.Duration(pages) * 200)
	for _, f := range frames {
		fr, _ := svc.sys.Phys.Frame(f)
		fr.InUse = true
		fr.Dirty = false
		fr.Referenced = false
	}
	cap := &PhysAddr{frames: frames, owner: svc}
	svc.liveCaps[cap] = true
	svc.inUse += pages
	return cap, nil
}

func (svc *PhysAddrService) take(pages int, attrib Attrib) ([]uint64, error) {
	if attrib.Contiguous {
		return svc.takeContiguous(pages)
	}
	if attrib.Color >= sal.NumColors {
		return nil, ErrNoMemory
	}
	frames := make([]uint64, 0, pages)
	if attrib.Color >= 0 {
		list := svc.free[attrib.Color]
		if len(list) < pages {
			return nil, ErrNoMemory
		}
		for _, f := range list[:pages] {
			frames = append(frames, uint64(f))
		}
		svc.free[attrib.Color] = list[pages:]
		return frames, nil
	}
	for color := 0; color < sal.NumColors && len(frames) < pages; color++ {
		list := svc.free[color]
		for len(list) > 0 && len(frames) < pages {
			frames = append(frames, uint64(list[0]))
			list = list[1:]
		}
		svc.free[color] = list
	}
	if len(frames) < pages {
		svc.putBack(frames)
		return nil, ErrNoMemory
	}
	return frames, nil
}

// takeContiguous takes the lowest run of pages physically contiguous free
// frames: a first-fit scan in ascending frame order, so the frames handed
// out depend only on the allocation history.
func (svc *PhysAddrService) takeContiguous(pages int) ([]uint64, error) {
	run := 0
	for f := svc.first; f < uint64(svc.total); f++ {
		if fr, _ := svc.sys.Phys.Frame(f); fr.InUse {
			run = 0
			continue
		}
		if run++; run < pages {
			continue
		}
		start := f + 1 - uint64(pages)
		frames := make([]uint64, pages)
		for i := range frames {
			frames[i] = start + uint64(i)
		}
		svc.removeFromFree(start, f+1)
		return frames, nil
	}
	return nil, ErrNoMemory
}

// removeFromFree withdraws frames [lo, hi) from the free lists, keeping the
// order of the rest.
func (svc *PhysAddrService) removeFromFree(lo, hi uint64) {
	for color := range svc.free {
		out := svc.free[color][:0]
		for _, f := range svc.free[color] {
			if uint64(f) < lo || uint64(f) >= hi {
				out = append(out, f)
			}
		}
		svc.free[color] = out
	}
}

func (svc *PhysAddrService) putBack(frames []uint64) {
	for _, f := range frames {
		fr, _ := svc.sys.Phys.Frame(f)
		fr.InUse = false
		svc.free[fr.Color] = append(svc.free[fr.Color], uint32(f))
	}
}

// Deallocate returns the capability's memory. The translation service first
// invalidates any mappings to it, so a client cannot keep a usable mapping
// to memory it no longer owns.
func (svc *PhysAddrService) Deallocate(p *PhysAddr) error {
	svc.sys.Clock.Advance(svc.sys.Profile.CrossDomainCall)
	if p == nil || p.dead || !svc.liveCaps[p] {
		return badCap("PhysAddr.T")
	}
	svc.sys.TransSvc.invalidateFrames(p.frames)
	svc.putBack(p.frames)
	svc.inUse -= len(p.frames)
	delete(svc.liveCaps, p)
	p.dead = true
	return nil
}

// Reclaim asks to reclaim the candidate page. Handlers of the
// PhysAddr.Reclaim event may nominate an alternative, which is reclaimed
// instead; any mappings to the reclaimed memory are invalidated. It returns
// the capability actually reclaimed.
func (svc *PhysAddrService) Reclaim(candidate *PhysAddr) (*PhysAddr, error) {
	if candidate == nil || candidate.dead || !svc.liveCaps[candidate] {
		return nil, badCap("PhysAddr.T")
	}
	victim := candidate
	if alt, ok := svc.sys.Disp.Raise(EvReclaim, candidate).(*PhysAddr); ok && alt != nil {
		if !alt.dead && svc.liveCaps[alt] {
			victim = alt
		}
	}
	if err := svc.Deallocate(victim); err != nil {
		return nil, err
	}
	return victim, nil
}

// IsDirty reports whether any frame backing p has been written through a
// mapping — the Table 4 "Dirty" query, a facility the comparison systems do
// not export.
func (svc *PhysAddrService) IsDirty(p *PhysAddr) (bool, error) {
	svc.sys.Clock.Advance(svc.sys.Profile.CrossDomainCall)
	svc.sys.Clock.Advance(svc.sys.Profile.VMQueryCost)
	if p == nil || p.dead {
		return false, badCap("PhysAddr.T")
	}
	for _, f := range p.frames {
		fr, err := svc.sys.Phys.Frame(f)
		if err != nil {
			return false, err
		}
		if fr.Dirty {
			return true, nil
		}
	}
	return false, nil
}

// FreePages reports the number of free frames.
func (svc *PhysAddrService) FreePages() int {
	n := 0
	for color := range svc.free {
		n += len(svc.free[color])
	}
	return n
}

// InUsePages reports the number of allocated frames.
func (svc *PhysAddrService) InUsePages() int { return svc.inUse }
