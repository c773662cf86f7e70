package sal

import "fmt"

// Frame records the hardware-visible state of one physical page frame.
type Frame struct {
	// Dirty is set when the frame is written through a mapping. The SPIN
	// "Dirty" benchmark (Table 4) queries this — a facility neither DEC
	// OSF/1 nor Mach exported.
	Dirty bool
	// Referenced is set on any access.
	Referenced bool
	// InUse marks frames handed out by the physical allocator.
	InUse bool
	// Color is the frame's cache color (frame number modulo the number
	// of page-sized cache bins), used by allocation attributes. NumColors
	// fits a byte, which keeps a Frame at 4 bytes.
	Color uint8
}

// NumColors is the number of page colors implied by the machine's 512 KB
// direct-mapped external cache and 8 KB pages.
const NumColors = 64

// PhysMem is the machine's physical page-frame array.
type PhysMem struct {
	frames []Frame
}

// NewPhysMem returns physical memory of size bytes (rounded down to whole
// frames). The paper's machines had 64 MB.
func NewPhysMem(size int64) *PhysMem {
	n := size / PageSize
	pm := &PhysMem{frames: make([]Frame, n)}
	for i := range pm.frames {
		pm.frames[i].Color = uint8(i % NumColors)
	}
	return pm
}

// NumFrames reports the total number of frames.
func (pm *PhysMem) NumFrames() int { return len(pm.frames) }

// Frame returns a pointer to frame f's state.
func (pm *PhysMem) Frame(f uint64) (*Frame, error) {
	if f >= uint64(len(pm.frames)) {
		return nil, fmt.Errorf("sal: frame %d out of range (%d frames)", f, len(pm.frames))
	}
	return &pm.frames[f], nil
}

// Touch records an access to frame f; write marks it dirty.
func (pm *PhysMem) Touch(f uint64, write bool) error {
	fr, err := pm.Frame(f)
	if err != nil {
		return err
	}
	fr.Referenced = true
	if write {
		fr.Dirty = true
	}
	return nil
}
