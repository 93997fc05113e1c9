// Package coresurface implements LinuxCoreSurface — the paper's
// reverse-engineered reimplementation of the iOS IOCoreSurface kernel
// framework inside the Android Linux kernel (§6, Figure 3). It registers
// under the same Mach service name the iOS IOSurface library talks to, and
// backs every IOSurface with an Android GraphicBuffer allocated from the
// gralloc driver, so surfaces stay zero-copy sharable with Android GLES.
package coresurface

import (
	"fmt"
	"sync"

	"cycada/internal/android/gralloc"
	"cycada/internal/ios/iokit"
	"cycada/internal/sim/kernel"
)

// Module is the LinuxCoreSurface kernel module.
type Module struct {
	dev string // gralloc device path

	mu     sync.Mutex
	nextID uint64
	surfs  map[uint64]*gralloc.Buffer
}

// New creates the module; register it with
// kernel.RegisterMachService(iokit.CoreSurfaceService, m) on the Cycada
// kernel.
func New() *Module {
	return &Module{dev: gralloc.DevicePath, surfs: map[uint64]*gralloc.Buffer{}}
}

// Buffer returns the GraphicBuffer backing a surface. Cycada's userspace
// IOSurfaceCreate interposition uses it to connect the surface to the
// Android-side buffer management (§6.1).
func (m *Module) Buffer(id uint64) (*gralloc.Buffer, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.surfs[id]
	return b, ok
}

// Reclaim frees every surface still registered, with its backing buffer
// on dev. A kernel frees the surfaces of a process that exits without
// releasing them; a stack recycled between sessions calls this once the
// app is gone, so surfaces do not pile up from one session to the next.
// It charges no virtual time.
func (m *Module) Reclaim(dev *gralloc.Device) {
	m.mu.Lock()
	surfs := m.surfs
	m.surfs = map[uint64]*gralloc.Buffer{}
	m.mu.Unlock()
	for _, buf := range surfs {
		// A registered surface's buffer is live: only its own release,
		// which unregistered it first, frees it.
		_ = dev.Free(buf.ID)
	}
}

// Live reports live surfaces (leak tests).
func (m *Module) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.surfs)
}

// MachCall implements kernel.MachService with the IOCoreSurface message set.
func (m *Module) MachCall(t *kernel.Thread, msgID uint32, body any) (any, error) {
	switch msgID {
	case iokit.MsgSurfaceCreate:
		req, ok := body.(iokit.CreateRequest)
		if !ok {
			return nil, fmt.Errorf("LinuxCoreSurface: bad create body %T", body)
		}
		// Allocate the backing GraphicBuffer through the gralloc driver —
		// the same allocation path Android's own graphics memory uses.
		r, err := t.Ioctl(m.dev, gralloc.CmdAlloc, gralloc.AllocRequest{W: req.W, H: req.H, Format: req.Format})
		if err != nil {
			return nil, fmt.Errorf("LinuxCoreSurface: backing allocation: %w", err)
		}
		buf := r.(*gralloc.Buffer)
		m.mu.Lock()
		m.nextID++
		id := m.nextID
		m.surfs[id] = buf
		m.mu.Unlock()
		return iokit.CreateReply{ID: id, Img: buf.Img}, nil

	case iokit.MsgSurfaceLock:
		buf, err := m.lookup(body)
		if err != nil {
			return nil, err
		}
		// The CPU lock fails while the buffer is associated with a GLES
		// texture — the Android limitation Cycada's multi diplomats must
		// dance around before this call (§6.2).
		if err := buf.LockCPU(); err != nil {
			return nil, fmt.Errorf("LinuxCoreSurface: %w", err)
		}
		return nil, nil

	case iokit.MsgSurfaceUnlock:
		buf, err := m.lookup(body)
		if err != nil {
			return nil, err
		}
		return nil, buf.UnlockCPU()

	case iokit.MsgSurfaceRelease:
		id, ok := body.(uint64)
		if !ok {
			return nil, fmt.Errorf("LinuxCoreSurface: bad release body %T", body)
		}
		m.mu.Lock()
		buf, ok := m.surfs[id]
		if ok {
			delete(m.surfs, id)
		}
		m.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("LinuxCoreSurface: release of unknown surface %d", id)
		}
		if _, err := t.Ioctl(m.dev, gralloc.CmdFree, buf.ID); err != nil {
			return nil, fmt.Errorf("LinuxCoreSurface: freeing backing buffer: %w", err)
		}
		return nil, nil

	default:
		return nil, fmt.Errorf("LinuxCoreSurface: unknown message %#x", msgID)
	}
}

func (m *Module) lookup(body any) (*gralloc.Buffer, error) {
	id, ok := body.(uint64)
	if !ok {
		return nil, fmt.Errorf("LinuxCoreSurface: bad surface id %T", body)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	buf, ok := m.surfs[id]
	if !ok {
		return nil, fmt.Errorf("LinuxCoreSurface: unknown surface %d", id)
	}
	return buf, nil
}
