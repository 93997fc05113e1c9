// Package gralloc simulates Android's graphics memory allocator: the gralloc
// kernel driver (an opaque-ioctl device) and the userspace GraphicBuffer
// API on top of it.
//
// GraphicBuffer objects are the Android counterpart of iOS IOSurfaces
// (paper §6): zero-copy graphics memory shared between processes and APIs.
// The package also models the Android limitation the IOSurface lock dance
// works around: a GraphicBuffer cannot be locked for CPU access while it is
// associated with a GLES texture through an EGLImage (§6.2).
package gralloc

import (
	"fmt"
	"sync"

	"cycada/internal/fault"
	"cycada/internal/linker"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// DevicePath is where the gralloc driver registers its ioctl node.
const DevicePath = "/dev/gralloc"

// Opaque ioctl commands ("both the command and the arguments are
// intentionally obfuscated", paper §2). They are exported for the one other
// kernel-side client: LinuxCoreSurface, which allocates IOSurface backing
// memory through the same driver.
const (
	CmdAlloc uint32 = 0xC0DE0001
	CmdFree  uint32 = 0xC0DE0002
)

// ErrLockedBusy is returned when a CPU lock is refused.
var ErrLockedBusy = fmt.Errorf("gralloc: buffer associated with a GLES texture; CPU lock refused")

// Buffer is a GraphicBuffer: zero-copy graphics memory.
//
// Unlike sflinger.Flinger.Screen, Img here is deliberately the live image:
// zero-copy sharing between processes and APIs is the point of a
// GraphicBuffer, and concurrent CPU/GPU access is governed by the
// LockCPU/AssociateTexture protocol below (§6.2) rather than by copying.
type Buffer struct {
	ID     uint64
	W, H   int
	Format gpu.Format
	Img    *gpu.Image

	mu        sync.Mutex
	cpuLocked bool
	texBound  int // EGLImage-to-texture associations
	freed     bool
}

// LockCPU locks the buffer for CPU-only access. It fails while the buffer is
// associated with a GLES texture — the Android API limitation of §6.2.
func (b *Buffer) LockCPU() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return fmt.Errorf("gralloc: lock of freed buffer %d", b.ID)
	}
	if b.texBound > 0 {
		return fmt.Errorf("buffer %d: %w", b.ID, ErrLockedBusy)
	}
	if b.cpuLocked {
		return fmt.Errorf("gralloc: buffer %d already locked", b.ID)
	}
	b.cpuLocked = true
	return nil
}

// UnlockCPU releases a CPU lock.
func (b *Buffer) UnlockCPU() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.cpuLocked {
		return fmt.Errorf("gralloc: buffer %d not locked", b.ID)
	}
	b.cpuLocked = false
	return nil
}

// CPULocked reports whether the buffer is currently CPU-locked.
func (b *Buffer) CPULocked() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cpuLocked
}

// AssociateTexture records an EGLImage-to-texture association. The EGL
// library calls this when an EGLImage wrapping the buffer is created.
func (b *Buffer) AssociateTexture() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.texBound++
}

// DisassociateTexture removes an association (EGLImage destroyed).
func (b *Buffer) DisassociateTexture() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.texBound > 0 {
		b.texBound--
	}
}

// TextureAssociated reports whether any GLES texture references the buffer.
func (b *Buffer) TextureAssociated() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.texBound > 0
}

// Device is the gralloc kernel driver.
type Device struct {
	mu     sync.Mutex
	nextID uint64
	bufs   map[uint64]*Buffer
}

// NewDevice creates the driver; register it with
// kernel.RegisterDevice(DevicePath, dev).
func NewDevice() *Device {
	return &Device{bufs: map[uint64]*Buffer{}}
}

// AllocRequest is the CmdAlloc payload.
type AllocRequest struct {
	W, H   int
	Format gpu.Format
}

// Ioctl implements kernel.Device with the opaque command set.
func (d *Device) Ioctl(t *kernel.Thread, cmd uint32, arg any) (any, error) {
	switch cmd {
	case CmdAlloc:
		req, ok := arg.(AllocRequest)
		if !ok {
			return nil, fmt.Errorf("gralloc: bad alloc request %T", arg)
		}
		if req.W <= 0 || req.H <= 0 {
			return nil, fmt.Errorf("gralloc: invalid size %dx%d", req.W, req.H)
		}
		if inj := t.Faults(); inj != nil {
			if err := inj.Fail(fault.PointGralloc); err != nil {
				t.SetErrno(int(kernel.ENOMEM))
				return nil, fmt.Errorf("gralloc alloc %dx%d: %w", req.W, req.H, err)
			}
		}
		d.mu.Lock()
		d.nextID++
		b := &Buffer{ID: d.nextID, W: req.W, H: req.H, Format: req.Format, Img: gpu.NewImage(req.W, req.H)}
		d.bufs[b.ID] = b
		d.mu.Unlock()
		t.ChargeCPU(vclock.Duration(req.W*req.H/1024) * t.Costs().PageMap)
		return b, nil
	case CmdFree:
		id, ok := arg.(uint64)
		if !ok {
			return nil, fmt.Errorf("gralloc: bad free request %T", arg)
		}
		return nil, d.Free(id)
	default:
		return nil, fmt.Errorf("gralloc: unknown ioctl %#x", cmd)
	}
}

// Free releases buffer id: the driver side of CmdFree, which
// LinuxCoreSurface also calls directly when it reclaims the surfaces of an
// app that is gone.
func (d *Device) Free(id uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.bufs[id]
	if !ok {
		return fmt.Errorf("gralloc: free of unknown buffer %d", id)
	}
	b.mu.Lock()
	b.freed = true
	b.mu.Unlock()
	delete(d.bufs, id)
	return nil
}

// Live reports the number of live buffers (leak tests).
func (d *Device) Live() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.bufs)
}

// Lib is the userspace GraphicBuffer library.
type Lib struct{}

// Alloc allocates a GraphicBuffer through the driver.
func (l *Lib) Alloc(t *kernel.Thread, w, h int, format gpu.Format) (*Buffer, error) {
	r, err := t.Ioctl(DevicePath, CmdAlloc, AllocRequest{W: w, H: h, Format: format})
	if err != nil {
		return nil, fmt.Errorf("gralloc alloc: %w", err)
	}
	return r.(*Buffer), nil
}

// Free releases a GraphicBuffer.
func (l *Lib) Free(t *kernel.Thread, b *Buffer) error {
	if _, err := t.Ioctl(DevicePath, CmdFree, b.ID); err != nil {
		return fmt.Errorf("gralloc free: %w", err)
	}
	return nil
}

// Symbols implements linker.Instance.
func (l *Lib) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		"gralloc_alloc": func(t *kernel.Thread, args ...any) any {
			b, err := l.Alloc(t, args[0].(int), args[1].(int), args[2].(gpu.Format))
			if err != nil {
				return nil
			}
			return b
		},
		"gralloc_free": func(t *kernel.Thread, args ...any) any {
			if err := l.Free(t, args[0].(*Buffer)); err != nil {
				return 1
			}
			return 0
		},
	}
}

// LibName is the gralloc module's library name.
const LibName = "gralloc.tegra.so"

// Blueprint returns the linker blueprint for the gralloc library.
func Blueprint() *linker.Blueprint {
	return &linker.Blueprint{
		Name: LibName,
		Deps: []string{"libc.so"},
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			return &Lib{}, nil
		},
	}
}
