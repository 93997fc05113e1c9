// Package glesbridge implements Cycada's diplomatic GLES library (§4): the
// complete 344-function iOS GLES surface (standard + Apple extension entry
// points) implemented over the Android vendor GLES library through the four
// diplomat usage patterns. In a Cycada process this library is registered
// under Apple's library name, so unmodified iOS app code that dlopens
// libGLESv2.dylib and resolves glDrawArrays gets a diplomat instead of
// Apple's driver — the binary-compatibility mechanism of the paper.
//
// Classification (locked to Table 2 by registry and tests):
//
//	direct          312  same-name invocation of the Tegra library
//	indirect         15  renamed/re-arranged (APPLE_fence → NV_fence, …)
//	data-dependent    5  input-dependent logic (glGetString, APPLE_row_bytes)
//	multi             2  coalesced through libEGLbridge (IOSurface management)
//	unimplemented    10  never called by any tested app
package glesbridge

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cycada/internal/core/callconv"
	"cycada/internal/core/diplomat"
	"cycada/internal/gles/engine"
	"cycada/internal/gles/registry"
	"cycada/internal/ios/applegles"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/replay/tap"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// LibName: the bridge impersonates Apple's GLES library by name.
const LibName = applegles.LibName

// Config assembles the bridge.
type Config struct {
	// Diplomat carries personas, linker, hooks and profiler. Its LibraryFor
	// must route to the thread's replica (or the global Android GLES).
	Diplomat diplomat.Config
	// EGLBridge is the loaded libEGLbridge handle the two multi diplomats
	// resolve against.
	EGLBridge *linker.Handle
}

// Bridge is the loaded diplomatic GLES library.
type Bridge struct {
	lib *diplomat.Library

	// frameSyms is the exported surface: one closure per diplomat.
	frameSyms map[string]callconv.FrameFn

	// tap, when set, observes every successful diplomatic call (record/
	// replay capture). One atomic load on the hot path when unset.
	tap atomic.Pointer[tapBox]

	// crossings counts persona-boundary windows opened (one per serial call,
	// one per batch flush) and batchedCalls the calls that rode in batches —
	// the numerator/denominator of the crossings-per-frame metric.
	crossings    atomic.Uint64
	batchedCalls atomic.Uint64
	// batchHist records the flushed batch sizes (frame-health telemetry for
	// the batch-size sweep); gated by its registry like all histograms.
	batchHist *obs.Histogram

	mu             sync.Mutex
	unpackRowBytes int // APPLE_row_bytes state, managed foreign-side (§4.1)
	packRowBytes   int
}

type tapBox struct{ t tap.Tap }

// SetTap installs (nil removes) the boundary tap. Failed calls — those whose
// result is a non-nil error — are not reported: they had no effect worth
// replaying.
func (b *Bridge) SetTap(t tap.Tap) {
	if t == nil {
		b.tap.Store(nil)
		return
	}
	b.tap.Store(&tapBox{t: t})
}

// invokeFrame runs one diplomat and reports it to the tap on success. The
// boxed []any view is materialized lazily — only when the record/replay tap
// is active; with the tap off a direct call completes without a single heap
// allocation.
func (b *Bridge) invokeFrame(t *kernel.Thread, d *diplomat.Diplomat, fr *callconv.Frame) any {
	b.crossings.Add(1)
	ret := d.CallFrame(t, fr)
	if box := b.tap.Load(); box != nil {
		if err, failed := ret.(error); !failed || err == nil {
			box.t.Call(t, tap.GLES, d.Name, fr.Args(), ret)
		}
	}
	return ret
}

// New builds all 344 diplomats.
func New(cfg Config) (*Bridge, error) {
	if cfg.EGLBridge == nil {
		return nil, fmt.Errorf("glesbridge: missing libEGLbridge handle")
	}
	lib, err := diplomat.NewLibrary(cfg.Diplomat)
	if err != nil {
		return nil, err
	}
	b := &Bridge{
		lib:       lib,
		frameSyms: make(map[string]callconv.FrameFn, 344),
		batchHist: cfg.Diplomat.Linker.Proc().Kernel().
			Histograms().Histogram(BatchHistName),
	}
	// add exports a diplomat the library just added.
	add := func(d *diplomat.Diplomat, err error) error {
		if err != nil {
			return err
		}
		b.frameSyms[d.Name] = func(t *kernel.Thread, fr *callconv.Frame) any {
			return b.invokeFrame(t, d, fr)
		}
		return nil
	}

	for _, name := range registry.BridgeIndirect() {
		w, ok := b.indirectWrapper(name)
		if !ok {
			return nil, fmt.Errorf("glesbridge: no indirect mapping for %s", name)
		}
		if err := add(lib.Add(name, diplomat.Indirect, w)); err != nil {
			return nil, err
		}
	}
	for _, name := range registry.BridgeDataDependent() {
		w, ok := b.dataDependentWrapper(name)
		if !ok {
			return nil, fmt.Errorf("glesbridge: no data-dependent logic for %s", name)
		}
		if err := add(lib.Add(name, diplomat.DataDependent, w)); err != nil {
			return nil, err
		}
	}
	// The two multi diplomats coalesce into libEGLbridge (§6).
	if err := add(lib.AddMulti("glDeleteTextures", "aegl_bridge_delete_textures", cfg.EGLBridge)); err != nil {
		return nil, err
	}
	if err := add(lib.AddMulti("glEGLImageTargetTexture2DOES", "aegl_bridge_bind_surface_tex", cfg.EGLBridge)); err != nil {
		return nil, err
	}
	for _, name := range registry.BridgeUnimplemented() {
		if err := add(lib.Add(name, diplomat.Unimplemented, nil)); err != nil {
			return nil, err
		}
	}
	for _, name := range registry.BridgeDirect() {
		if _, dup := lib.Get(name); dup {
			continue
		}
		if err := add(lib.Add(name, diplomat.Direct, nil)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Library returns the bridge's diplomatic library: its census is Table 2.
func (b *Bridge) Library() *diplomat.Library { return b.lib }

// Call invokes a bridged function by name with a boxed argument list (trace
// replay, app code calling by name). The diplomat is found through the
// intern table plus a slice index; the list is framed once and takes the
// same path as a linked frame call. A list no frame can carry sets errno
// EINVAL and returns the bridge's invalid-arguments error.
func (b *Bridge) Call(t *kernel.Thread, name string, args ...any) any {
	id, _ := callconv.LookupID(name)
	d := b.lib.ByID(id)
	if d == nil {
		return fmt.Errorf("glesbridge: %s is not an iOS GLES function", name)
	}
	fr, err := callconv.FrameArgs(t, id, args)
	if err != nil {
		return fmt.Errorf("%w: %s: %w", kernelEINVAL, name, err)
	}
	ret := b.invokeFrame(t, d, fr)
	fr.Release()
	return ret
}

// BatchHistName names the flushed-batch-size histogram in the kernel's
// histogram registry. Samples are batch lengths, not durations.
const BatchHistName = "gles-batch-size"

// CallBatch implements callconv.BatchDispatcher through the library's
// Dispatch: the whole batch runs in append order inside one impersonation
// window on the batch's owner thread. When the window cannot be opened (an
// injected batch_flush fault), each frame crosses in its own window — same
// calls, same order, same results, just without the amortization. The
// error follows the serial rule either way, the first error in append
// order, so the fault is transparent to everything above the bridge.
// Frames stay owned by the batch; the caller releases them via
// Batch.Release after this returns.
func (b *Bridge) CallBatch(t *kernel.Thread, batch *callconv.Batch) error {
	// The tap, when active, observes each frame as its own logical call in
	// append order — record/replay sees a call stream identical to serial
	// execution, which is what keeps golden traces byte-identical.
	var after func(fr *callconv.Frame, ret any)
	if box := b.tap.Load(); box != nil {
		after = func(fr *callconv.Frame, ret any) {
			box.t.Call(t, tap.GLES, callconv.Name(fr.ID()), fr.Args(), ret)
		}
	}
	windowed, err := b.lib.Dispatch(t, batch, after)
	if !windowed {
		b.crossings.Add(uint64(batch.Len()))
		return err
	}
	b.crossings.Add(1)
	b.batchedCalls.Add(uint64(batch.Len()))
	b.batchHist.Observe(t.TID(), vclock.Duration(batch.Len()))
	t.FlightRecord(obs.FlightSpan, obs.CatBatch, "gles:batch_flush", int64(batch.Len()))
	return err
}

// Crossings reports how many persona-boundary windows the bridge has opened:
// one per serial call plus one per batch flush. The batching win is this
// number falling while the logical call count stays fixed.
func (b *Bridge) Crossings() uint64 { return b.crossings.Load() }

// BatchedCalls reports how many logical calls were dispatched inside batch
// windows.
func (b *Bridge) BatchedCalls() uint64 { return b.batchedCalls.Load() }

// FrameSymbols implements linker.FrameInstance: the full iOS GLES surface,
// built once in New. Every bridged function takes a frame; wrapper kinds
// read its []any view, direct kinds carry it through to the vendor library
// untouched.
func (b *Bridge) FrameSymbols() map[string]callconv.FrameFn { return b.frameSyms }

// Blueprint returns the bridge's blueprint under Apple's library name; the
// Cycada system registers it instead of the Apple vendor library.
func Blueprint(b *Bridge) *linker.Blueprint {
	return &linker.Blueprint{
		Name: LibName,
		Deps: []string{"libSystem.dylib"},
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			return b, nil
		},
	}
}

// --- Indirect diplomats (§4.1) ---

// fenceRename maps the APPLE_fence surface onto NV_fence, "perform[ing]
// minor input re-arranging within each APPLE_fence API before calling into a
// corresponding Android GLES NV_fence API."
var fenceRename = map[string]string{
	"glGenFencesAPPLE":    "glGenFencesNV",
	"glDeleteFencesAPPLE": "glDeleteFencesNV",
	"glSetFenceAPPLE":     "glSetFenceNV",
	"glIsFenceAPPLE":      "glIsFenceNV",
	"glTestFenceAPPLE":    "glTestFenceNV",
	"glFinishFenceAPPLE":  "glFinishFenceNV",
}

func (b *Bridge) indirectWrapper(name string) (diplomat.Wrapper, bool) {
	if nv, ok := fenceRename[name]; ok {
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			return domestic(nv, args...)
		}, true
	}
	switch name {
	case "glRenderbufferStorageMultisampleAPPLE":
		// (samples, w, h) -> plain storage; the Tegra GPU resolves nothing.
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			if len(args) < 3 {
				return kernelEINVAL
			}
			return domestic("glRenderbufferStorage", args[1], args[2])
		}, true
	case "glResolveMultisampleFramebufferAPPLE":
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			return domestic("glFlush")
		}, true
	case "glCopyTextureLevelsAPPLE":
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			return domestic("glCopyTexSubImage2D", args...)
		}, true
	case "glTexStorage2DEXT", "glTexStorage3DEXT":
		// (levels, format, w, h[, depth]) -> immutable storage becomes a
		// plain allocation of the base level.
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			if len(args) < 4 {
				return kernelEINVAL
			}
			return domestic("glTexImage2D", args[2], args[3], args[1], []byte(nil))
		}, true
	case "glTextureStorage2DEXT":
		// (texture, levels, format, w, h): direct-state access split into a
		// bind plus an allocation.
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			if len(args) < 5 {
				return kernelEINVAL
			}
			// The intermediate bind can fail (missing symbol, persona
			// error); allocating storage against whatever texture was bound
			// before would corrupt it, so the error must surface.
			if err, ok := domestic("glBindTexture", engine.Texture2D, args[0]).(error); ok && err != nil {
				return err
			}
			return domestic("glTexImage2D", args[3], args[4], args[2], []byte(nil))
		}, true
	case "glTextureRangeAPPLE":
		// A storage hint: re-expressed as a texture parameter.
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			return domestic("glTexParameteri", uint32(0), 0)
		}, true
	case "glMapBufferRangeEXT":
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			return domestic("glMapBufferOES", args...)
		}, true
	case "glFlushMappedBufferRangeEXT":
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			return domestic("glUnmapBufferOES", args...)
		}, true
	default:
		return nil, false
	}
}

// kernelEINVAL is the error diplomats return for malformed foreign calls.
var kernelEINVAL = fmt.Errorf("glesbridge: invalid arguments")

// --- Data-dependent diplomats (§4.1) ---

func (b *Bridge) dataDependentWrapper(name string) (diplomat.Wrapper, bool) {
	switch name {
	case "glGetString":
		// Apple modified glGetString "to accept a non-standard parameter
		// name, unknown in Android … Cycada uses a data-dependent
		// glGetString diplomat that interprets the input parameter and
		// either calls the Android function, or returns a custom string
		// indicating that no Apple-proprietary extensions are available."
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			if len(args) == 1 {
				if q, ok := args[0].(uint32); ok && q == engine.AppleExtensionsQ {
					return ""
				}
			}
			return domestic("glGetString", args...)
		}, true
	case "glPixelStorei":
		// The APPLE_row_bytes parameters maintain foreign-side state; the
		// Android library would reject them with GL_INVALID_ENUM.
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			if len(args) == 2 {
				if pname, ok := args[0].(uint32); ok {
					val, _ := args[1].(int)
					switch pname {
					case engine.UnpackRowBytesApple:
						b.mu.Lock()
						b.unpackRowBytes = val
						b.mu.Unlock()
						return nil
					case engine.PackRowBytesApple:
						b.mu.Lock()
						b.packRowBytes = val
						b.mu.Unlock()
						return nil
					}
				}
			}
			return domestic("glPixelStorei", args...)
		}, true
	case "glTexImage2D":
		// Facade signature: (w, h, format, data).
		return b.rowBytesUpload("glTexImage2D", 0, 1, 3), true
	case "glTexSubImage2D":
		// Facade signature: (x, y, w, h, format, data).
		return b.rowBytesUpload("glTexSubImage2D", 2, 3, 5), true
	case "glReadPixels":
		// "when the APPLE_row_bytes extension is being used, Cycada reads in
		// and writes out the packed data manually."
		return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
			ret := domestic("glReadPixels", args...)
			b.mu.Lock()
			stride := b.packRowBytes
			b.mu.Unlock()
			data, ok := ret.([]byte)
			if !ok || stride == 0 || len(args) < 4 {
				return ret
			}
			w, _ := args[2].(int)
			h, _ := args[3].(int)
			rowLen := w * 4
			if stride <= rowLen || w <= 0 || h <= 0 || len(data) < rowLen*h {
				return ret
			}
			// Expand tight rows out to the app's requested row stride.
			out := make([]byte, stride*h)
			for row := 0; row < h; row++ {
				copy(out[row*stride:], data[row*rowLen:(row+1)*rowLen])
			}
			t.ChargeCPU(vclock.Duration(len(out)) * t.Costs().PerTexelUpload / 4)
			return out
		}, true
	default:
		return nil, false
	}
}

// rowBytesUpload builds the upload-side APPLE_row_bytes handler: when row
// bytes are set, pixel rows are manually repacked from the app's stride to
// tight rows before the Android upload.
func (b *Bridge) rowBytesUpload(name string, wIdx, hIdx, dataIdx int) diplomat.Wrapper {
	return func(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
		b.mu.Lock()
		stride := b.unpackRowBytes
		b.mu.Unlock()
		if stride == 0 || len(args) <= dataIdx {
			return domestic(name, args...)
		}
		last := dataIdx
		data, ok := args[last].([]byte)
		if !ok || data == nil {
			return domestic(name, args...)
		}
		w, _ := args[wIdx].(int)
		h, _ := args[hIdx].(int)
		rowLen := w * 4
		if stride <= rowLen || w <= 0 || h <= 0 || len(data) < stride*(h-1)+rowLen {
			return domestic(name, args...)
		}
		packed := make([]byte, rowLen*h)
		for row := 0; row < h; row++ {
			copy(packed[row*rowLen:], data[row*stride:row*stride+rowLen])
		}
		t.ChargeCPU(vclock.Duration(len(packed)) * t.Costs().PerTexelUpload / 4)
		repacked := append([]any(nil), args...)
		repacked[last] = packed
		return domestic(name, repacked...)
	}
}
