// Package applegles provides the iOS vendor GLES library of the simulation:
// Apple's PowerVR-flavoured libGLESv2.dylib with the iOS extension set of
// Table 1 and the any-thread policy of §7 ("iOS allows any thread to use a
// GLES context; one thread can create a GLES context and another can use
// it").
//
// Under the native-iOS configuration this library renders directly; under
// Cycada it is never loaded — its symbol surface is what the diplomatic GLES
// bridge must reproduce on top of the Android library.
package applegles

import (
	"strings"

	"cycada/internal/android/libc"
	"cycada/internal/core/callconv"
	"cycada/internal/gles/engine"
	"cycada/internal/gles/registry"
	"cycada/internal/gles/symbols"
	"cycada/internal/linker"
	"cycada/internal/sim/kernel"
)

// LibName is the Apple vendor library name.
const LibName = "libGLESv2.dylib"

// AppleProfile returns the vendor profile of the iPad mini's GLES library.
func AppleProfile() engine.Profile {
	exts := registry.IOSExtensions()
	extFuncs := make(map[string]bool)
	for _, f := range registry.ExtFuncs(exts) {
		extFuncs[f] = true
	}
	return engine.Profile{
		Vendor:     "Apple Inc.",
		Renderer:   "PowerVR SGX 543MP2",
		Versions:   []int{1, 2},
		Extensions: registry.ExtensionNames(exts),
		ExtFuncs:   extFuncs,
		Policy:     engine.PolicyAnyThread,
		Persona:    kernel.PersonaIOS,
	}
}

// VendorLib is one loaded instance of the Apple vendor library.
type VendorLib struct {
	eng    *engine.Lib
	frames map[string]callconv.FrameFn
}

// Engine exposes the typed engine (the native EAGL implementation links
// against it).
func (v *VendorLib) Engine() *engine.Lib { return v.eng }

// FrameSymbols implements linker.FrameInstance: the library's whole GLES
// surface, one typed frame symbol per entry point.
func (v *VendorLib) FrameSymbols() map[string]callconv.FrameFn { return v.frames }

// Finalize implements linker.Finalizer.
func (v *VendorLib) Finalize() { v.eng.Finalize() }

// AppleExtensionString returns the Apple-proprietary extension list the
// modified glGetString parameter reports (the §4.1 data-dependent diplomat
// example).
func AppleExtensionString() string {
	var apple []string
	for _, e := range registry.IOSOnlyExtensions {
		if strings.HasPrefix(e.Name, "GL_APPLE_") {
			apple = append(apple, e.Name)
		}
	}
	return strings.Join(apple, " ")
}

// Blueprint returns the Apple vendor GLES blueprint.
func Blueprint() *linker.Blueprint {
	return &linker.Blueprint{
		Name: LibName,
		Deps: []string{libc.LibName(kernel.PersonaIOS)},
		Size: 3 << 20,
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			libSystem := ctx.Dep(libc.LibName(kernel.PersonaIOS)).(*libc.Lib)
			eng := engine.NewLib(AppleProfile(), libSystem)
			frames := symbols.BuildFrames(eng, registry.IOSSurface(), "APPLE")
			// Apple's modified glGetString accepts the non-standard
			// parameter returning Apple-proprietary extensions (§4.1).
			frameBase := frames["glGetString"]
			frames["glGetString"] = func(t *kernel.Thread, fr *callconv.Frame) any {
				if fr.U32(0) == engine.AppleExtensionsQ {
					return AppleExtensionString()
				}
				return frameBase(t, fr)
			}
			return &VendorLib{eng: eng, frames: frames}, nil
		},
	}
}
