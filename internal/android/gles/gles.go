// Package gles provides the Android vendor GLES library of the simulation:
// the NVIDIA-Tegra-flavoured libGLESv2_tegra.so from the paper's Nexus 7
// testbed, with the Android extension set of Table 1, the creator-only
// threading policy of §7, and the libnvrm/libnvos dependency chain §8.1 uses
// as its DLR example.
package gles

import (
	"cycada/internal/android/libc"
	"cycada/internal/core/callconv"
	"cycada/internal/gles/engine"
	"cycada/internal/gles/registry"
	"cycada/internal/gles/symbols"
	"cycada/internal/linker"
	"cycada/internal/sim/kernel"
)

// Library names from the paper.
const (
	LibName  = "libGLESv2_tegra.so"
	NVRMName = "libnvrm.so"
	NVOSName = "libnvos.so"
)

// TegraProfile returns the vendor profile of the Nexus 7's GLES library.
func TegraProfile() engine.Profile {
	exts := registry.AndroidExtensions()
	extFuncs := make(map[string]bool)
	for _, f := range registry.ExtFuncs(exts) {
		extFuncs[f] = true
	}
	return engine.Profile{
		Vendor:     "NVIDIA Corporation",
		Renderer:   "NVIDIA Tegra 3",
		Versions:   []int{1, 2},
		Extensions: registry.ExtensionNames(exts),
		ExtFuncs:   extFuncs,
		Policy:     engine.PolicyCreatorOnly,
		Persona:    kernel.PersonaAndroid,
	}
}

// VendorLib is one loaded instance of the vendor library.
type VendorLib struct {
	eng    *engine.Lib
	frames map[string]callconv.FrameFn
}

// Engine exposes the typed GLES engine behind the symbol surface; the EGL
// vendor library and libui_wrapper use it directly (they link against the
// vendor library rather than dlsym-ing every call).
func (v *VendorLib) Engine() *engine.Lib { return v.eng }

// FrameSymbols implements linker.FrameInstance: the library's whole GLES
// surface, one typed frame symbol per entry point.
func (v *VendorLib) FrameSymbols() map[string]callconv.FrameFn { return v.frames }

// Finalize implements linker.Finalizer: replica teardown releases the
// library's TLS key.
func (v *VendorLib) Finalize() { v.eng.Finalize() }

// Blueprint returns the vendor GLES library blueprint. Its dependency chain
// (libnvrm.so -> libnvos.so) matches the paper's DLR example: each replica
// of libGLESv2_tegra.so links against privately loaded copies of both.
func Blueprint() *linker.Blueprint {
	return &linker.Blueprint{
		Name: LibName,
		Deps: []string{NVRMName, "libc.so"},
		Size: 2 << 20,
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			bionic := ctx.Dep("libc.so").(*libc.Lib)
			eng := engine.NewLib(TegraProfile(), bionic)
			// The exported surface is the Android platform surface plus the
			// unadvertised entry points Cycada's direct diplomats rely on
			// (registry.TegraUnadvertised; real vendor libraries ship many
			// symbols beyond their advertised extensions).
			surface := append(registry.AndroidSurface(), registry.TegraUnadvertised()...)
			return &VendorLib{
				eng:    eng,
				frames: symbols.BuildFrames(eng, surface, "NV"),
			}, nil
		},
	}
}

// nvLib is a proprietary NVIDIA support library: private per-replica state
// that the DLR tests observe.
type nvLib struct {
	name  string
	state map[string]any
}

func (n *nvLib) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		n.name + "_set": func(t *kernel.Thread, args ...any) any {
			n.state[args[0].(string)] = args[1]
			return 0
		},
		n.name + "_get": func(t *kernel.Thread, args ...any) any {
			return n.state[args[0].(string)]
		},
	}
}

// SupportBlueprints returns the libnvrm.so and libnvos.so blueprints.
func SupportBlueprints() []*linker.Blueprint {
	return []*linker.Blueprint{
		{
			Name: NVRMName,
			Deps: []string{NVOSName},
			New: func(ctx *linker.LoadContext) (linker.Instance, error) {
				return &nvLib{name: "nvrm", state: map[string]any{}}, nil
			},
		},
		{
			Name: NVOSName,
			Deps: []string{"libc.so"},
			New: func(ctx *linker.LoadContext) (linker.Instance, error) {
				return &nvLib{name: "nvos", state: map[string]any{}}, nil
			},
		},
	}
}
