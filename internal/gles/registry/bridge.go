package registry

import (
	"slices"
	"sync"
)

// This file holds the Table 2 classification: how Cycada's diplomatic GLES
// library supports each of the 344 iOS GLES functions. The paper reports
// 312 direct, 15 indirect, 5 data-dependent, 2 multi and 10 unimplemented
// (never called); registry_test.go locks those counts.

// BridgeIndirect lists the 15 functions supported by indirect diplomats:
// small foreign-side wrappers redirecting to similar Android APIs with
// different names (§4.1's APPLE_fence → NV_fence example and friends).
func BridgeIndirect() []string {
	return []string{
		// GL_APPLE_fence mapped onto GL_NV_fence with minor input
		// re-arranging (§4.1).
		"glGenFencesAPPLE", "glDeleteFencesAPPLE", "glSetFenceAPPLE",
		"glIsFenceAPPLE", "glTestFenceAPPLE", "glFinishFenceAPPLE",
		// GL_APPLE_framebuffer_multisample resolved onto plain storage +
		// copies.
		"glRenderbufferStorageMultisampleAPPLE",
		"glResolveMultisampleFramebufferAPPLE",
		// Texture storage and range helpers re-expressed with glTexImage2D.
		"glCopyTextureLevelsAPPLE", "glTexStorage2DEXT", "glTexStorage3DEXT",
		"glTextureStorage2DEXT", "glTextureRangeAPPLE",
		// Buffer-range mapping over GL_OES_mapbuffer.
		"glMapBufferRangeEXT", "glFlushMappedBufferRangeEXT",
	}
}

// BridgeDataDependent lists the 5 functions needing input-dependent logic:
// glGetString's non-standard Apple parameter and the APPLE_row_bytes state
// affecting glPixelStorei and the three pixel-transfer functions (§4.1).
func BridgeDataDependent() []string {
	return []string{
		"glGetString", "glPixelStorei", "glTexImage2D", "glTexSubImage2D",
		"glReadPixels",
	}
}

// BridgeMulti lists the 2 GLES functions requiring multi diplomats: both
// manage IOSurface/GraphicBuffer associations across several Android
// EGL+GLES calls (§6).
func BridgeMulti() []string {
	return []string{"glDeleteTextures", "glEGLImageTargetTexture2DOES"}
}

// BridgeUnimplemented lists the 10 iOS GLES functions the prototype leaves
// unimplemented because no tested app ever calls them.
func BridgeUnimplemented() []string {
	return []string{
		"glFenceSyncAPPLE", "glIsSyncAPPLE", "glDeleteSyncAPPLE",
		"glClientWaitSyncAPPLE", "glWaitSyncAPPLE", "glGetInteger64vAPPLE",
		"glGetSyncivAPPLE", "glTestObjectAPPLE", "glFinishObjectAPPLE",
		"glGetTexParameterPointervAPPLE",
	}
}

// bridgeSpecial returns the set of iOS functions that are NOT direct.
func bridgeSpecial() map[string]bool {
	out := map[string]bool{}
	for _, lists := range [][]string{
		BridgeIndirect(), BridgeDataDependent(), BridgeMulti(), BridgeUnimplemented(),
	} {
		for _, n := range lists {
			out[n] = true
		}
	}
	return out
}

// BridgeDirect lists the 312 functions supported by direct diplomats: every
// iOS GLES function not classified above.
func BridgeDirect() []string { return slices.Clone(bridgeDirect()) }

var bridgeDirect = sync.OnceValue(func() []string {
	special := bridgeSpecial()
	var out []string
	for _, n := range iosSurface() {
		if !special[n] {
			out = append(out, n)
		}
	}
	return out
})

// TegraUnadvertised returns the iOS-surface entry points the Tegra library
// exports without advertising an extension for them. Real vendor libraries
// ship many unadvertised symbols; these are the ones Cycada's direct
// diplomats resolve even though the corresponding extension is missing from
// the Android extension string.
func TegraUnadvertised() []string { return slices.Clone(tegraUnadvertised()) }

var tegraUnadvertised = sync.OnceValue(func() []string {
	android := map[string]bool{}
	for _, n := range androidSurface() {
		android[n] = true
	}
	special := bridgeSpecial()
	var out []string
	for _, n := range iosSurface() {
		if !android[n] && !special[n] {
			out = append(out, n)
		}
	}
	return out
})
