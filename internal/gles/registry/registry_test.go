package registry

import (
	"slices"
	"testing"
)

// TestTable1Census locks every number of the paper's Table 1.
func TestTable1Census(t *testing.T) {
	if got := len(GLES1Standard()); got != 145 {
		t.Errorf("GLES1 standard functions = %d, want 145", got)
	}
	if got := len(GLES2Standard()); got != 142 {
		t.Errorf("GLES2 standard functions = %d, want 142", got)
	}
	if got := CountFuncs(IOSExtensions()); got != 94 {
		t.Errorf("iOS extension functions = %d, want 94", got)
	}
	if got := CountFuncs(AndroidExtensions()); got != 42 {
		t.Errorf("Android extension functions = %d, want 42", got)
	}
	if got := CountFuncs(KhronosExtensions()); got != 285 {
		t.Errorf("Khronos extension functions = %d, want 285", got)
	}
	if got := CountFuncs(CommonExtensions); got != 27 {
		t.Errorf("common extension functions = %d, want 27", got)
	}
	if got := len(IOSExtensions()); got != 50 {
		t.Errorf("iOS extensions = %d, want 50", got)
	}
	if got := len(AndroidExtensions()); got != 60 {
		t.Errorf("Android extensions = %d, want 60", got)
	}
	if got := len(KhronosExtensions()); got != 174 {
		t.Errorf("Khronos extensions = %d, want 174", got)
	}
	if got := len(IOSOnlyExtensions); got != 33 {
		t.Errorf("extensions not in Android = %d, want 33", got)
	}
	if got := len(AndroidOnlyExtensions); got != 43 {
		t.Errorf("extensions not in iOS = %d, want 43", got)
	}
}

// TestTable2Total locks the 344-function iOS GLES surface Table 2 covers.
func TestTable2Total(t *testing.T) {
	if got := len(StandardUnion()); got != 250 {
		t.Errorf("distinct standard functions = %d, want 250 (37 shared)", got)
	}
	if got := len(SharedStandard); got != 37 {
		t.Errorf("shared standard functions = %d, want 37", got)
	}
	if got := len(IOSSurface()); got != 344 {
		t.Errorf("iOS GLES surface = %d functions, want 344", got)
	}
}

// TestTable2Classification locks the diplomat-kind census of Table 2.
func TestTable2Classification(t *testing.T) {
	if got := len(BridgeDirect()); got != 312 {
		t.Errorf("direct diplomats = %d, want 312", got)
	}
	if got := len(BridgeIndirect()); got != 15 {
		t.Errorf("indirect diplomats = %d, want 15", got)
	}
	if got := len(BridgeDataDependent()); got != 5 {
		t.Errorf("data-dependent diplomats = %d, want 5", got)
	}
	if got := len(BridgeMulti()); got != 2 {
		t.Errorf("multi diplomats = %d, want 2", got)
	}
	if got := len(BridgeUnimplemented()); got != 10 {
		t.Errorf("unimplemented = %d, want 10", got)
	}
	// Every specially-classified function must exist in the iOS surface.
	surface := map[string]bool{}
	for _, n := range IOSSurface() {
		surface[n] = true
	}
	for _, lists := range [][]string{BridgeIndirect(), BridgeDataDependent(), BridgeMulti(), BridgeUnimplemented()} {
		for _, n := range lists {
			if !surface[n] {
				t.Errorf("classified function %q not in the iOS surface", n)
			}
		}
	}
	// Unadvertised Tegra symbols + Android surface must cover every direct
	// diplomat's target name.
	covered := map[string]bool{}
	for _, n := range AndroidSurface() {
		covered[n] = true
	}
	for _, n := range TegraUnadvertised() {
		covered[n] = true
	}
	for _, n := range BridgeDirect() {
		if !covered[n] {
			t.Errorf("direct diplomat %q has no Tegra symbol to resolve", n)
		}
	}
}

// TestBatchableSubsetOfDirect locks the batchability classification's first
// criterion: every batchable function must be bridged by a direct diplomat.
// Wrapper-kind and multi diplomats run per-call foreign-side logic, so letting
// one into a batch would change observable behavior.
func TestBatchableSubsetOfDirect(t *testing.T) {
	direct := map[string]bool{}
	for _, n := range BridgeDirect() {
		direct[n] = true
	}
	seen := map[string]bool{}
	for _, n := range BridgeBatchable() {
		if !direct[n] {
			t.Errorf("batchable function %q is not a direct diplomat", n)
		}
		if seen[n] {
			t.Errorf("batchable list duplicates %q", n)
		}
		seen[n] = true
	}
	// The known non-batchable families must stay off the list.
	for _, n := range []string{"glGetError", "glGenTextures", "glFlush", "glFinish", "glBufferData", "glDeleteTextures", "glReadPixels"} {
		if seen[n] {
			t.Errorf("%q must not be batchable", n)
		}
	}
}

func TestNoDuplicateNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		list []string
	}{
		{"gles1", GLES1Standard()},
		{"gles2", GLES2Standard()},
		{"ios-surface", IOSSurface()},
		{"android-surface", AndroidSurface()},
	} {
		seen := make(map[string]bool)
		for _, n := range tc.list {
			if seen[n] {
				t.Errorf("%s: duplicate %q", tc.name, n)
			}
			seen[n] = true
		}
	}
	seen := make(map[string]bool)
	for _, e := range KhronosExtensions() {
		if seen[e.Name] {
			t.Errorf("duplicate extension %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestExtensionFunctionsDisjointFromStandard(t *testing.T) {
	std := make(map[string]bool)
	for _, n := range StandardUnion() {
		std[n] = true
	}
	for _, f := range ExtFuncs(KhronosExtensions()) {
		if std[f] {
			t.Errorf("extension function %q collides with a standard function", f)
		}
	}
}

func TestBridgeRelevantExtensionsPresent(t *testing.T) {
	has := func(exts []Extension, name string) bool {
		for _, e := range exts {
			if e.Name == name {
				return true
			}
		}
		return false
	}
	// §4.1's worked examples must be representable.
	if !has(IOSExtensions(), "GL_APPLE_fence") {
		t.Error("iOS missing GL_APPLE_fence")
	}
	if has(AndroidExtensions(), "GL_APPLE_fence") {
		t.Error("Android should not implement GL_APPLE_fence")
	}
	if !has(AndroidExtensions(), "GL_NV_fence") {
		t.Error("Android missing GL_NV_fence")
	}
	if !has(IOSExtensions(), "GL_APPLE_row_bytes") {
		t.Error("iOS missing GL_APPLE_row_bytes")
	}
	if !has(IOSExtensions(), "GL_OES_EGL_image") || !has(AndroidExtensions(), "GL_OES_EGL_image") {
		t.Error("GL_OES_EGL_image must be common (IOSurface/GraphicBuffer binding)")
	}
}

func TestMoreThanHalfExtensionsDisjoint(t *testing.T) {
	// Paper: "more than half of the extensions used in one platform are not
	// available in the other."
	if len(IOSOnlyExtensions)*2 <= len(IOSExtensions()) {
		t.Error("iOS-only extensions are not a majority of iOS extensions")
	}
	if len(AndroidOnlyExtensions)*2 <= len(AndroidExtensions()) {
		t.Error("Android-only extensions are not a majority of Android extensions")
	}
}

func TestExtensionNamesSorted(t *testing.T) {
	names := ExtensionNames(CommonExtensions)
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted at %d: %s >= %s", i, names[i-1], names[i])
		}
	}
}

func TestNumFuncsFallsBackToCount(t *testing.T) {
	e := Extension{Name: "x", FuncCount: 5}
	if e.NumFuncs() != 5 {
		t.Fatal("FuncCount not used")
	}
	e.Funcs = []string{"a", "b"}
	if e.NumFuncs() != 2 {
		t.Fatal("Funcs length not preferred")
	}
}

// TestSurfacesAreCopies checks that the surfaces, built once, are handed out
// as copies: a caller that appends to or overwrites one changes nothing the
// next caller sees.
func TestSurfacesAreCopies(t *testing.T) {
	for name, fn := range map[string]func() []string{
		"StandardUnion": StandardUnion, "IOSSurface": IOSSurface, "AndroidSurface": AndroidSurface,
		"BridgeDirect": BridgeDirect, "TegraUnadvertised": TegraUnadvertised,
	} {
		want := fn()
		got := fn()
		for i := range got {
			got[i] = "mutated"
		}
		_ = append(fn(), "glAppendedByACaller") // fills any spare capacity
		if again := fn(); !slices.Equal(again, want) {
			t.Fatalf("%s changed after a caller mutated its result: %v", name, again)
		}
	}
}
