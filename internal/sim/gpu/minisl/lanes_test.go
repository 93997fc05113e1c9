package minisl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cycada/internal/sim/gpu"
)

// divergentShaders send the lanes of one span down different paths: branches
// that declare locals some lanes never see, shadowing names of other types,
// loops of lane-dependent length, a runaway loop some lanes enter, and
// matrix products and swizzle writes in some lanes only. What used to fault
// per lane here is a compile error now (staticErrors).
var divergentShaders = []string{
	// A local declared on a branch this lane did not take, shadowing one
	// read after the block.
	`varying vec4 v_a;
void main() {
  float x = v_a.x;
  float t = v_a.w;
  if (v_a.y > 0.5) { float t = v_a.z; x = x + t; } else { x = x * 2.0; }
  if (v_a.w > 1.0) { gl_FragColor = vec4(t); } else { gl_FragColor = vec4(x, v_a.y, 0.5, 1.0); }
}`,
	`varying vec4 v_a;
void main() {
  float t = 0.25;
  if (v_a.x > 0.7) { float t = 1.0; t = t * v_a.z; gl_FragColor.z = t; }
  if (v_a.y > 0.3) { t = 0.5; }
  gl_FragColor = vec4(v_a.x, v_a.y, gl_FragColor.z, t);
}`,
	// Lane-dependent trip counts, fetches inside the loop, and a runaway
	// loop for some lanes.
	`varying vec4 v_a;
uniform sampler2D u_tex;
void main() {
  float acc = 0.0;
  for (float i = 0.0; i < v_a.x * 8.0; i += 1.0) {
    acc += 0.125;
    if (acc > v_a.y) { vec4 c = texture2D(u_tex, v_a.zw); acc = acc + c.g; }
  }
  if (v_a.w > 1.5) { for (float j = 0.0; j < 1.0; j *= 1.0) { acc += 1.0; } }
  gl_FragColor = vec4(acc, fract(acc), 0.0, 1.0);
}`,
	// A step limit reached at different statements in different lanes.
	`varying vec4 v_a;
void main() {
  float n = 0.0;
  for (float i = 0.0; i < v_a.x * 20000.0; i += 1.0) { n += 1.0; n += 1.0; }
  gl_FragColor = vec4(n / 40000.0);
}`,
	// Matrix products in some lanes only, one of them of gl_FragColor
	// itself.
	`varying vec4 v_a;
uniform mat4 u_m;
void main() {
  if (v_a.x > 0.5) { gl_FragColor = (u_m * u_m) * vec4(1.0); } else { gl_FragColor = u_m * v_a; }
  if (v_a.y > 1.2) { gl_FragColor = u_m * gl_FragColor; }
}`,
	// One name, two widths: a float on one branch and a vec2 on the other.
	`varying vec4 v_a;
void main() {
  if (v_a.x > 0.5) { float q = v_a.y; gl_FragColor = vec4(q, q, q, 1.0); } else { vec2 q = v_a.zw; gl_FragColor = vec4(q, q); }
  if (v_a.w > 0.2) { gl_FragColor.y = -gl_FragColor.x; }
}`,
	// Raw float conditions, and a declaration without an initializer.
	`varying vec4 v_a;
void main() {
  float k;
  vec2 s = vec2(v_a.x);
  if (v_a.x - 0.5) { k = v_a.y; } else { k = -v_a.y; }
  for (float i = v_a.z - 1.0; i; i = 0.0) { k += 1.0; }
  gl_FragColor = vec4(s, s);
  if (v_a.w > 0.5) { vec3 t = v_a.xyz; gl_FragColor = vec4(t, 1.0); }
  gl_FragColor.x = k;
}`,
	// Every builtin, with operands that differ per lane.
	`varying vec4 v_a;
varying vec2 v_b;
uniform sampler2D u_tex;
uniform vec4 u_c;
void main() {
  vec4 t = texture2D(u_tex, v_b);
  float d = dot(v_a.xyz, u_c.xyz) + length(v_b) - abs(v_a.w);
  vec2 n = normalize(v_b - vec2(0.5));
  vec4 m = mix(t, u_c, clamp(v_a.x, 0.0, 1.0));
  float s = sin(v_a.y) * cos(v_a.z) + pow(abs(v_a.x), 2.0) + floor(v_a.w * 3.0);
  gl_FragColor = vec4(min(m.x, d), max(m.y, s), n.x + fract(s), !(d < 0.5));
}`,
	// One name, a matrix in some scopes and a vector in another, and a
	// mat4 declared without an initializer: the identity.
	`varying vec4 v_a;
uniform mat4 u_m;
void main() {
  vec4 q = v_a;
  if (v_a.x > 0.5) { mat4 q = u_m * u_m; gl_FragColor = q * v_a; } else { gl_FragColor = q * v_a; }
  if (v_a.y > 0.5) { mat4 q; gl_FragColor = q * gl_FragColor; }
  if (v_a.z > 0.5) { gl_FragColor = 1.0; }
  gl_FragColor = gl_FragColor * vec4(0.5);
}`,
	// mat4 locals rewritten inside a divergent if: a product in some lanes,
	// a copy of another local in others.
	`varying vec4 v_a;
uniform mat4 u_m;
void main() {
  mat4 m = u_m;
  mat4 k;
  vec4 p = v_a;
  if (v_a.x > 0.3) { p = m * v_a; m = m * m; k = k * m; } else { if (v_a.w > 1.0) { m = k; } }
  if (v_a.y > 0.6) { p = normalize(m * p); }
  gl_FragColor = p * vec4(0.5) + m * v_a + k * v_a;
}`,
	// A matrix local that differs per lane times sampled texels and
	// varyings, and rewritten after its last read.
	`varying vec4 v_a;
uniform mat4 u_m;
uniform sampler2D u_tex;
void main() {
  mat4 s = u_m;
  if (v_a.x > 0.5) { s = s * u_m; }
  vec4 c = texture2D(u_tex, v_a.yz) + texture2D(u_tex, v_a.zw);
  float k = c.x;
  vec4 d = k;
  if (v_a.y > 1.0) { d = s * c; }
  gl_FragColor = c + d.xyzw * (s * v_a) + d * v_a + vec4(dot(d, v_a), length(c), k, 1.0);
  if (v_a.w > 1.2) { s = u_m; }
}`,
	// Matrix products in some lanes between vector nodes of every kind
	// that reuse the same temporaries. Each such node yields 1 or a copy,
	// so p keeps its information.
	`varying vec4 v_a;
uniform mat4 u_m;
uniform sampler2D u_tex;
void main() {
  vec4 p = v_a;
  if (v_a.x > 0.5) { p = (u_m * u_m) * p; }
  p = v_a.wzyx * p;
  if (v_a.y > 0.5) { p = (u_m * u_m) * p; }
  p = -v_a * p;
  if (v_a.z > 0.5) { p = (u_m * u_m) * p; }
  p = (p.y == p.y) * p;
  if (v_a.w > 0.5) { p = (u_m * u_m) * p; }
  p = !(p.x - p.x) * p;
  if (v_a.x > 0.2) { p = (u_m * u_m) * p; }
  p = vec4(v_a.x, 0.5, v_a.yz) * p;
  if (v_a.x > 1.0) { p = (u_m * u_m) * p; }
  p = clamp(p, 0.0, 1.0) * p + texture2D(u_tex, p.xy) * v_a;
  gl_FragColor = p;
}`,
	// A varying a block shadows with a local of another width, which its
	// initializer reads.
	`varying vec4 v_a;
uniform mat4 u_m;
void main() {
  vec4 c = v_a * 0.5;
  if (v_a.x > -0.4) { float v_a = v_a.y; c = c * v_a; }
  if (v_a.z > 0.5) { c = u_m * c; }
  gl_FragColor = c + v_a * vec4(1.0, 2.0, 3.0, 4.0);
}`,
	// Single-component swizzle writes on divergent paths, to a local and to
	// gl_FragColor.
	`varying vec4 v_a;
void main() {
  vec4 t = v_a;
  if (v_a.x > 0.5) { t.y = v_a.z; }
  gl_FragColor = v_a;
  if (v_a.y > 0.8) { gl_FragColor.x = v_a.w; gl_FragColor.y = t.x; }
  gl_FragColor.w = t.y;
}`,
}

// texelCopyShaders end in a texel copy (see texelCopy): after divergent
// statements, a loop and the step limit in some lanes, with coordinates
// that are negative, huge, infinite or NaN, that come out of a matrix
// product, or that are draw-uniform.
var texelCopyShaders = []string{
	`varying vec4 v_a;
uniform sampler2D u_tex;
void main() {
  vec2 uv = v_a.xy;
  if (v_a.z > 0.5) { uv = uv * -3.0; } else { uv = uv * 1000000000000000000000000000000.0; }
  if (v_a.w > 1.5) { uv = uv * 1000000000000000000000000000000.0 * 1000000000000000000000000000000.0; }
  if (v_a.w > 1.8) { uv = uv - uv; }
  gl_FragColor = texture2D(u_tex, uv);
}`,
	`varying vec4 v_a;
uniform sampler2D u_tex;
void main() {
  vec2 uv = v_a.zw * 4.0 - vec2(2.0);
  if (v_a.x > 0.6) { uv = uv.yx; }
  if (v_a.x < 0.2) { vec2 uv = v_a.xy; }
  gl_FragColor = texture2D(u_tex, uv);
}`,
	`varying vec4 v_a;
uniform sampler2D u_tex;
void main() {
  float k = 0.0;
  for (float i = 0.0; i < v_a.x * 3.0; i += 1.0) { k += 0.25; }
  if (v_a.w > 1.5) { for (float j = 0.0; j < 1.0; j *= 1.0) { k += 1.0; } }
  vec2 q = v_a.zw;
  if (v_a.y > 1.0) { q = vec2(v_a.z); }
  gl_FragColor = texture2D(u_tex, vec4(q, q).xy + vec2(k));
}`,
	`varying vec4 v_a;
uniform sampler2D u_tex;
void main() {
  float t = v_a.z;
  if (v_a.x > 0.5) { t = v_a.y; }
  gl_FragColor = texture2D(u_tex, vec2(t, v_a.z));
}`,
	`varying vec4 v_a;
uniform sampler2D u_tex;
uniform mat4 u_m;
void main() { gl_FragColor = texture2D(u_tex, (u_m * v_a).xy); }`,
	`varying vec4 v_a;
uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, vec2(0.25, 0.75)); }`,
}

// nearTexelCopyShaders look like a texel copy but must run the general
// path: gl_FragColor read before or after the copy, or inside its
// arguments, written a second time, written through a swizzle, texture2D
// inside arithmetic, coordinates built from a varying, and the copy not
// last.
var nearTexelCopyShaders = []string{
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_a.xy); vec4 k = gl_FragColor; }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { vec4 k = gl_FragColor + v_a; gl_FragColor = texture2D(u_tex, k.xy); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor.x = v_a.y; gl_FragColor = texture2D(u_tex, gl_FragColor.xy); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { if (v_a.x > 0.5) { gl_FragColor = v_a; } gl_FragColor = texture2D(u_tex, v_a.yz); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = v_a; gl_FragColor = texture2D(u_tex, v_a.yz); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_a.yz); gl_FragColor = texture2D(u_tex, v_a.xy); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = v_a; gl_FragColor.y = texture2D(u_tex, v_a.yz); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_a.xy) * 1.0; }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_a.xy) + vec4(0.0); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, vec2(v_a.x, v_a.y)); }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_a.xy); float k = v_a.x; }`,
	`varying vec4 v_a; uniform sampler2D u_tex;
void main() { for (float i = 0.0; i < 2.0; i += 1.0) { gl_FragColor = texture2D(u_tex, v_a.xy * i); } }`,
}

// refShaders returns every shader source the tree ships, plus the
// divergent ones and the texel copies and their near misses, and then GLES
// 1's fixed-function programs (see fixedFunctionFile).
func refShaders(tb testing.TB) []string {
	var srcs []string
	for _, file := range treeShaderFiles {
		srcs = append(srcs, shaderSources(tb, file)...)
	}
	return slices.Concat(srcs, divergentShaders, texelCopyShaders, nearTexelCopyShaders, shaderSources(tb, fixedFunctionFile))
}

// withPartner links sh with a minimal shader of the other kind that declares
// sh's varyings. ok is false when sh's varyings cannot link (a name repeated
// with differing types).
func withPartner(tb testing.TB, sh *Shader) (p *Program, ok bool) {
	tb.Helper()
	var src strings.Builder
	for _, d := range sh.Varyings {
		src.WriteString("varying " + d.Type + " " + d.Name + ";")
	}
	vs, fs := sh, sh
	var err error
	if sh.Kind == Fragment {
		src.WriteString("void main(){ gl_Position = vec4(0.0); }")
		vs, err = Compile(src.String(), Vertex)
	} else {
		src.WriteString("void main(){ gl_FragColor = vec4(1.0); }")
		fs, err = Compile(src.String(), Fragment)
	}
	if err != nil {
		tb.Fatalf("partner shader: %v", err)
	}
	p, err = Link(vs, fs)
	return p, err == nil
}

// refTexture is a texture whose every texel differs, so where a lane
// samples shows in its colour.
func refTexture() *gpu.Texture {
	img := gpu.NewImage(5, 3)
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			img.Set(x, y, gpu.RGBA{R: uint8(50 * x), G: uint8(80 * y), B: uint8(13*x + 7*y), A: 255})
		}
	}
	return &gpu.Texture{Img: img, Repeat: true}
}

// randomVaryings returns n fragments' varyings, stride apiece, in
// [-0.5, 2).
func randomVaryings(rng *rand.Rand, n, stride int) []gpu.Vec4 {
	vary := make([]gpu.Vec4, n*stride)
	for i := range vary {
		for c := range vary[i] {
			vary[i][c] = rng.Float32()*2.5 - 0.5
		}
	}
	return vary
}

// pack returns gpu.Pack's word for one colour.
func pack(c gpu.Vec4) uint32 {
	var w [1]uint32
	gpu.Pack(w[:], []gpu.Vec4{c})
	return w[0]
}

// colourOf returns the colour lane l shaded in f's last Shade: the
// gl_FragColor plane, which the word Shade returned packs.
func colourOf(f *Frame, l int) gpu.Vec4 { return f.comp[f.st.out*f.lanes+l] }

// shadeFragments shades the n fragments in vary, stride varyings apiece in
// VaryNames order, through f's Inputs and Shade a span at a time, as the
// rasterizer does, and returns each one's colour word, colour (colourOf),
// fetch count and runtime error.
func shadeFragments(f *Frame, vary []gpu.Vec4, stride, n int) (words []uint32, cols []gpu.Vec4, fetches []int, errs []error) {
	index, _, planes := f.Inputs(stride)
	for base := 0; base < n; base += gpu.SpanSize {
		m := min(gpu.SpanSize, n-base)
		for i, k := range index {
			for l := range m {
				planes[i][l] = vary[(base+l)*stride+k]
			}
		}
		w, fe := f.Shade(m)
		for l := range w {
			cols, errs = append(cols, colourOf(f, l)), append(errs, f.err(l))
		}
		words, fetches = append(words, w...), append(fetches, fe...)
	}
	return words, cols, fetches, errs
}

// checkSpan shades the n fragments in vary, stride varyings apiece, as
// spans and compares every lane with the reference evaluator run on that
// fragment alone: its colour word, which must be gpu.Pack of the
// reference's colour, its colour's bits, its fetch count and its error. A
// faulting lane must shade magenta and count no fetches.
func checkSpan(t *testing.T, b *Binding, vary []gpu.Vec4, stride, n int) {
	t.Helper()
	fr := b.Frame(Fragment)
	words, cols, fetches, errs := shadeFragments(fr, vary, stride, n)
	fr.Release()
	for i := range n {
		wc, wf, we := refRunFragment(b, vary[i*stride:(i+1)*stride])
		ww := pack(wc)
		if we != nil {
			ww = faultWord
		}
		if words[i] != ww || (we == nil && !sameVec(cols[i], wc)) || fetches[i] != wf || errString(errs[i]) != errString(we) {
			t.Fatalf("span of %d, lane %d: got (%08x %v, %d, %q), reference (%08x %v, %d, %q)",
				n, i, words[i], cols[i], fetches[i], errString(errs[i]), ww, wc, wf, errString(we))
		}
	}
}

// checkVertex runs one vertex and compares gl_Position, the varyings' declared
// components and the error with the reference evaluator.
func checkVertex(t *testing.T, b *Binding, attribs []gpu.Vec4) {
	t.Helper()
	n := len(b.p.VaryNames)
	got, want := make([]gpu.Vec4, n), make([]gpu.Vec4, n)
	fr := b.Frame(Vertex)
	pos, err := fr.RunVertex(attribs, got)
	fr.Release()
	wpos, werr := refRunVertex(b, attribs, want)
	same := sameVec(pos, wpos) && errString(err) == errString(werr)
	for i, name := range b.p.VaryNames {
		k := slices.IndexFunc(b.p.VS.Varyings, func(d Decl) bool { return d.Name == name })
		same = same && (err != nil || sameComps(got[i], want[i], widthOf(b.p.VS.Varyings[k].Type)))
	}
	if !same {
		t.Fatalf("vertex: got (%v, %v, %v), reference (%v, %v, %v)", pos, got, err, wpos, want, werr)
	}
}

// TestSpanMatchesReference holds the lane evaluator to the reference tree
// walker, lane by lane: every shader the tree ships and the divergent ones,
// over spans of 1, 7, 64 and 65 fragments (one more than a frame's lanes)
// with seeded random varyings, and then over spans of 7 and 65 with other
// uniform values (bindings).
func TestSpanMatchesReference(t *testing.T) {
	tex := refTexture()
	for i, src := range refShaders(t) {
		sh, err := Compile(src, Fragment)
		if err != nil {
			if sh, err = Compile(src, Vertex); err != nil {
				continue // the compile-error cases
			}
		}
		rng := rand.New(rand.NewSource(int64(i)))
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel() // the runaway-loop shaders spend their whole step budget
			p, ok := withPartner(t, sh)
			if !ok {
				t.Fatal("does not link")
			}
			b := bindAll(p, tex)
			if sh.Kind == Vertex {
				for _, b := range bindings(p, tex) {
					for range 16 {
						checkVertex(t, b, randomVaryings(rng, len(p.VS.Attributes), 1))
					}
				}
				return
			}
			stride := len(p.VaryNames)
			for _, n := range []int{1, 7, gpu.SpanSize, gpu.SpanSize + 1} {
				checkSpan(t, b, randomVaryings(rng, n, stride), stride, n)
			}
			for _, b := range bindings(p, tex)[1:] {
				for _, n := range []int{7, gpu.SpanSize + 1} {
					checkSpan(t, b, randomVaryings(rng, n, stride), stride, n)
				}
			}
		})
	}
}

// otherTestShaderFiles are the test files of other packages that run
// MiniSL programs through the GLES engine.
var otherTestShaderFiles = []string{
	"../../../gles/engine/engine_test.go",
	"../../../gles/engine/drawmodes_test.go",
	"../../../core/glesbridge/glesbridge_test.go",
	"../../../core/system/system_test.go",
}

// vertexSource matches a source that declares an attribute or writes
// gl_Position: a vertex shader.
var vertexSource = regexp.MustCompile(`\battribute\b|gl_Position\s*=`)

// TestShadersAreTyped compiles every program the tree runs — each shipped
// shader, GLES 1's fixed-function programs, and the test programs other
// packages draw with — as its own kind: every one is statically typed, as
// GLSL ES 1.00 requires, so Compile fixes the type, the class and the width
// of every cell and every expression. This package's own test sources,
// deliberate compile errors among them, are checked where they are used.
func TestShadersAreTyped(t *testing.T) {
	files := slices.Concat(treeShaderFiles, []string{fixedFunctionFile}, otherTestShaderFiles)
	n := 0
	for _, file := range files {
		if filepath.Dir(file) == "." {
			continue
		}
		for _, src := range shaderSources(t, file) {
			kind := Fragment
			if vertexSource.MatchString(src) {
				kind = Vertex
			}
			if _, err := Compile(src, kind); err != nil {
				t.Errorf("%s: %v compile: %v in\n%s", file, kind, err, src)
			}
			n++
		}
	}
	if n < 20 {
		t.Fatalf("%d sources checked; the tree runs more", n)
	}
}

// soleTexelCopy matches a shader whose body is the single statement
// gl_FragColor = texture2D(s, v), with names for both arguments.
var soleTexelCopy = regexp.MustCompile(`void main\(\) \{\s*gl_FragColor = texture2D\(\w+, \w+\);\s*\}\s*$`)

// copyMisses look like a texel copy that Binding.TexelCopy may report, but
// are none: the coordinates not a plain varying, a second statement,
// coordinates that are a uniform, a swizzled copy, and coordinates that
// are gl_FragColor. (Writing the varying or
// the sampler, or declaring the sampler a varying, is a compile error:
// staticErrors.)
var copyMisses = []string{
	`varying vec2 v_uv; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv * 1.0); }`,
	`varying vec2 v_uv; uniform sampler2D u_tex;
void main() { vec4 c = texture2D(u_tex, v_uv); gl_FragColor = c; }`,
	`varying vec2 v_uv; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv); gl_FragColor = texture2D(u_tex, v_uv); }`,
	`uniform vec2 v_uv; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv); }`,
	`varying vec2 v_uv; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv).xyzw; }`,
	`uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, gl_FragColor); }`,
}

// TestTexelCopyShape checks which programs Binding.TexelCopy reports as
// copying one texel: the present blit, the PassMark canvas upload and
// WebKit's tiles, and every shipped shader that is the single statement
// gl_FragColor = texture2D(s, v); not texelCopyShaders,
// nearTexelCopyShaders, copyMisses or any other shader; and not even a
// copy whose sampler is bound to no texture, or to one without an image.
// The texture and varying it reports must be the bound one and v's.
func TestTexelCopyShape(t *testing.T) {
	for _, file := range []string{"../../../core/eglbridge/blit.go", "../../../harness/blit.go", "../../../webkit/browser.go"} {
		tex := refTexture()
		got, vary, ok := bindAll(linkFile(t, file), tex).TexelCopy()
		if !ok || got != tex || vary != 0 {
			t.Errorf("%s: TexelCopy() = %v, %d, %v; want the bound texture, varying 0, true", file, got, vary, ok)
		}
	}
	want := map[string]bool{}
	for _, file := range treeShaderFiles {
		for _, src := range shaderSources(t, file) {
			want[src] = soleTexelCopy.MatchString(src)
		}
	}
	for _, src := range slices.Concat(texelCopyShaders, nearTexelCopyShaders, copyMisses) {
		want[src] = false
	}
	copies := 0
	for src, w := range want {
		sh, err := Compile(src, Fragment)
		if err != nil {
			continue
		}
		p, ok := withPartner(t, sh)
		if !ok {
			continue
		}
		tex := refTexture()
		if _, _, got := bindAll(p, tex).TexelCopy(); got != w {
			t.Errorf("TexelCopy ok = %v, want %v:\n%s", got, w, src)
		}
		if !w {
			continue
		}
		copies++
		for _, unbound := range []*gpu.Texture{nil, {}} {
			if _, _, got := bindAll(p, unbound).TexelCopy(); got {
				t.Errorf("TexelCopy ok with sampler bound to %v:\n%s", unbound, src)
			}
		}
	}
	if copies < 3 {
		t.Fatalf("%d shipped shaders copy texels; want the blit, the canvas upload and the tiles at least", copies)
	}
}

// TestStepBound checks the step accounting at the limit. A loop-free
// shader of defaultMaxSteps-1 statements cannot run out, so it is compiled
// without step counts, and runs to the end in every lane; one of
// defaultMaxSteps statements, branches included, runs out at its last, and
// so does a loop that charges as many; each matches the reference
// evaluator lane for lane.
func TestStepBound(t *testing.T) {
	body := func(n int) string {
		// Four statements — an if and the increment in its branch among
		// them — around n-4 increments.
		return "varying vec4 v_a; void main() { float x = 0.0; if (v_a.x > -1.0) { x += 1.0; }" +
			strings.Repeat(" x += 1.0;", n-4) + " gl_FragColor = vec4(x * 0.00001); }"
	}
	for _, tc := range []struct {
		name    string
		src     string
		counted bool
		fault   bool
	}{
		{"loop-free-under", body(defaultMaxSteps - 1), false, false},
		{"loop-free-at", body(defaultMaxSteps), true, true},
		{"loop", `varying vec4 v_a; void main() {
  float x = 0.0;
  for (float i = 0.0; i < 49999.0; i += 1.0) { x += 1.0; }
  gl_FragColor = vec4(x);
}`, true, true},
		{"loop-under", `varying vec4 v_a; void main() {
  float x = 0.0;
  for (float i = 0.0; i < 49997.0; i += 1.0) { x += 1.0; }
  gl_FragColor = vec4(x);
}`, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sh := compile(t, tc.src, Fragment)
			if sh.counted != tc.counted {
				t.Fatalf("counted = %v, want %v", sh.counted, tc.counted)
			}
			p, _ := withPartner(t, sh)
			b := bindAll(p, nil)
			const n = 3
			vary := randomVaryings(rand.New(rand.NewSource(1)), n, 1)
			checkSpan(t, b, vary, 1, n)
			fr := b.Frame(Fragment)
			defer fr.Release()
			_, _, _, errs := shadeFragments(fr, vary, 1, n)
			for l, err := range errs {
				if got := err != nil && strings.Contains(err.Error(), "step limit"); got != tc.fault {
					t.Fatalf("lane %d: error %v, want a step-limit fault: %v", l, err, tc.fault)
				}
			}
		})
	}
}

// TestReleasedFrameHoldsNoPointer checks that a pooled frame keeps nothing
// alive: a frame holds matrices by value, in its cells, and reaches a
// texture only through its binding's values, which Release drops, in the
// frame and in its uniform frame. No field of a Frame but those and its
// stage, the linked program's layout, can hold a pointer to a matrix or a
// texture.
func TestReleasedFrameHoldsNoPointer(t *testing.T) {
	p, _ := withPartner(t, compile(t, `varying vec4 v_a;
uniform mat4 u_m;
uniform sampler2D u_tex;
void main() {
  mat4 m = u_m * u_m;
  mat4 k;
  vec4 c = texture2D(u_tex, v_a.xy);
  gl_FragColor = m * c + k * v_a;
}`, Fragment))
	f := bindAll(p, testTexture()).Frame(Fragment)
	vary := randomVaryings(rand.New(rand.NewSource(1)), gpu.SpanSize, len(p.VaryNames))
	if _, _, _, errs := shadeFragments(f, vary, len(p.VaryNames), gpu.SpanSize); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if f.uni == nil {
		t.Fatal("the frame holds no binding to drop")
	}
	f.Release()
	if f.uni != nil || f.u.uni != nil {
		t.Fatal("released frame still holds its binding's uniforms")
	}
	ft := reflect.TypeOf(Frame{})
	for i := range ft.NumField() {
		if fd := ft.Field(i); fd.Name != "uni" && fd.Name != "st" && reaches(fd.Type, map[reflect.Type]bool{}) {
			t.Errorf("Frame.%s (%v) can hold a matrix or a texture", fd.Name, fd.Type)
		}
	}
}

// reaches reports whether a value of type t can hold a pointer to a matrix
// or a texture, other than through a Frame, whose fields the test checks.
func reaches(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] || t == reflect.TypeOf(Frame{}) {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer:
		e := t.Elem()
		return e == reflect.TypeOf(gpu.Mat4{}) || e == reflect.TypeOf(gpu.Texture{}) || reaches(e, seen)
	case reflect.Slice, reflect.Array:
		return reaches(t.Elem(), seen)
	case reflect.Struct:
		for i := range t.NumField() {
			if reaches(t.Field(i).Type, seen) {
				return true
			}
		}
	case reflect.Interface, reflect.Map, reflect.Func, reflect.Chan:
		return true
	}
	return false
}

// TestRunVertexDoesNotAllocate holds the vertex path to zero allocations
// once the frame is warm: PassMark's complexVS, the eglbridge, harness and
// WebKit blit shaders, a uniform mat4 times an attribute, and matrix
// products per vertex.
func TestRunVertexDoesNotAllocate(t *testing.T) {
	var progs []*Program
	for _, file := range []string{
		"../../../workloads/passmark/passmark.go",
		"../../../core/eglbridge/blit.go",
		"../../../harness/blit.go",
		"../../../webkit/browser.go",
	} {
		progs = append(progs, linkFile(t, file))
	}
	for _, src := range []string{quadVS, `attribute vec4 a_pos; uniform mat4 u_a; uniform mat4 u_b; varying vec4 v;
void main() { mat4 m = u_a * u_b; m = m * u_a; gl_Position = (m * m) * a_pos; v = u_b * gl_Position; }`} {
		p, _ := withPartner(t, compile(t, src, Vertex))
		progs = append(progs, p)
	}
	for _, p := range progs {
		f := bindAll(p, testTexture()).Frame(Vertex)
		attribs := randomVaryings(rand.New(rand.NewSource(1)), len(p.VS.Attributes), 1)
		vary := make([]gpu.Vec4, len(p.VaryNames))
		if _, err := f.RunVertex(attribs, vary); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() { f.RunVertex(attribs, vary) }); n != 0 {
			t.Errorf("a vertex allocates %v times, want 0:\n%s", n, p.VS.Source())
		}
		f.Release()
	}
}

// TestShadeSpanFaultsPerLane checks the rasterizer's view of a span: a lane
// that runs out of steps shades magenta and counts no fetches, and its
// neighbours shade normally.
func TestShadeSpanFaultsPerLane(t *testing.T) {
	p, _ := withPartner(t, compile(t, `varying vec4 v_a; uniform sampler2D u_tex;
void main() {
  gl_FragColor = texture2D(u_tex, v_a.xy);
  if (v_a.z > 0.5) { for (float i = 0.0; i < 1.0; i *= 1.0) { gl_FragColor.x = i; } }
}`, Fragment))
	fr := bindAll(p, refTexture()).Frame(Fragment)
	defer fr.Release()
	_, _, planes := fr.Inputs(1)
	copy(planes[0], []gpu.Vec4{{0.1, 0.1, 0}, {0.1, 0.1, 1}, {0.9, 0.9, 0}})
	col, fetches := fr.Shade(3)
	if len(col) != 3 || len(fetches) != 3 {
		t.Fatalf("Shade(3) returned %d colours and %d fetch counts", len(col), len(fetches))
	}
	if col[1] != faultWord || fetches[1] != 0 || fr.err(1) != errSteps {
		t.Fatalf("faulting lane shaded (%08x, %d, %v), want magenta, 0 fetches and the step limit", col[1], fetches[1], fr.err(1))
	}
	for _, i := range []int{0, 2} {
		if col[i] == faultWord || fetches[i] != 1 || fr.err(i) != nil {
			t.Fatalf("lane %d shaded (%08x, %d, %v), want a texel and 1 fetch", i, col[i], fetches[i], fr.err(i))
		}
	}
}

// TestInputsAreTheVaryingsRead checks that a fragment stage hands the
// rasterizer a plane only for the varyings its shader reads, at the widths
// it declares them with: of three varyings, a shader reading the second, a
// vec2, gets that plane alone, with width 2, and what is written to the
// plane's first two components is what it shades, whatever the others
// hold. A varying the primitives do not carry gets no plane and reads as
// zero.
func TestInputsAreTheVaryingsRead(t *testing.T) {
	vs := compile(t, `varying vec4 v_a; varying vec2 v_b; varying float v_c;
void main() { gl_Position = vec4(0.0); v_a = vec4(1.0); v_b = vec2(2.0); v_c = 3.0; }`, Vertex)
	fs := compile(t, `varying vec2 v_b; void main() { gl_FragColor = vec4(v_b, v_b); }`, Fragment)
	p, err := Link(vs, fs)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Bind().Frame(Fragment)
	defer f.Release()
	index, width, planes := f.Inputs(3)
	if !slices.Equal(index, []int{1}) || !slices.Equal(width, []int{2}) || len(planes) != 1 || len(planes[0]) != gpu.SpanSize {
		t.Fatalf("Inputs(3) = %v, widths %v and %d planes, want [1], [2] and one plane of %d lanes", index, width, len(planes), gpu.SpanSize)
	}
	for l := range planes[0] {
		planes[0][l] = gpu.Vec4{float32(l), 0.5, float32(math.NaN()), float32(l)}
	}
	col, _ := f.Shade(gpu.SpanSize)
	for l, c := range col {
		want := gpu.Vec4{float32(l), 0.5, float32(l), 0.5}
		if colourOf(f, l) != want || c != pack(want) {
			t.Fatalf("lane %d shaded %v (%08x), want the components written to its plane", l, colourOf(f, l), c)
		}
	}
	if index, _, planes = f.Inputs(1); len(index) != 0 || len(planes) != 0 {
		t.Fatalf("Inputs(1) = %v: v_b is varying 1, which the primitives do not carry", index)
	}
	if col, _ = f.Shade(2); col[0] != 0 || col[1] != 0 || colourOf(f, 0) != (gpu.Vec4{}) || colourOf(f, 1) != (gpu.Vec4{}) {
		t.Fatalf("a varying the primitives lack shaded %08x, want zero", col)
	}
	// Every width a varying can be declared with is reported.
	p, err = Link(vs, compile(t, `varying vec4 v_a; varying vec2 v_b; varying float v_c;
void main() { gl_FragColor = v_a + vec4(v_b, v_c, 1.0); }`, Fragment))
	if err != nil {
		t.Fatal(err)
	}
	h := p.Bind().Frame(Fragment)
	defer h.Release()
	if index, width, _ = h.Inputs(3); !slices.Equal(index, []int{0, 1, 2}) || !slices.Equal(width, []int{4, 2, 1}) {
		t.Fatalf("Inputs(3) = %v, widths %v; want [0 1 2] and [4 2 1]", index, width)
	}
	// A name the fragment shader reads without declaring it is no input,
	// even when the vertex shader writes a varying of that name: it is a
	// compile error (staticErrors).
}

// TestBindingRefusesOtherTypes checks that Set refuses a value whose type
// is not the uniform's declaration — as glUniform does — and leaves the
// binding as it was, for every uniform of the shipped programs and of a
// shader declaring one uniform of each type.
func TestBindingRefusesOtherTypes(t *testing.T) {
	tex := refTexture()
	fs := compile(t, everyUniformType, Fragment)
	p, ok := withPartner(t, fs)
	if !ok {
		t.Fatal("does not link")
	}
	progs := []*Program{p}
	for _, file := range treeShaderFiles[:6] {
		progs = append(progs, linkFile(t, file))
	}
	for _, p := range progs {
		b := bindAll(p, tex)
		checkRefusals(t, b, tex)
	}
	if len(p.UniformTypes) != 6 {
		t.Fatalf("%v: want a uniform of each of the six types", p.UniformTypes)
	}
}

// everyUniformType declares a uniform of each type, and reads them all.
const everyUniformType = `uniform float u_f; uniform vec2 u_2; uniform vec3 u_3; uniform vec4 u_4;
uniform mat4 u_m; uniform sampler2D u_s; varying vec4 v_a;
void main() {
  gl_FragColor = u_m * (texture2D(u_s, v_a.xy + u_2) + vec4(u_3, u_f) * u_4);
}`

// BenchmarkShadeSpan shades full spans with the shaders the workloads run:
// the present blit, PassMark's complex scene and the WebKit tile shader.
// The span's inputs are written once; each iteration shades them.
func BenchmarkShadeSpan(b *testing.B) {
	for _, file := range []string{
		"../../../core/eglbridge/blit.go",
		"../../../workloads/passmark/passmark.go",
		"../../../webkit/browser.go",
	} {
		b.Run(filepath.Base(filepath.Dir(file)), func(b *testing.B) {
			p := linkFile(&testing.T{}, file)
			f := bindAll(p, refTexture()).Frame(Fragment)
			defer f.Release()
			stride := len(p.VaryNames)
			vary := randomVaryings(rand.New(rand.NewSource(1)), gpu.SpanSize, stride)
			index, _, planes := f.Inputs(stride)
			for i, k := range index {
				for l := range planes[i] {
					planes[i][l] = vary[l*stride+k]
				}
			}
			b.ReportAllocs()
			for b.Loop() {
				f.Shade(gpu.SpanSize)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*gpu.SpanSize), "ns/fragment")
		})
	}
}

// BenchmarkDrawBlit draws the present blit of §5 — a fullscreen quad
// through the shipped MiniSL program into a 320x200 target — on one worker,
// and reports the cost per pixel written. In copy, the quad samples a
// 320x200 texture, a 1:1 rectangle that DrawTriangles copies; in raster,
// it samples a 160x100 one, so rasterization, shading and write-back all
// run.
func BenchmarkDrawBlit(b *testing.B) {
	const w, h = 320, 200
	p := linkFile(&testing.T{}, "../../../core/eglbridge/blit.go")
	for _, bc := range []struct {
		name   string
		tw, th int
	}{{"copy", w, h}, {"raster", w / 2, h / 2}} {
		b.Run(bc.name, func(b *testing.B) {
			img := gpu.NewImage(bc.tw, bc.th)
			rand.New(rand.NewSource(1)).Read(img.Pix)
			bind := bindAll(p, &gpu.Texture{Img: img})
			pos := []gpu.Vec4{{-1, -1, 0, 1}, {1, -1, 0, 1}, {1, 1, 0, 1}, {-1, 1, 0, 1}}
			uv := []gpu.Vec4{{0, 1}, {1, 1}, {1, 0}, {0, 0}}
			verts := make([]gpu.TVert, len(pos))
			vf := bind.Frame(Vertex)
			for i := range verts {
				verts[i].Vary = make([]gpu.Vec4, len(p.VaryNames))
				var err error
				if verts[i].Pos, err = vf.RunVertex([]gpu.Vec4{pos[i], uv[i]}, verts[i].Vary); err != nil {
					b.Fatal(err)
				}
			}
			vf.Release()
			tgt := gpu.NewTarget(gpu.NewImage(w, h))
			var stats gpu.Stats
			b.ReportAllocs()
			for b.Loop() {
				stats = gpu.DrawTriangles(tgt, verts, []int{0, 1, 2, 0, 2, 3}, bind, gpu.RenderState{})
			}
			if stats.Pixels != w*h || (bc.tw == w && tgt.Color.Checksum() != img.Checksum()) {
				b.Fatalf("blit wrote %d pixels, checksum %08x; want %d and the texture's %08x", stats.Pixels, tgt.Color.Checksum(), w*h, img.Checksum())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w*h), "ns/pixel")
		})
	}
}

// BenchmarkDrawComplex3D draws PassMark's complex 3D scene on one worker:
// a field of depth-tested quads through the shipped complexVS/complexFS,
// each quad's shade varying from corner to corner, into a 320x200 target.
// It reports the cost per fragment shaded, which covers the whole
// interpolate, shade and pack path of the rasterizer.
func BenchmarkDrawComplex3D(b *testing.B) {
	const w, h, grid = 320, 200, 6
	p := linkFile(&testing.T{}, "../../../workloads/passmark/passmark.go")
	bind := bindAll(p, nil)
	var verts []gpu.TVert
	var idx []int
	vf := bind.Frame(Vertex)
	for q := range grid * grid {
		// Quads of the grid overlap their neighbours, nearer ones later.
		x0, y0 := -1+1.6*float32(q%grid)/grid, -1+1.6*float32(q/grid)/grid
		z := 0.9 - float32(q)/(grid*grid)
		base := len(verts)
		for k := range 4 {
			pos := gpu.Vec4{x0 + 0.5*float32(k&1), y0 + 0.5*float32(k>>1), z, 1}
			v := gpu.TVert{Vary: make([]gpu.Vec4, len(p.VaryNames))}
			var err error
			if v.Pos, err = vf.RunVertex([]gpu.Vec4{pos, {float32(k) / 3}}, v.Vary); err != nil {
				b.Fatal(err)
			}
			verts = append(verts, v)
		}
		idx = append(idx, base, base+1, base+2, base+1, base+3, base+2)
	}
	vf.Release()
	tgt := gpu.NewTarget(gpu.NewImage(w, h))
	var stats gpu.Stats
	b.ReportAllocs()
	for b.Loop() {
		tgt.ClearDepth(1)
		stats = gpu.DrawTriangles(tgt, verts, idx, bind, gpu.RenderState{DepthTest: true})
	}
	if stats.ShaderEvals == 0 {
		b.Fatal("no fragment shaded")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stats.ShaderEvals), "ns/fragment")
}

// TestTranscendentalsPinned pins the float32 results of the builtins that
// call the standard library's transcendental functions, over a seeded sweep.
// Those functions may fuse multiply-adds on hosts that have them, which no
// conversion in this package can prevent: a host that disagrees fails here,
// by name, rather than as a golden checksum mismatch.
func TestTranscendentalsPinned(t *testing.T) {
	p, _ := withPartner(t, compile(t, `varying vec4 v_a;
void main() { gl_FragColor = vec4(sin(v_a.x * 8.0), cos(v_a.y * 8.0), pow(abs(v_a.z), v_a.w * 3.0), length(v_a)); }`, Fragment))
	fr := bindAll(p, nil).Frame(Fragment)
	defer fr.Release()
	rng := rand.New(rand.NewSource(1))
	sum := crc32.NewIEEE()
	for range 64 {
		_, col, _, _ := shadeFragments(fr, randomVaryings(rng, gpu.SpanSize, 1), 1, gpu.SpanSize)
		for _, c := range col {
			for _, x := range c {
				binary.Write(sum, binary.LittleEndian, math.Float32bits(x))
			}
		}
	}
	if got, want := sum.Sum32(), uint32(0xfaf4c1df); got != want {
		t.Fatalf("sin/cos/pow/length over the sweep: checksum %08x, pinned %08x", got, want)
	}
}
