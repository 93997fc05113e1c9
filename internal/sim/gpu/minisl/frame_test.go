package minisl

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cycada/internal/sim/gpu"
)

// treeShaderFiles are the Go files, relative to this package, that embed
// the tree's MiniSL sources.
var treeShaderFiles = []string{
	"../../../core/eglbridge/blit.go",
	"../../../workloads/passmark/passmark.go",
	"../../../webkit/browser.go",
	"../../../harness/blit.go",
	"../../../../examples/photoeditor/main.go",
	"../../../../examples/quickstart/main.go",
	"minisl_test.go",
	"frame_test.go",
}

// fixedFunctionFile embeds GLES 1's fixed-function programs. refShaders
// lists them after every other shader, so each of the others keeps its
// index, which names its TestSpanMatchesReference subtest.
const fixedFunctionFile = "../../../gles/engine/v1.go"

// shaderSources returns every string literal in file that holds a MiniSL
// main function, so the tests run the sources the programs ship rather than
// copies of them.
func shaderSources(tb testing.TB, file string) []string {
	tb.Helper()
	f, err := goparser.ParseFile(gotoken.NewFileSet(), file, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != gotoken.STRING {
			return true
		}
		if src, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(src, "void main") {
			out = append(out, src)
		}
		return true
	})
	return out
}

// linkFile links the vertex and fragment shader embedded in one file.
func linkFile(t *testing.T, file string) *Program {
	t.Helper()
	var vs, fs *Shader
	for _, src := range shaderSources(t, file) {
		if strings.Contains(src, "gl_FragColor") {
			fs = compile(t, src, Fragment)
		} else {
			vs = compile(t, src, Vertex)
		}
	}
	p, err := Link(vs, fs)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return p
}

// bindAll binds every uniform of p to a value of its declared type: a
// sampler gets tex.
func bindAll(p *Program, tex *gpu.Texture) *Binding {
	b := p.Bind()
	for i, n := range p.UniformNames {
		for _, d := range slices.Concat(p.VS.Uniforms, p.FS.Uniforms) {
			if d.Name != n {
				continue
			}
			switch d.Type {
			case "sampler2D":
				b.Set(i, Sampler(tex))
			case "mat4":
				b.Set(i, Mat(gpu.Identity().Translate(0.5, 0, 0)))
			default:
				b.Set(i, Vec(widthOf(d.Type), 0.75, 0.5, 0.25, 1))
			}
		}
	}
	return b
}

// bindingSweep returns bindAll's binding and, for each uniform that is not a
// sampler, bindings that give it another value than its declared type: a
// vector of each width 1 to 4 (with components beyond the width set, as
// Vec leaves them) and a scalar that splats, then a matrix where a vector is
// declared and a vector where a matrix is declared. The engine binds
// whatever a glUniform call gave, without a type check, so a shader must
// run on each as the reference does.
func bindingSweep(p *Program, tex *gpu.Texture) []*Binding {
	bs := []*Binding{bindAll(p, tex)}
	decls := slices.Concat(p.VS.Uniforms, p.FS.Uniforms)
	for i, n := range p.UniformNames {
		typ := ""
		for _, d := range decls {
			if d.Name == n {
				typ = d.Type
			}
		}
		if typ == "sampler2D" {
			continue
		}
		vals := []Value{Float(-0.625)}
		for w := 1; w <= 4; w++ {
			vals = append(vals, Vec(w, 0.375, -1.5, 2.25, 0.125))
		}
		if typ == "mat4" {
			vals = append(vals, Vec(4, 0.5, 0.25, -0.75, 1))
		} else {
			vals = append(vals, Mat(gpu.Identity().Translate(0.25, -0.5, 2)))
		}
		for _, v := range vals {
			b := bindAll(p, tex)
			b.Set(i, v)
			bs = append(bs, b)
		}
	}
	return bs
}

func testTexture() *gpu.Texture {
	img := gpu.NewImage(4, 4)
	img.Fill(gpu.RGBA{R: 40, G: 200, B: 90, A: 255})
	return &gpu.Texture{Img: img}
}

// TestRunFragmentDoesNotAllocate holds fragment shading to zero allocations,
// one fragment at a time and a whole span at once, through Inputs and
// Shade: the present blit, PassMark's complex-scene shader, the WebKit
// tile shader and GLES 1's textured program, each with its sampler bound.
func TestRunFragmentDoesNotAllocate(t *testing.T) {
	for _, file := range []string{
		"../../../core/eglbridge/blit.go",
		"../../../workloads/passmark/passmark.go",
		"../../../webkit/browser.go",
		fixedFunctionFile,
	} {
		t.Run(filepath.Base(filepath.Dir(file)), func(t *testing.T) {
			p := linkFile(t, file)
			f := bindAll(p, testTexture()).Frame(Fragment)
			defer f.Release()
			vary := make([]gpu.Vec4, len(p.VaryNames))
			for i := range vary {
				vary[i] = gpu.Vec4{0.3, 0.6, 0.2, 1}
			}
			if _, _, err := shadeOne(f, vary); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() { shadeOne(f, vary) }); n != 0 {
				t.Fatalf("shading one fragment allocates %v times, want 0", n)
			}
			span := func() {
				index, planes := f.Inputs(len(vary))
				for i, k := range index {
					for l := range planes[i] {
						planes[i][l] = vary[k]
					}
				}
				f.Shade(gpu.SpanSize)
			}
			if n := testing.AllocsPerRun(50, span); n != 0 {
				t.Fatalf("shading a span allocates %v times, want 0", n)
			}
		})
	}
}

// shadeOne shades one fragment, whose varyings are vary in VaryNames order,
// as a span of one. It returns gl_FragColor (colourOf) and the fetch count,
// or the runtime error and neither.
func shadeOne(f *Frame, vary []gpu.Vec4) (gpu.Vec4, int, error) {
	index, planes := f.Inputs(len(vary))
	for i, k := range index {
		planes[i][0] = vary[k]
	}
	_, fetches := f.Shade(1)
	if err := f.errs[0]; err != nil {
		return gpu.Vec4{}, 0, err
	}
	return colourOf(f, 0), fetches[0], nil
}

// TestFrameReuseIsInvisible runs invocations back to back on one frame:
// nothing the first one did may show in the second.
func TestFrameReuseIsInvisible(t *testing.T) {
	vs := compile(t, "varying float v_take; void main(){ gl_Position = vec4(0.0); v_take = 1.0; }", Vertex)
	taken, skipped := []gpu.Vec4{{1}}, []gpu.Vec4{{0}}
	run := func(t *testing.T, fsSrc string, uniforms map[string]Value, vary ...[]gpu.Vec4) (cols []gpu.Vec4, fetches []int, errs []error) {
		t.Helper()
		p, err := Link(vs, compile(t, fsSrc, Fragment))
		if err != nil {
			t.Fatal(err)
		}
		f := bind(p, uniforms).Frame(Fragment)
		defer f.Release()
		for _, v := range vary {
			col, n, err := shadeOne(f, v)
			cols, fetches, errs = append(cols, col), append(fetches, n), append(errs, err)
		}
		return cols, fetches, errs
	}

	t.Run("local-declared-on-skipped-branch", func(t *testing.T) {
		for _, tc := range []struct{ use, want string }{
			{"gl_FragColor = vec4(t);", "undefined variable t"},
			{"t = 0.5; gl_FragColor = vec4(1.0);", "assignment to undeclared t"},
		} {
			src := "varying float v_take; void main(){ if (v_take > 0.5) { float t = 0.25; } " + tc.use + " }"
			_, _, errs := run(t, src, nil, taken, skipped)
			if errs[0] != nil {
				t.Fatalf("%s: first invocation: %v", tc.use, errs[0])
			}
			if errs[1] == nil || !strings.Contains(errs[1].Error(), tc.want) {
				t.Fatalf("%s: second invocation err = %v, want %q", tc.use, errs[1], tc.want)
			}
		}
	})

	t.Run("gl_FragColor-starts-at-zero", func(t *testing.T) {
		cols, _, errs := run(t, "varying float v_take; void main(){ if (v_take > 0.5) { gl_FragColor = vec4(1.0); } }", nil, taken, skipped)
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if cols[0] != (gpu.Vec4{1, 1, 1, 1}) || cols[1] != (gpu.Vec4{}) {
			t.Fatalf("colors = %v, want white then zero", cols)
		}
	})

	t.Run("overwritten-uniform-is-rebound", func(t *testing.T) {
		cols, _, errs := run(t, "uniform float u_a; void main(){ u_a = u_a + 1.0; gl_FragColor = vec4(u_a); }",
			map[string]Value{"u_a": Float(2)}, nil, nil)
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if cols[0][0] != 3 || cols[1][0] != 3 {
			t.Fatalf("colors = %v, want 3 both times", cols)
		}
	})

	t.Run("fetches-count-per-invocation", func(t *testing.T) {
		_, fetches, errs := run(t, "varying float v_take; uniform sampler2D u_tex; void main(){ gl_FragColor = texture2D(u_tex, vec2(v_take)); }",
			map[string]Value{"u_tex": Sampler(testTexture())}, taken, taken)
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if fetches[0] != 1 || fetches[1] != 1 {
			t.Fatalf("fetches = %v, want 1 each", fetches)
		}
	})

	t.Run("step-budget-resets", func(t *testing.T) {
		// The first invocation runs away; the second needs 60000 of its
		// 100000 steps, so it fails if any of the first one's spending
		// carried over.
		cols, _, errs := run(t, `
varying float v_take;
void main() {
  float x = 0.0;
  if (v_take > 0.5) {
    for (float i = 0.0; i < 1.0; i *= 1.0) { x += 1.0; }
  }
  for (float j = 0.0; j < 30000.0; j += 1.0) { x += 1.0; }
  gl_FragColor = vec4(x);
}`, nil, taken, skipped)
		if errs[0] == nil || !strings.Contains(errs[0].Error(), "step limit") {
			t.Fatalf("runaway invocation err = %v, want step limit", errs[0])
		}
		if errs[1] != nil || cols[1][0] != 30000 {
			t.Fatalf("second invocation = %v, %v; want 30000", cols[1], errs[1])
		}
	})
}

// FuzzCompile compiles arbitrary source, links it with a minimal partner
// shader, binds every uniform, and runs it twice on one frame: it must never
// panic, and reusing the frame must not change the result. A fragment shader
// then shades one span of distinct varyings, and a vertex shader one more
// vertex, under every binding of bindingSweep, and each lane must match the
// reference evaluator.
func FuzzCompile(f *testing.F) {
	for _, src := range slices.Concat(refShaders(f), copyMisses) {
		f.Add(src)
	}
	tex := refTexture()
	f.Fuzz(func(t *testing.T, src string) {
		if fs, err := Compile(src, Fragment); err == nil {
			p, ok := withPartner(t, fs)
			if !ok {
				return // repeated varyings of differing types do not link
			}
			b := bindAll(p, tex)
			fr := b.Frame(Fragment)
			vary := make([]gpu.Vec4, len(p.VaryNames))
			for i := range vary {
				vary[i] = gpu.Vec4{0.25, 0.5, 0.75, 1}
			}
			c1, n1, e1 := shadeOne(fr, vary)
			c2, n2, e2 := shadeOne(fr, vary)
			fr.Release()
			if !sameVec(c1, c2) || n1 != n2 || errString(e1) != errString(e2) {
				t.Fatalf("frame reuse changed the result: (%v, %d, %v) then (%v, %d, %v)", c1, n1, e1, c2, n2, e2)
			}
			const lanes = 8
			stride := len(p.VaryNames)
			span := make([]gpu.Vec4, lanes*stride)
			for i := range span {
				l := float32(i/max(stride, 1)) / lanes
				span[i] = gpu.Vec4{l, 1 - l, 2*l - 0.5, float32(i%4) - l}
			}
			for _, b := range bindingSweep(p, tex) {
				checkSpan(t, b, span, stride, lanes)
			}
		}
		if vs, err := Compile(src, Vertex); err == nil {
			p, ok := withPartner(t, vs)
			if !ok {
				return // repeated varyings of differing types do not link
			}
			b := bindAll(p, tex)
			fr := b.Frame(Vertex)
			attribs := make([]Value, len(vs.Attributes))
			for i := range attribs {
				attribs[i] = Vec(4, 0.5, 0.25, 0, 1)
			}
			v1, v2 := make([]gpu.Vec4, len(p.VaryNames)), make([]gpu.Vec4, len(p.VaryNames))
			p1, e1 := fr.RunVertex(attribs, v1)
			p2, e2 := fr.RunVertex(attribs, v2)
			fr.Release()
			same := sameVec(p1, p2) && errString(e1) == errString(e2)
			for i := range v1 {
				same = same && sameVec(v1[i], v2[i])
			}
			if !same {
				t.Fatalf("frame reuse changed the result: (%v, %v, %v) then (%v, %v, %v)", p1, v1, e1, p2, v2, e2)
			}
			for _, b := range bindingSweep(p, tex) {
				checkVertex(t, b, attribs)
			}
		}
	})
}

// sameVec compares bit patterns, so NaN results compare equal.
func sameVec(a, b gpu.Vec4) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestConcurrentDrawsShareProgram shades with one linked program from several
// goroutines at once, each draw binding its own texture and rendering its
// tiles on several workers: every image must match its serial rendering.
func TestConcurrentDrawsShareProgram(t *testing.T) {
	p := linkFile(t, "../../../core/eglbridge/blit.go")
	quad := []gpu.TVert{
		{Pos: gpu.Vec4{-1, -1, 0, 1}, Vary: []gpu.Vec4{{0, 1}}},
		{Pos: gpu.Vec4{1, -1, 0, 1}, Vary: []gpu.Vec4{{1, 1}}},
		{Pos: gpu.Vec4{1, 1, 0, 1}, Vary: []gpu.Vec4{{1, 0}}},
		{Pos: gpu.Vec4{-1, 1, 0, 1}, Vary: []gpu.Vec4{{0, 0}}},
	}
	idx := []int{0, 1, 2, 0, 2, 3}
	draw := func(g int, pool *gpu.Pool) (uint32, gpu.Stats) {
		img := gpu.NewImage(8, 8)
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				img.Set(x, y, gpu.RGBA{R: uint8(32 * g), G: uint8(30 * x), B: uint8(30 * y), A: 255})
			}
		}
		dst := gpu.NewImage(150, 90)
		stats := gpu.DrawTriangles(gpu.NewTarget(dst), quad, idx, bindAll(p, &gpu.Texture{Img: img}), gpu.RenderState{Pool: pool})
		return dst.Checksum(), stats
	}
	const draws = 4
	var want [draws]uint32
	for g := range want {
		want[g], _ = draw(g, nil)
	}
	pool := gpu.NewPool(4)
	errs := make(chan error, draws)
	for g := 0; g < draws; g++ {
		go func() {
			for range 3 {
				sum, stats := draw(g, pool)
				if sum != want[g] || stats.TexFetches != 150*90 {
					errs <- fmt.Errorf("draw %d: checksum %08x, %d fetches; serial %08x, %d", g, sum, stats.TexFetches, want[g], 150*90)
					return
				}
			}
			errs <- nil
		}()
	}
	for range draws {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
