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

// bindings returns bindAll's binding and one that gives every uniform
// but the samplers another value of its declared type.
func bindings(p *Program, tex *gpu.Texture) []*Binding {
	b := bindAll(p, tex)
	for i, typ := range p.UniformTypes {
		switch typ {
		case "sampler2D":
		case "mat4":
			b.Set(i, Mat(gpu.Identity().Translate(0.25, -0.5, 2)))
		default:
			b.Set(i, Vec(widthOf(typ), 0.375, -1.5, 2.25, 0.125))
		}
	}
	return []*Binding{bindAll(p, tex), b}
}

// otherTypes returns a value of each type but typ: a scalar, vectors of
// width 2 to 4, a matrix and a sampler.
func otherTypes(typ string, tex *gpu.Texture) []Value {
	var out []Value
	for _, v := range []Value{Float(-0.625), Vec(2, 0.375, -1.5), Vec(3, 0.375, -1.5, 2.25), Vec(4, 0.375, -1.5, 2.25, 0.125),
		Mat(gpu.Identity().Translate(0.25, -0.5, 2)), Sampler(tex)} {
		if typeOfValue(v) != typeNames[typ] {
			out = append(out, v)
		}
	}
	return out
}

// checkRefusals binds, to every uniform of b's program, a value of each
// other type than its declaration's: Set must refuse each one with an
// error and leave every uniform as it was.
func checkRefusals(t *testing.T, b *Binding, tex *gpu.Texture) {
	t.Helper()
	for i, typ := range b.p.UniformTypes {
		for _, v := range otherTypes(typ, tex) {
			vs, fs := slices.Clone(b.vs), slices.Clone(b.fs)
			if err := b.Set(i, v); err == nil || !slices.Equal(vs, b.vs) || !slices.Equal(fs, b.fs) {
				t.Fatalf("Set(%s %s, %+v) = %v, and the binding changed: %v; want an error and no change",
					typ, b.p.UniformNames[i], v, err, !slices.Equal(vs, b.vs) || !slices.Equal(fs, b.fs))
			}
		}
	}
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
				index, _, planes := f.Inputs(len(vary))
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
	index, _, planes := f.Inputs(len(vary))
	for i, k := range index {
		planes[i][0] = vary[k]
	}
	_, fetches := f.Shade(1)
	if err := f.err(0); err != nil {
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
		// A local is in scope only in its block: using it after the block
		// is a compile error. One declared before the branch and assigned
		// on it reads its zero in an invocation that skips the branch.
		checkStatic(t, "local-read-after-block", "local-written-after-block")
		cols, _, errs := run(t, "varying float v_take; void main(){ float t; if (v_take > 0.5) { t = 0.25; } gl_FragColor = vec4(t); }",
			nil, taken, skipped)
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if cols[0][0] != 0.25 || cols[1][0] != 0 {
			t.Fatalf("colors = %v, want 0.25 then zero", cols)
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
		// A uniform is read-only: a local of its name shadows it, and its
		// initializer reads the uniform.
		checkStatic(t, "uniform-written")
		cols, _, errs := run(t, "uniform float u_a; void main(){ float u_a = u_a + 1.0; gl_FragColor = vec4(u_a); }",
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
// panic, and reusing the frame must not change the result. Binding a value
// of another type to any uniform must be refused (checkRefusals). A
// fragment shader then shades one span of distinct varyings, and a vertex
// shader one more vertex, under each binding of bindings, and each lane's
// declared components must match the reference evaluator's.
func FuzzCompile(f *testing.F) {
	for _, src := range slices.Concat(refShaders(f), copyMisses, rejectedSources(), []string{everyUniformType}) {
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
			checkRefusals(t, b, tex)
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
			for _, b := range bindings(p, tex) {
				checkSpan(t, b, span, stride, lanes)
			}
		}
		if vs, err := Compile(src, Vertex); err == nil {
			p, ok := withPartner(t, vs)
			if !ok {
				return // repeated varyings of differing types do not link
			}
			b := bindAll(p, tex)
			checkRefusals(t, b, tex)
			fr := b.Frame(Vertex)
			attribs := make([]gpu.Vec4, len(vs.Attributes))
			for i := range attribs {
				attribs[i] = gpu.Vec4{0.5, 0.25, 0, 1}
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
			for _, b := range bindings(p, tex) {
				checkVertex(t, b, attribs)
			}
		}
	})
}

// sameVec compares bit patterns, so NaN results compare equal.
func sameVec(a, b gpu.Vec4) bool { return sameComps(a, b, 4) }

// sameComps compares components [0, w) as sameVec does.
func sameComps(a, b gpu.Vec4, w int) bool {
	for i := range w {
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
