package minisl

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cycada/internal/sim/gpu"
)

const quadVS = `
attribute vec4 a_position;
attribute vec2 a_texcoord;
uniform mat4 u_mvp;
varying vec2 v_texcoord;
void main() {
  gl_Position = u_mvp * a_position;
  v_texcoord = a_texcoord;
}
`

const texFS = `
precision mediump float;
varying vec2 v_texcoord;
uniform sampler2D u_tex;
uniform float u_alpha;
void main() {
  vec4 c = texture2D(u_tex, v_texcoord);
  gl_FragColor = vec4(c.rgb, c.a * u_alpha);
}
`

func compile(t *testing.T, src string, k Kind) *Shader {
	t.Helper()
	sh, err := Compile(src, k)
	if err != nil {
		t.Fatalf("compile %v: %v", k, err)
	}
	return sh
}

func link(t *testing.T) *Program {
	t.Helper()
	p, err := Link(compile(t, quadVS, Vertex), compile(t, texFS, Fragment))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bind binds uniforms by name, leaving the rest unset.
func bind(p *Program, uniforms map[string]Value) *Binding {
	b := p.Bind()
	for i, n := range p.UniformNames {
		if v, ok := uniforms[n]; ok {
			b.Set(i, v)
		}
	}
	return b
}

// runFragment shades one fragment on a fresh binding.
func runFragment(p *Program, vary []gpu.Vec4, uniforms map[string]Value) (gpu.Vec4, int, error) {
	f := bind(p, uniforms).Frame(Fragment)
	defer f.Release()
	return shadeOne(f, vary)
}

func TestCompileCollectsDeclarations(t *testing.T) {
	sh := compile(t, quadVS, Vertex)
	if len(sh.Attributes) != 2 || sh.Attributes[0].Name != "a_position" {
		t.Fatalf("attributes = %v", sh.Attributes)
	}
	if len(sh.Uniforms) != 1 || sh.Uniforms[0].Type != "mat4" {
		t.Fatalf("uniforms = %v", sh.Uniforms)
	}
	if len(sh.Varyings) != 1 {
		t.Fatalf("varyings = %v", sh.Varyings)
	}
	if sh.Tokens < 20 {
		t.Fatalf("token count = %d, suspiciously low", sh.Tokens)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []compileError{
		{"no-main", "uniform float u;", Fragment, "no main"},
		{"bad-type", "uniform floatx u;", Fragment, "unknown type"},
		{"attr-in-fs", "attribute vec4 a;void main(){gl_Position = a;}", Fragment, "attribute in fragment"},
		{"bad-char", "void main(){ @ }", Fragment, "unexpected character"},
		{"unterminated", "void main(){ gl_FragColor = vec4(1.0);", Fragment, "unterminated"},
		{"bad-swizzle", "void main(){ vec4 v = vec4(1.0); gl_FragColor = v.qq; }", Fragment, "invalid swizzle"},
		{"missing-semi", "void main(){ float x = 1.0 }", Fragment, "expected"},
		{"number-two-points", "void main(){ gl_FragColor = vec4(1.2.3); }", Fragment, "bad number 1.2.3"},
		{"number-double-point", "void main(){ gl_FragColor = vec4(1..5); }", Fragment, "bad number 1..5"},
		{"bad-swizzle-write", "void main(){ vec4 v = vec4(1.0); v.q = 1.0; gl_FragColor = v; }", Fragment, "invalid swizzle .q"},
	}
	for _, tc := range slices.Concat(cases, widthErrors, staticErrors) {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, tc.kind)
			if err == nil {
				t.Fatal("compile succeeded")
			}
			if !strings.Contains(err.Error(), tc.wantIn) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantIn)
			}
		})
	}
}

func TestLinkValidatesVaryings(t *testing.T) {
	vs := compile(t, "void main(){gl_Position = vec4(0.0);}", Vertex)
	fs := compile(t, "varying vec2 v_uv;void main(){gl_FragColor = vec4(v_uv, 0.0, 1.0);}", Fragment)
	if _, err := Link(vs, fs); err == nil {
		t.Fatal("link succeeded with unwritten varying")
	}
	vs2 := compile(t, "varying vec4 v_uv;void main(){gl_Position = vec4(0.0); v_uv = vec4(1.0);}", Vertex)
	if _, err := Link(vs2, fs); err == nil {
		t.Fatal("link succeeded with varying type mismatch")
	}
	if _, err := Link(fs, vs); err == nil {
		t.Fatal("link succeeded with swapped kinds")
	}
	if _, err := Link(nil, fs); err == nil {
		t.Fatal("link succeeded with nil shader")
	}
}

func TestVertexShaderTransforms(t *testing.T) {
	p := link(t)
	mvp := gpu.Identity().Translate(1, 0, 0)
	f := bind(p, map[string]Value{"u_mvp": Mat(mvp)}).Frame(Vertex)
	defer f.Release()
	vary := make([]gpu.Vec4, len(p.VaryNames))
	pos, err := f.RunVertex([]gpu.Vec4{{0.5, 0, 0, 1}, {0.25, 0.75}}, vary)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(pos[0]-1.5)) > 1e-5 {
		t.Fatalf("gl_Position.x = %v, want 1.5", pos[0])
	}
	if len(vary) != 1 || vary[0][0] != 0.25 || vary[0][1] != 0.75 {
		t.Fatalf("varyings = %v", vary)
	}
}

func TestFragmentShaderSamplesTexture(t *testing.T) {
	p := link(t)
	img := gpu.NewImage(2, 2)
	img.Fill(gpu.RGBA{G: 255, A: 255})
	col, fetches, err := runFragment(p,
		[]gpu.Vec4{{0.5, 0.5, 0, 0}},
		map[string]Value{
			"u_tex":   Sampler(&gpu.Texture{Img: img}),
			"u_alpha": Float(0.5),
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if fetches != 1 {
		t.Fatalf("fetches = %d, want 1", fetches)
	}
	if col[1] != 1 || math.Abs(float64(col[3]-0.5)) > 0.01 {
		t.Fatalf("color = %v, want green at half alpha", col)
	}
}

func TestControlFlowAndLoops(t *testing.T) {
	fs := compile(t, `
uniform float u_n;
void main() {
  float acc = 0.0;
  for (float i = 0.0; i < u_n; i += 1.0) {
    acc += 0.125;
  }
  if (acc > 0.4) {
    gl_FragColor = vec4(acc, 1.0, 0.0, 1.0);
  } else {
    gl_FragColor = vec4(acc, 0.0, 0.0, 1.0);
  }
}
`, Fragment)
	vs := compile(t, "void main(){gl_Position = vec4(0.0);}", Vertex)
	p, err := Link(vs, fs)
	if err != nil {
		t.Fatal(err)
	}
	col, _, err := runFragment(p, nil, map[string]Value{"u_n": Float(4)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(col[0]-0.5)) > 1e-5 || col[1] != 1 {
		t.Fatalf("color = %v, want (0.5, 1, 0, 1)", col)
	}
	col, _, err = runFragment(p, nil, map[string]Value{"u_n": Float(2)})
	if err != nil {
		t.Fatal(err)
	}
	if col[1] != 0 {
		t.Fatalf("else branch not taken: %v", col)
	}
}

func TestInfiniteLoopAborts(t *testing.T) {
	fs := compile(t, `
void main() {
  float x = 0.0;
  for (float i = 0.0; i < 1.0; i *= 1.0) {
    x += 1.0;
  }
  gl_FragColor = vec4(x);
}
`, Fragment)
	vs := compile(t, "void main(){gl_Position = vec4(0.0);}", Vertex)
	p, err := Link(vs, fs)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := runFragment(p, nil, nil); err == nil {
		t.Fatal("runaway loop did not abort")
	}
}

func TestBuiltins(t *testing.T) {
	runScalar := func(t *testing.T, body string, uniforms map[string]Value) gpu.Vec4 {
		t.Helper()
		fs := compile(t, "uniform float u_a; uniform float u_b; void main(){"+body+"}", Fragment)
		vs := compile(t, "void main(){gl_Position = vec4(0.0);}", Vertex)
		p, err := Link(vs, fs)
		if err != nil {
			t.Fatal(err)
		}
		col, _, err := runFragment(p, nil, uniforms)
		if err != nil {
			t.Fatal(err)
		}
		return col
	}
	u := map[string]Value{"u_a": Float(2), "u_b": Float(3)}
	cases := []struct {
		body string
		want float32
	}{
		{"gl_FragColor = vec4(min(u_a, u_b));", 2},
		{"gl_FragColor = vec4(max(u_a, u_b));", 3},
		{"gl_FragColor = vec4(pow(u_a, u_b) / 8.0);", 1},
		{"gl_FragColor = vec4(clamp(u_a, 0.0, 1.0));", 1},
		{"gl_FragColor = vec4(dot(vec2(u_a, u_b), vec2(1.0, 1.0)) / 5.0);", 1},
		{"gl_FragColor = vec4(mix(0.0, 1.0, 0.25));", 0.25},
		{"gl_FragColor = vec4(fract(1.75));", 0.75},
		{"gl_FragColor = vec4(floor(1.75) - 1.0);", 0},
		{"gl_FragColor = vec4(abs(0.0 - u_a) / 2.0);", 1},
		{"gl_FragColor = vec4(length(vec3(0.0, u_b, 4.0)) / 5.0);", 1},
		{"gl_FragColor = vec4(normalize(vec2(u_b, 4.0)).y);", 0.8},
		{"gl_FragColor = vec4(sin(0.0) + cos(0.0));", 1},
	}
	for _, tc := range cases {
		col := runScalar(t, tc.body, u)
		if math.Abs(float64(col[0]-tc.want)) > 1e-4 {
			t.Errorf("%s = %v, want %v", tc.body, col[0], tc.want)
		}
	}
}

func TestSwizzleReadWrite(t *testing.T) {
	fs := compile(t, `
void main() {
  vec4 v = vec4(0.1, 0.2, 0.3, 0.4);
  vec2 sw = v.zy;
  v.x = sw.x;
  gl_FragColor = v;
}
`, Fragment)
	vs := compile(t, "void main(){gl_Position = vec4(0.0);}", Vertex)
	p, err := Link(vs, fs)
	if err != nil {
		t.Fatal(err)
	}
	col, _, err := runFragment(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(col[0]-0.3)) > 1e-5 {
		t.Fatalf("swizzle write failed: %v", col)
	}
}

// TestRuntimeErrors checks the one fault left at run time, the step limit,
// reached in a loop's body, in a loop's post statement, in a nested loop,
// in a loop inside a branch, and in a loop whose condition never turns
// false. Everything else that used to fault at run time — an undeclared
// name, a matrix sum, a call of the wrong arity or of no builtin — is a
// compile error (staticErrors).
func TestRuntimeErrors(t *testing.T) {
	vs := compile(t, "void main(){gl_Position = vec4(0.0);}", Vertex)
	for _, src := range []string{
		"void main(){ float x = 0.0; for (float i = 0.0; i < 1.0; i *= 1.0) { x += 1.0; } gl_FragColor = vec4(x); }",
		"void main(){ for (float i = 0.0; i < 1.0; i -= 1.0) { } gl_FragColor = vec4(1.0); }",
		"void main(){ float x = 0.0; for (float i = 0.0; i < 400.0; i += 1.0) { for (float j = 0.0; j < 400.0; j += 1.0) { x += 1.0; } } gl_FragColor = vec4(x); }",
		"void main(){ if (1.0 > 0.0) { for (float i = 0.0; i == i; i += 1.0) { } } gl_FragColor = vec4(1.0); }",
		"void main(){ float x = 0.0; for (float i = 0.0; i < 1.0; x += 1.0) { vec4 c = vec4(x); } gl_FragColor = vec4(x); }",
	} {
		p, err := Link(vs, compile(t, src, Fragment))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := runFragment(p, nil, nil); err != errSteps {
			t.Errorf("runtime error %v for %q, want the step limit", err, src)
		}
	}
}

func TestCompoundAssignAndIncrement(t *testing.T) {
	fs := compile(t, `
void main() {
  float x = 1.0;
  x *= 4.0;
  x -= 1.0;
  x /= 3.0;
  x++;
  gl_FragColor = vec4(x / 2.0);
}
`, Fragment)
	vs := compile(t, "void main(){gl_Position = vec4(0.0);}", Vertex)
	p, err := Link(vs, fs)
	if err != nil {
		t.Fatal(err)
	}
	col, _, err := runFragment(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(col[0]-1)) > 1e-5 {
		t.Fatalf("x = %v, want 2 (color 1)", col[0]*2)
	}
}

func TestCommentsIgnored(t *testing.T) {
	compile(t, `
// line comment
/* block
   comment */
void main() { gl_Position = vec4(0.0); } // trailing
`, Vertex)
}

func TestKindString(t *testing.T) {
	if Vertex.String() != "vertex" || Fragment.String() != "fragment" {
		t.Fatal("Kind.String wrong")
	}
}
