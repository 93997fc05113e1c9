package minisl

import (
	"slices"
	"strings"
	"testing"
)

// The width rules Compile and Link enforce. These sources live apart from
// minisl_test.go, whose shaders refShaders lists by index.

// compileError is a source Compile must reject, as kind, with an error
// containing wantIn.
type compileError struct {
	name, src string
	kind      Kind
	wantIn    string
}

// widthErrors break GLSL ES 1.00's rules on widths, which Compile enforces:
// a swizzle reading or writing past its operand's type, component-wise
// arithmetic and builtins over vectors of different widths, a vector
// stored whole into a slot of another width, a float texture coordinate,
// and a global declared twice with two types.
var widthErrors = []compileError{
	{"swizzle-past-vec2", "varying vec2 v; void main(){ gl_FragColor = vec4(v.z); }", Fragment, "swizzle .z reads past vec2"},
	{"swizzle-past-float", "varying float v; void main(){ gl_FragColor = vec4(v.xy, 0.0, 1.0); }", Fragment, "swizzle .xy reads past float"},
	{"swizzle-write-past", "void main(){ vec2 v = vec2(1.0); v.w = 1.0; gl_FragColor = vec4(v, v); }", Fragment, "swizzle .w reads past vec2"},
	{"add-vec4-vec2", "varying vec4 a; varying vec2 b; void main(){ gl_FragColor = a + b; }", Fragment, "operator: vec4 and vec2 differ"},
	{"mul-vec3-vec4", "uniform vec3 u; varying vec4 b; void main(){ gl_FragColor = vec4(u * b.xyz, 1.0) * b.xyz; }", Fragment, "operator: vec4 and vec3 differ"},
	{"min-vec4-vec2", "varying vec4 a; varying vec2 b; void main(){ gl_FragColor = min(a, b); }", Fragment, "min: vec4 and vec2 differ"},
	{"clamp-bounds", "varying vec3 a; void main(){ gl_FragColor = vec4(clamp(a, vec2(0.0), 1.0), 1.0); }", Fragment, "clamp: vec3 and vec2 differ"},
	{"mix-weights", "varying vec3 a; void main(){ gl_FragColor = vec4(mix(a, a, vec2(0.5)), 1.0); }", Fragment, "mix: vec3 and vec2 differ"},
	{"dot-widths", "varying vec3 a; void main(){ gl_FragColor = vec4(dot(a, vec4(1.0))); }", Fragment, "dot: vec3 and vec4 differ"},
	{"pow-widths", "varying vec2 a; void main(){ gl_FragColor = vec4(pow(a, vec3(2.0)), 1.0, 1.0); }", Fragment, "pow: vec2 and vec3 differ"},
	{"store-vec2-in-vec4", "varying vec2 a; void main(){ gl_FragColor = a; }", Fragment, "cannot store vec2 in vec4 gl_FragColor"},
	{"declare-vec4-as-float", "varying vec4 a; void main(){ float k = a; gl_FragColor = vec4(k); }", Fragment, "cannot store vec4 in float k"},
	{"vertex-varying", "attribute vec4 p; varying vec2 v; void main(){ gl_Position = p; v = p.xyz; }", Vertex, "cannot store vec3 in vec2 v"},
	{"float-coordinates", "uniform sampler2D s; varying float v; void main(){ gl_FragColor = texture2D(s, v); }", Fragment, "needs a vec2"},
	{"redefinition", "uniform vec2 u; uniform vec3 u; void main(){ gl_FragColor = vec4(1.0); }", Fragment, "redefinition of u"},
	// A wider write exposing components past a value's width.
	{"exposed-components", `varying vec4 v_a;
void main() {
  vec2 s = vec2(v_a.x);
  gl_FragColor = s;
  if (v_a.w > 0.5) { vec3 t = v_a.xyz; gl_FragColor = t; }
}`, Fragment, "cannot store vec2 in vec4"},
}

// rejectedSources lists the sources of widthErrors and staticErrors.
func rejectedSources() []string {
	var out []string
	for _, tc := range slices.Concat(widthErrors, staticErrors) {
		out = append(out, tc.src)
	}
	return out
}

// TestLinkRejectsUniformOfTwoTypes links a uniform the two stages declare
// with two types, which GLSL ES rejects.
func TestLinkRejectsUniformOfTwoTypes(t *testing.T) {
	vs := compile(t, "uniform vec4 u; void main(){gl_Position = u;}", Vertex)
	fs := compile(t, "uniform vec2 u; void main(){gl_FragColor = vec4(u, u);}", Fragment)
	if _, err := Link(vs, fs); err == nil || !strings.Contains(err.Error(), "uniform u type mismatch") {
		t.Fatalf("link of a uniform declared with two types: %v", err)
	}
}

// staticErrors are compile errors that used to be faults at run time, in
// the lanes that reached them, or programs that kept a per-lane type:
// reading or writing a name outside its declaration's scope, or one never
// declared; one name of two types in one scope; writing a uniform, an
// attribute or a fragment shader's varying; matrix arithmetic other than
// mat4*mat4 and mat4*vec4; a matrix or a sampler stored into a vector, or
// a scalar into a matrix; a sampler anywhere but as texture2D's first
// argument, and a sampler2D local; a call of no builtin, or of the wrong
// arity; a constructor short of components; a swizzle write of more than
// one component; and a mat4 or sampler2D attribute or varying.
var staticErrors = []compileError{
	// Each divergent shader that only a per-lane type could run, as it was.
	{"divergent-local-outside-block", `varying vec4 v_a;
void main() {
  float x = v_a.x;
  if (v_a.y > 0.5) { float t = v_a.z; x = x + t; } else { x = x * 2.0; }
  if (v_a.w > 1.0) { gl_FragColor = vec4(t); } else { gl_FragColor = vec4(x, v_a.y, 0.5, 1.0); }
}`, Fragment, "0:5: undeclared identifier t"},
	{"divergent-local-written-outside-block", `varying vec4 v_a;
void main() {
  if (v_a.x > 0.7) { float t = 1.0; }
  if (v_a.y > 0.3) { t = 0.5; }
  gl_FragColor = vec4(v_a.x, v_a.y, 0.0, 1.0);
}`, Fragment, "0:4: undeclared identifier t"},
	{"divergent-matrix-errors", `varying vec4 v_a;
uniform mat4 u_m;
void main() {
  if (v_a.x > 0.5) { gl_FragColor = vec4((u_m + u_m) * vec4(1.0)); } else { gl_FragColor = u_m * v_a; }
  if (v_a.y > 1.2) { gl_FragColor = v_a * u_m; }
  if (v_a.z > 1.4) { u_m = 1.0; }
}`, Fragment, "mat4 + mat4: matrices have only mat4*mat4 and mat4*vec4"},
	{"divergent-two-widths", `varying vec4 v_a;
void main() {
  if (v_a.x > 0.5) { float q = v_a.y; } else { vec2 q = v_a.zw; }
  gl_FragColor = vec4(q, q);
  if (v_a.w > 0.2) { gl_FragColor.y = -q; }
}`, Fragment, "0:4: undeclared identifier q"},
	{"divergent-matrix-or-vector", `varying vec4 v_a;
uniform mat4 u_m;
void main() {
  if (v_a.x > 0.5) { mat4 q = u_m * u_m; } else { vec4 q = v_a; }
  gl_FragColor = q * v_a;
  if (v_a.y > 0.5) { gl_FragColor = q; }
  if (v_a.z > 0.5) { gl_FragColor = 1.0; }
  gl_FragColor = gl_FragColor * vec4(0.5);
}`, Fragment, "0:5: undeclared identifier q"},
	{"divergent-matrix-locals", `varying vec4 v_a;
uniform mat4 u_m;
void main() {
  mat4 m = u_m;
  mat4 k;
  vec4 p = v_a;
  if (v_a.x > 0.3) { p = m * v_a; m = m * m; k = k * m; } else { if (v_a.w > 1.0) { m = v_a.x; } }
  if (v_a.y > 0.6) { p = normalize(m); }
  gl_FragColor = p * vec4(0.5) + m * v_a + k * v_a;
}`, Fragment, "cannot store float in mat4 m"},
	{"divergent-sampler-local", `varying vec4 v_a;
uniform mat4 u_m;
uniform sampler2D u_tex;
void main() {
  if (v_a.x > 0.5) { mat4 s = u_m; } else { sampler2D s = u_tex; }
  vec4 c = texture2D(s, v_a.yz) + texture2D(u_tex, v_a.zw);
  float k = s;
  vec4 d = k;
  if (v_a.y > 1.0) { d = s; }
  if (v_a.z > 0.8) { d = k; }
  gl_FragColor = c + d.xyzw * (s * v_a) + d * v_a + vec4(dot(d, v_a), length(s), s.x, 1.0);
  if (v_a.w > 1.2) { s = u_tex; }
}`, Fragment, "sampler2D s: samplers are uniforms only"},
	{"divergent-varying-written", `varying vec4 v_a;
uniform mat4 u_m;
void main() {
  vec4 c = v_a * 0.5;
  if (v_a.x > -0.4) { float v_a = v_a.y; }
  if (v_a.z > 0.5) { v_a = u_m; }
  gl_FragColor = c + v_a * vec4(1.0, 2.0, 3.0, 4.0);
}`, Fragment, "cannot assign to varying v_a"},
	{"divergent-swizzle-writes", `varying vec4 v_a;
void main() {
  if (v_a.x > 0.5) { vec4 t = v_a; }
  t.y = v_a.z;
  gl_FragColor = v_a;
  if (v_a.y > 0.8) { gl_FragColor.xy = v_a.zw; }
  gl_FragColor.w = t.y;
}`, Fragment, "0:4: undeclared identifier t"},
	// Texel copies that only a per-lane type could run, as they were.
	{"copy-sampler-locals", `varying vec4 v_a;
uniform sampler2D u_tex;
uniform mat4 u_m;
void main() {
  if (v_a.x > 0.6) { sampler2D s = u_tex; }
  if (v_a.x < 0.2) { mat4 s = u_m; }
  if (v_a.y > 1.5) { vec4 s = v_a; }
  gl_FragColor = texture2D(s, v_a.zw * 4.0 - vec2(2.0));
}`, Fragment, "sampler2D s: samplers are uniforms only"},
	{"copy-two-widths", `varying vec4 v_a;
uniform sampler2D u_tex;
void main() {
  if (v_a.y > 1.0) { float q = v_a.z; } else { vec2 q = v_a.zw; }
  gl_FragColor = texture2D(u_tex, vec4(q, q).xy);
}`, Fragment, "undeclared identifier q"},
	{"copy-local-outside-block", `varying vec4 v_a;
uniform sampler2D u_tex;
void main() {
  if (v_a.x > 0.5) { float t = v_a.y; }
  gl_FragColor = texture2D(u_tex, vec2(t, v_a.z));
}`, Fragment, "undeclared identifier t"},
	{"copy-matrix-sampler", "varying vec4 v_a; uniform sampler2D u_tex; uniform mat4 u_m; void main() { gl_FragColor = texture2D(u_m, v_a.xy); }", Fragment, "texture2D: needs (sampler, vec2)"},
	{"copy-vector-sampler", "varying vec4 v_a; void main() { gl_FragColor = texture2D(v_a, v_a.xy); }", Fragment, "texture2D: needs (sampler, vec2)"},
	{"copy-arity", "varying vec4 v_a; uniform sampler2D u_tex; void main() { gl_FragColor = texture2D(u_tex); }", Fragment, "texture2D: needs (sampler, vec2)"},
	{"copy-varying-written", "varying vec2 v_uv; uniform sampler2D u_tex; void main() { v_uv = v_uv; gl_FragColor = texture2D(u_tex, v_uv); }", Fragment, "cannot assign to varying v_uv"},
	{"copy-sampler-written", "varying vec2 v_uv; uniform sampler2D u_tex; void main() { u_tex = u_tex; gl_FragColor = texture2D(u_tex, v_uv); }", Fragment, "cannot assign to uniform u_tex"},
	{"copy-sampler-varying", "varying vec2 v_uv; varying vec2 u_tex; void main() { gl_FragColor = texture2D(u_tex, v_uv); }", Fragment, "texture2D: needs (sampler, vec2)"},
	{"copy-varying-and-uniform", "varying vec2 v_uv; uniform sampler2D u_tex; uniform vec2 v_uv; void main() { gl_FragColor = texture2D(u_tex, v_uv); }", Fragment, "redefinition of v_uv"},
	// What TestRuntimeErrors, TestFrameReuseIsInvisible and
	// TestInputsAreTheVaryingsRead ran to a fault.
	{"undeclared-read", "void main(){ gl_FragColor = undefined_var; }", Fragment, "undeclared identifier undefined_var"},
	{"undeclared-write", "void main(){ undeclared = vec4(1.0); }", Fragment, "undeclared identifier undeclared"},
	{"matrix-sum", "uniform mat4 u_m; void main(){ gl_FragColor = vec4((u_m + u_m) * vec4(1.0)); }", Fragment, "mat4 + mat4: matrices"},
	{"texture2D-one-arg", "void main(){ gl_FragColor = texture2D(1.0); }", Fragment, "texture2D: needs (sampler, vec2)"},
	{"unknown-function", "void main(){ gl_FragColor = nosuchfn(1.0); }", Fragment, "nosuchfn: unknown function"},
	{"local-read-after-block", "varying float v_take; void main(){ if (v_take > 0.5) { float t = 0.25; } gl_FragColor = vec4(t); }", Fragment, "undeclared identifier t"},
	{"local-written-after-block", "varying float v_take; void main(){ if (v_take > 0.5) { float t = 0.25; } t = 0.5; gl_FragColor = vec4(1.0); }", Fragment, "undeclared identifier t"},
	{"uniform-written", "uniform float u_a; void main(){ u_a = u_a + 1.0; gl_FragColor = vec4(u_a); }", Fragment, "cannot assign to uniform u_a"},
	{"undeclared-varying", "varying vec2 v_b; void main() { gl_FragColor = vec4(v_b + v_c, v_b); }", Fragment, "undeclared identifier v_c"},
	// One of each other rule.
	{"redefinition-in-scope", "void main(){ float x = 1.0; vec2 x = vec2(0.0); gl_FragColor = vec4(1.0); }", Fragment, "redefinition of x"},
	{"attribute-written", "attribute vec4 a; void main(){ a = vec4(0.0); gl_Position = a; }", Vertex, "cannot assign to attribute a"},
	{"vec-times-mat", "uniform mat4 u_m; varying vec4 v; void main(){ gl_FragColor = v * u_m; }", Fragment, "vec4 * mat4: matrices"},
	{"mat-times-vec3", "uniform mat4 u_m; varying vec3 v; void main(){ gl_FragColor = u_m * v; }", Fragment, "mat4 * vec3: matrices"},
	{"mat-times-float", "uniform mat4 u_m; void main(){ mat4 m = u_m * 2.0; gl_FragColor = m * vec4(1.0); }", Fragment, "mat4 * float: matrices"},
	{"matrix-in-vector", "uniform mat4 u_m; void main(){ vec4 q = u_m * u_m; gl_FragColor = q; }", Fragment, "cannot store mat4 in vec4 q"},
	{"sampler-in-vector", "uniform sampler2D u_tex; void main(){ gl_FragColor = u_tex; }", Fragment, "cannot store sampler2D in vec4 gl_FragColor"},
	{"scalar-in-matrix", "uniform mat4 u_m; void main(){ mat4 m = 1.0; gl_FragColor = m * vec4(1.0); }", Fragment, "cannot store float in mat4 m"},
	{"matrix-swizzle", "uniform mat4 u_m; void main(){ gl_FragColor = u_m.xyzw; }", Fragment, "swizzle: a mat4 operand"},
	{"matrix-builtin", "uniform mat4 u_m; void main(){ gl_FragColor = vec4(length(u_m)); }", Fragment, "length: a mat4 operand"},
	{"matrix-condition", "uniform mat4 u_m; void main(){ if (u_m) { gl_FragColor = vec4(1.0); } }", Fragment, "condition: a mat4 operand"},
	{"sampler-arithmetic", "uniform sampler2D u_tex; void main(){ gl_FragColor = vec4(-u_tex); }", Fragment, "operator: a sampler2D operand"},
	{"constructor-short", "varying vec2 v; void main(){ gl_FragColor = vec4(v, 1.0); }", Fragment, "vec4: needs 4 components, got 3"},
	{"clamp-arity", "void main(){ gl_FragColor = vec4(clamp(1.0, 0.0)); }", Fragment, "clamp: needs 3 args"},
	{"swizzle-write-two", "varying vec4 v; void main(){ gl_FragColor = v; gl_FragColor.xy = v.zw; }", Fragment, "only single-component swizzle writes supported"},
	{"matrix-attribute", "attribute mat4 a; void main(){ gl_Position = a * vec4(1.0); }", Vertex, "attribute a: only float and vectors can be attributes"},
	{"sampler-varying", "varying sampler2D v; void main(){ gl_FragColor = vec4(1.0); }", Fragment, "varying v: only float and vectors can be varyings"},
	{"fragcolor-in-vertex", "void main(){ gl_FragColor = vec4(1.0); }", Vertex, "undeclared identifier gl_FragColor"},
}

// checkStatic checks that each named staticErrors program fails to compile
// with its message.
func checkStatic(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		i := slices.IndexFunc(staticErrors, func(tc compileError) bool { return tc.name == name })
		if i < 0 {
			t.Fatalf("no static error %s", name)
		}
		if _, err := Compile(staticErrors[i].src, staticErrors[i].kind); err == nil || !strings.Contains(err.Error(), staticErrors[i].wantIn) {
			t.Fatalf("%s: compile error %v, want %q", name, err, staticErrors[i].wantIn)
		}
	}
}
