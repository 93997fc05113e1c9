package minisl

import (
	"strings"
	"testing"
)

// The width rules Compile and Link enforce. These sources live apart from
// minisl_test.go, whose shaders refShaders lists by index.

// widthErrors break GLSL ES 1.00's rules on widths, which Compile enforces:
// a swizzle reading or writing past its operand's type, component-wise
// arithmetic and builtins over vectors of different widths, a vector
// stored whole into a slot of another width, a float texture coordinate,
// and a global declared twice with two types.
var widthErrors = []struct {
	name, src string
	kind      Kind
	wantIn    string
}{
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

// rejectedSources lists the sources of widthErrors.
func rejectedSources() []string {
	var out []string
	for _, tc := range widthErrors {
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
