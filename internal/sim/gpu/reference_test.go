package gpu_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"cycada/internal/sim/gpu"
	"cycada/internal/sim/gpu/minisl"
)

// The reference rasterizer: DrawTriangles as the rules define it, one
// pixel at a time over the whole framebuffer — no bounding boxes, tiles,
// bins or spans. A pixel is covered when its centre lies inside the
// triangle, or on an edge that is a top or left edge (top-left fill rule);
// the depth test is GL_LESS; blending is overwrite, source-alpha over, or
// saturating add; the scissor rectangle clips. Every value it computes is
// the engine's float32 arithmetic, rounding for rounding, so the two must
// agree byte for byte.

// refVertex is a vertex in target pixels, with its window depth.
type refVertex struct {
	x, y, z float32
	vary    []gpu.Vec4
}

// refProject maps a clip-space vertex onto the viewport, y flipped so that
// NDC +y is up, and depth from [-1,1] to [0,1].
func refProject(v gpu.TVert, vp [4]int) refVertex {
	w := v.Pos[3]
	if w == 0 {
		w = 1
	}
	nx, ny, nz := v.Pos[0]/w, v.Pos[1]/w, v.Pos[2]/w
	return refVertex{
		x:    float32(vp[0]) + float32((nx+1)/2*float32(vp[2])),
		y:    float32(vp[1]) + float32((1-ny)/2*float32(vp[3])),
		z:    float32(nz*0.5) + 0.5,
		vary: v.Vary,
	}
}

// topLeftEdge reports whether the edge with direction (dx, dy) of a
// clockwise triangle in y-down pixels is a top edge (horizontal, running
// right) or a left edge (running up).
func topLeftEdge(dx, dy float32) bool { return dy < 0 || (dy == 0 && dx > 0) }

// bottomRightEdge is the fill rule mirrored: it owns the edges top-left
// does not. A reference built on it must disagree with the engine.
func bottomRightEdge(dx, dy float32) bool { return dy > 0 || (dy == 0 && dx < 0) }

// refDraw is the reference DrawTriangles. shade shades one fragment from
// all its varyings, to the four bytes of its pixel; owns is the fill rule's
// edge test.
func refDraw(dst *gpu.Target, verts []gpu.TVert, indices []int, shade refShade, st gpu.RenderState, owns func(dx, dy float32) bool) gpu.Stats {
	stats := gpu.Stats{Vertices: len(verts)}
	img := dst.Color
	vp := st.Viewport
	if vp[2] == 0 || vp[3] == 0 {
		vp = [4]int{0, 0, img.W, img.H}
	}
	var depth []float32
	if st.DepthTest {
		depth = dst.Depth()
	}
	for i := 0; i+2 < len(indices); i += 3 {
		a, b, c := refProject(verts[indices[i]], vp), refProject(verts[indices[i+1]], vp), refProject(verts[indices[i+2]], vp)
		area := float32((b.x-a.x)*(c.y-a.y)) - float32((b.y-a.y)*(c.x-a.x))
		if area == 0 {
			continue
		}
		if area < 0 { // both windings render: make it clockwise
			b, c = c, b
			area = -area
		}
		inv := 1 / area
		for y := range img.H {
			for x := range img.W {
				if st.Scissor {
					r := st.ScissorRect
					if x < r[0] || y < r[1] || x >= r[0]+r[2] || y >= r[1]+r[3] {
						continue
					}
				}
				px, py := float32(x)+0.5, float32(y)+0.5
				// The edge functions of b→c, c→a and a→b at the pixel centre.
				e0 := float32((b.x-px)*(c.y-py)) - float32((b.y-py)*(c.x-px))
				e1 := float32((c.x-px)*(a.y-py)) - float32((c.y-py)*(a.x-px))
				e2 := float32((a.x-px)*(b.y-py)) - float32((a.y-py)*(b.x-px))
				if e0 < 0 || e1 < 0 || e2 < 0 ||
					(e0 == 0 && !owns(c.x-b.x, c.y-b.y)) ||
					(e1 == 0 && !owns(a.x-c.x, a.y-c.y)) ||
					(e2 == 0 && !owns(b.x-a.x, b.y-a.y)) {
					continue
				}
				w0, w1, w2 := e0*inv, e1*inv, e2*inv
				if depth != nil {
					z := float32(w0*a.z) + float32(w1*b.z) + float32(w2*c.z)
					if z >= depth[y*img.W+x] {
						continue
					}
					depth[y*img.W+x] = z
				}
				vary := make([]gpu.Vec4, len(a.vary))
				for k := range vary {
					for j := range vary[k] {
						vary[k][j] = float32(a.vary[k][j]*w0) + float32(b.vary[k][j]*w1) + float32(c.vary[k][j]*w2)
					}
				}
				col, fetches := shade(vary)
				stats.TexFetches += fetches
				stats.ShaderEvals++
				stats.Pixels++
				refBlend(img.Pix[(y*img.W+x)*4:][:4], col, st.Blend, &stats)
			}
		}
	}
	return stats
}

// refShade shades one fragment from all its varyings: its colour, 8 bits
// a channel in R, G, B, A order, and its texture fetches.
type refShade func([]gpu.Vec4) ([4]uint8, int)

// refBytes converts a normalized colour to 8 bits a channel: clamped to
// [0, 1], scaled to 255 and rounded half up.
func refBytes(col gpu.Vec4) [4]uint8 {
	var b [4]uint8
	for i, v := range col {
		v = min(max(v, 0), 1)
		b[i] = uint8(float32(v*255) + 0.5)
	}
	return b
}

// refBlend writes colour col into the pixel p through the blend mode.
func refBlend(p []byte, col [4]uint8, mode gpu.BlendMode, stats *gpu.Stats) {
	var s [4]uint32
	for i, c := range col {
		s[i] = uint32(c)
	}
	switch mode {
	case gpu.BlendAlpha:
		a := s[3]
		for i := range 3 {
			p[i] = uint8((s[i]*a + uint32(p[i])*(255-a)) / 255)
		}
		p[3] = uint8((a*255 + uint32(p[3])*(255-a)) / 255)
		stats.Blended++
	case gpu.BlendAdditive:
		for i := range p {
			p[i] = uint8(min(s[i]+uint32(p[i]), 255))
		}
		stats.Blended++
	default:
		for i := range p {
			p[i] = uint8(s[i])
		}
	}
}

// refScene is one seeded draw: a target, its initial colour and depth,
// the vertices and indices, and the render state.
type refScene struct {
	name    string
	w, h    int
	color   []byte
	depth   []float32
	verts   []gpu.TVert
	indices []int
	st      gpu.RenderState
}

// refScenes returns seeded triangle sets, nvary varyings a vertex, that
// exercise the fill rule, windings, clipping and every raster state:
// meshes of cells split along shared edges, with vertices on half-pixel
// steps so that edges run exactly through pixel centres; random soups
// reaching off screen, with random depths and w; degenerate triangles; and
// triangles drawn twice, which meet their own depth.
func refScenes(rng *rand.Rand, nvary int) []refScene {
	vertex := func(x, y, z, w float32) gpu.TVert {
		v := gpu.TVert{Pos: gpu.Vec4{x * w, y * w, z * w, w}, Vary: make([]gpu.Vec4, nvary)}
		for k := range v.Vary {
			for j := range v.Vary[k] {
				v.Vary[k][j] = rng.Float32()*1.4 - 0.2
			}
		}
		return v
	}
	// halfStep is a coordinate on a 1/128 NDC grid: on a 128-pixel axis,
	// a half-pixel step.
	halfStep := func(lo, hi int) float32 { return float32(lo+rng.Intn(hi-lo+1)) / 128 }
	var scenes []refScene
	for i := range 48 {
		sc := refScene{w: 128, h: 128}
		if i%3 == 2 {
			sc.w, sc.h = 100, 70 // tiles cut short at the right and bottom
		}
		switch i % 4 {
		case 0: // a mesh of cells, each split in two along a diagonal
			n := 3 + rng.Intn(4)
			grid := make([]gpu.TVert, (n+1)*(n+1))
			for k := range grid {
				gx, gy := k%(n+1), k/(n+1)
				x := float32(gx)/float32(n)*2.4 - 1.2
				y := float32(gy)/float32(n)*2.4 - 1.2
				if rng.Intn(2) == 0 { // snap to the half-pixel grid
					x, y = float32(math.Round(float64(x*128)))/128, float32(math.Round(float64(y*128)))/128
				} else {
					x, y = x+halfStep(-8, 8), y+halfStep(-8, 8)
				}
				grid[k] = vertex(x, y, rng.Float32()*2-1, 1)
			}
			sc.verts = grid
			for gy := range n {
				for gx := range n {
					p := gy*(n+1) + gx
					q := []int{p, p + 1, p + n + 2, p, p + n + 2, p + n + 1}
					if rng.Intn(2) == 0 {
						q = []int{p, p + 1, p + n + 1, p + 1, p + n + 2, p + n + 1}
					}
					if rng.Intn(2) == 0 { // the other winding
						q[1], q[2] = q[2], q[1]
					}
					sc.indices = append(sc.indices, q...)
				}
			}
		case 1: // axis-aligned and half-pixel triangles sharing edges
			for range 12 {
				x0, y0 := halfStep(-160, 160), halfStep(-160, 160)
				x1, y1 := x0+halfStep(1, 96), y0+halfStep(1, 96)
				base := len(sc.verts)
				z := rng.Float32()*2 - 1
				sc.verts = append(sc.verts, vertex(x0, y0, z, 1), vertex(x1, y0, z, 1), vertex(x1, y1, z, 1), vertex(x0, y1, z, 1))
				sc.indices = append(sc.indices, base, base+1, base+2, base+2, base+3, base)
			}
			// A quad drawn again: at equal depth, GL_LESS rejects it.
			sc.indices = append(sc.indices, sc.indices[:6]...)
		default: // a random soup, off screen too, with degenerate triangles
			for range 16 {
				base := len(sc.verts)
				for range 3 {
					sc.verts = append(sc.verts, vertex(rng.Float32()*5-2.5, rng.Float32()*5-2.5, rng.Float32()*2.4-1.2, 0.5+rng.Float32()*1.5))
				}
				switch rng.Intn(6) {
				case 0: // collinear
					sc.verts[base+2].Pos = sc.verts[base].Pos.Add(sc.verts[base+1].Pos).Scale(0.5)
				case 1: // a repeated vertex
					sc.verts[base+2] = sc.verts[base+1]
				}
				sc.indices = append(sc.indices, base, base+1, base+2)
				if rng.Intn(4) == 0 { // again, as the other winding
					sc.indices = append(sc.indices, base, base+2, base+1)
				}
			}
		}
		sc.st.Blend = gpu.BlendMode(rng.Intn(3))
		sc.st.DepthTest = rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			sc.st.Scissor = true
			sc.st.ScissorRect = [4]int{rng.Intn(sc.w) - 10, rng.Intn(sc.h) - 10, rng.Intn(sc.w), rng.Intn(sc.h)}
		}
		if rng.Intn(4) == 0 {
			sc.st.Viewport = [4]int{rng.Intn(20) - 10, rng.Intn(20) - 10, sc.w/2 + rng.Intn(sc.w), sc.h/2 + rng.Intn(sc.h)}
		}
		sc.color = make([]byte, sc.w*sc.h*4)
		rng.Read(sc.color)
		sc.depth = make([]float32, sc.w*sc.h)
		for k := range sc.depth {
			sc.depth[k] = rng.Float32()*1.2 - 0.1
		}
		sc.name = fmt.Sprintf("%d/blend=%d,depth=%v,scissor=%v,viewport=%v", i, sc.st.Blend, sc.st.DepthTest, sc.st.Scissor, sc.st.Viewport)
		scenes = append(scenes, sc)
	}
	return scenes
}

// rectScenes returns seeded 1:1 blits of a w x h texture: rectangles whose
// varying vary runs from (0, 0) at the top left to (1, 1) at the bottom
// right, nvary varyings a vertex, filling a w x h target or placed in a
// 128x128 or 100x70 one by a viewport or by their corners, split along
// either diagonal in either winding, with a scissor rectangle that holds
// the rectangle, one that cuts it, or none. Drawn without blending or the
// depth test, such a rectangle is copied rather than rasterized.
func rectScenes(rng *rand.Rand, w, h, nvary, vary int) []refScene {
	var scenes []refScene
	for i := range 12 {
		sc := refScene{w: w, h: h}
		x0, y0 := 0, 0
		corner := func(k int) gpu.Vec4 { return gpu.Vec4{float32(k&1)*2 - 1, 1 - float32(k>>1)*2, 0, 1} }
		switch i % 3 {
		case 1:
			sc.w, sc.h = 100, 70
			x0, y0 = rng.Intn(sc.w-w+1), rng.Intn(sc.h-h+1)
			sc.st.Viewport = [4]int{x0, y0, w, h}
		case 2:
			// On a 128-pixel axis, NDC steps of 1/64 are whole pixels.
			sc.w, sc.h = 128, 128
			x0, y0 = rng.Intn(sc.w-w+1), rng.Intn(sc.h-h+1)
			corner = func(k int) gpu.Vec4 {
				return gpu.Vec4{float32(x0+(k&1)*w)/64 - 1, 1 - float32(y0+(k>>1)*h)/64, 0, 1}
			}
		}
		for k := range 4 {
			v := gpu.TVert{Pos: corner(k), Vary: make([]gpu.Vec4, nvary)}
			for j := range v.Vary {
				v.Vary[j] = gpu.Vec4{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
			}
			v.Vary[vary] = gpu.Vec4{float32(k & 1), float32(k >> 1), rng.Float32(), rng.Float32()}
			sc.verts = append(sc.verts, v)
		}
		sc.indices = [][]int{{0, 1, 3, 0, 3, 2}, {0, 1, 2, 1, 3, 2}, {0, 3, 1, 3, 0, 2}, {1, 0, 2, 2, 3, 1}}[rng.Intn(4)]
		switch rng.Intn(3) {
		case 1:
			sc.st.Scissor = true
			sc.st.ScissorRect = [4]int{x0, y0, w, h}
		case 2:
			sc.st.Scissor = true
			sc.st.ScissorRect = [4]int{x0 + 1, y0, w, h}
		}
		sc.color = make([]byte, sc.w*sc.h*4)
		rng.Read(sc.color)
		sc.depth = make([]float32, sc.w*sc.h)
		sc.name = fmt.Sprintf("rect %d/at (%d,%d) in %dx%d, scissor=%v %v, viewport=%v", i, x0, y0, sc.w, sc.h, sc.st.Scissor, sc.st.ScissorRect, sc.st.Viewport)
		scenes = append(scenes, sc)
	}
	return scenes
}

// target returns a fresh target holding the scene's initial colour and
// depth.
func (sc refScene) target() *gpu.Target {
	img := gpu.NewImage(sc.w, sc.h)
	copy(img.Pix, sc.color)
	t := gpu.NewTarget(img)
	copy(t.Depth(), sc.depth)
	return t
}

// sameTargets reports whether two targets hold the same colour bytes and
// the same depth bits.
func sameTargets(a, b *gpu.Target) bool {
	if !bytes.Equal(a.Color.Pix, b.Color.Pix) {
		return false
	}
	da, db := a.Depth(), b.Depth()
	for i := range da {
		if math.Float32bits(da[i]) != math.Float32bits(db[i]) {
			return false
		}
	}
	return true
}

// oneAtATime shades one fragment at a time through a fragment stage: a
// span of one, its varyings written to the planes the stage asks for.
func oneAtATime(fs gpu.FragShader) refShade {
	return func(vary []gpu.Vec4) ([4]uint8, int) {
		f := fs.Acquire()
		defer fs.Release(f)
		index, planes := f.Inputs(len(vary))
		for i, k := range index {
			planes[i][0] = vary[k]
		}
		col, fetches := f.Shade(1)
		c := col[0]
		return [4]uint8{uint8(c), uint8(c >> 8), uint8(c >> 16), uint8(c >> 24)}, fetches[0]
	}
}

// refStages returns the fragment stages the oracle runs, each with the
// reference's shading of one fragment: the GLES 1 engine's textured
// fixed-function program, which the reference computes as drawFixed once
// did, its colour times one Texture.Sample; a MiniSL program that samples a
// texture and reads two of its three varyings, shaded one fragment at a
// time; and the present blit's MiniSL program, which copies the texel at
// its varying to gl_FragColor, and which the reference samples with
// Texture.Sample and converts itself.
func refStages(t *testing.T) (stages []gpu.FragShader, shades []refShade, names []string, nvary []int) {
	fixedVS, err := minisl.Compile(`attribute vec4 a_pos; attribute vec4 a_color; attribute vec2 a_uv;
varying vec4 v_color; varying vec2 v_uv;
void main() { gl_Position = a_pos; v_color = a_color; v_uv = a_uv; }`, minisl.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	fixedFS, err := minisl.Compile(`uniform sampler2D u_tex; varying vec4 v_color; varying vec2 v_uv;
void main() { gl_FragColor = v_color * texture2D(u_tex, v_uv); }`, minisl.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := minisl.Compile(`varying vec4 v_a; varying vec4 v_b; varying vec2 v_c;
void main() { gl_Position = vec4(0.0); v_a = vec4(0.0); v_b = vec4(0.0); v_c = vec2(0.0); }`, minisl.Vertex)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := minisl.Compile(`varying vec4 v_a; varying vec2 v_c; uniform sampler2D u_tex;
void main() {
  vec4 t = texture2D(u_tex, v_c * 3.0 - vec2(1.0));
  gl_FragColor = t * v_a + vec4(v_c.y * 0.25);
  if (v_a.x > 0.9) { gl_FragColor = texture2D(u_tex, v_a.yz); }
}`, minisl.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	copyFS, err := minisl.Compile(`varying vec2 v_c; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_c); }`, minisl.Fragment)
	if err != nil {
		t.Fatal(err)
	}
	img := gpu.NewImage(7, 5)
	rand.New(rand.NewSource(7)).Read(img.Pix)
	tex := &gpu.Texture{Img: img, Repeat: true}
	var binds []*minisl.Binding
	for _, pair := range [][2]*minisl.Shader{{fixedVS, fixedFS}, {vs, fs}, {vs, copyFS}} {
		p, err := minisl.Link(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		b := p.Bind()
		b.Set(0, minisl.Sampler(tex))
		binds = append(binds, b)
	}
	// v_c is varying 2 of v_a, v_b, v_c.
	copyTexel := func(v []gpu.Vec4) ([4]uint8, int) {
		return refBytes(tex.Sample(v[2][0], v[2][1])), 1
	}
	// v_color and v_uv are varyings 0 and 1.
	modulate := func(v []gpu.Vec4) ([4]uint8, int) {
		return refBytes(v[0].Mul(tex.Sample(v[1][0], v[1][1]))), 1
	}
	return []gpu.FragShader{binds[0], binds[1], binds[2]},
		[]refShade{modulate, oneAtATime(binds[1]), copyTexel},
		[]string{"GLES1-textured", "MiniSL", "MiniSL-texel-copy"}, []int{2, 3, 3}
}

// TestRasterizerMatchesReference holds DrawTriangles to the reference
// rasterizer on seeded triangle sets, through each of refStages' programs,
// on one worker and on four: the same colour bytes, the same depth bits and
// the same Stats. The texel-copy program also draws rectScenes, and some
// of those draws must be copied. It also checks that the sets decide the
// fill rule: a reference that owns bottom-right edges instead must
// disagree.
func TestRasterizerMatchesReference(t *testing.T) {
	stages, shades, names, nvary := refStages(t)
	for s, stage := range stages {
		t.Run(names[s], func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(s + 1)))
			scenes := refScenes(rng, nvary[s])
			if names[s] == "MiniSL-texel-copy" {
				scenes = append(scenes, rectScenes(rng, 7, 5, nvary[s], 2)...)
			}
			flipped, copied := 0, 0
			for _, sc := range scenes {
				want := sc.target()
				wantStats := refDraw(want, sc.verts, sc.indices, shades[s], sc.st, topLeftEdge)
				for _, workers := range []int{1, 4} {
					got := sc.target()
					st := sc.st
					st.Pool = gpu.NewPool(workers)
					fs := &acquireCount{FragShader: stage}
					gotStats := gpu.DrawTriangles(got, sc.verts, sc.indices, fs, st)
					if fs.n.Load() == 0 && wantStats.Pixels > 0 {
						copied++
					}
					if gotStats != wantStats {
						t.Fatalf("%s, %d workers: stats %+v, reference %+v", sc.name, workers, gotStats, wantStats)
					}
					if !sameTargets(got, want) {
						t.Fatalf("%s, %d workers: colour or depth differs from the reference", sc.name, workers)
					}
				}
				mirrored := sc.target()
				refDraw(mirrored, sc.verts, sc.indices, shades[s], sc.st, bottomRightEdge)
				if !sameTargets(mirrored, want) {
					flipped++
				}
			}
			if flipped == 0 {
				t.Fatal("no scene depends on the fill rule: a flipped top-left rule would pass")
			}
			if names[s] == "MiniSL-texel-copy" && copied == 0 {
				t.Fatal("no rectangle was copied")
			}
		})
	}
}

// acquireCount counts the fragments a draw takes from its stage, keeping
// the stage's TexelCopy where it has one: a copied draw takes none.
type acquireCount struct {
	gpu.FragShader
	n atomic.Int32
}

func (a *acquireCount) Acquire() gpu.Fragment {
	a.n.Add(1)
	return a.FragShader.Acquire()
}

func (a *acquireCount) TexelCopy() (*gpu.Texture, int, bool) {
	if tc, ok := a.FragShader.(gpu.TexelCopier); ok {
		return tc.TexelCopy()
	}
	return nil, 0, false
}
