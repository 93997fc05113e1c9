package minisl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"cycada/internal/sim/gpu"
)

// The rectangle copy: gpu.DrawTriangles copies a 1:1 texel-copy rectangle
// drawn with a program Binding.TexelCopy reports instead of rasterizing it.
// These tests draw the shipped present blit both ways, and hold the copy to
// the rasterizer.

// counted is a binding that counts the fragment frames its draws take:
// none when a draw is copied.
type counted struct {
	*Binding
	frames atomic.Int32
}

func (c *counted) Acquire() gpu.Fragment {
	c.frames.Add(1)
	return c.Binding.Acquire()
}

// rasterOnly hides a binding's TexelCopy, so its draws always rasterize.
type rasterOnly struct{ gpu.FragShader }

// blitQuad is a 1:1 rectangle drawn through the present blit's vertex
// shader: each corner k, (k&1, k>>1) in the rectangle's units, has a
// position in NDC and a texture coordinate; tris lists the two triangles
// as corners; shared says whether the triangles index four shared
// vertices or six of their own.
type blitQuad struct {
	pos, uv [4]gpu.Vec4
	tris    [6]int
	shared  bool
}

// newQuad returns the quad filling NDC, uv (0, 0) at the top left and
// (1, 1) at the bottom right, split along a diagonal chosen by rng and
// with each triangle's corners in an order and winding chosen by rng.
func newQuad(rng *rand.Rand) blitQuad {
	var q blitQuad
	for k := range q.pos {
		x, y := float32(k&1), float32(k>>1)
		q.pos[k] = gpu.Vec4{2*x - 1, 1 - 2*y, 0, 1}
		q.uv[k] = gpu.Vec4{x, y}
	}
	tris := [][6]int{{0, 1, 3, 0, 3, 2}, {0, 1, 2, 1, 3, 2}}[rng.Intn(2)]
	for t := range 2 {
		tri := tris[3*t : 3*t+3]
		r := rng.Intn(3)
		tri[0], tri[1], tri[2] = tri[r], tri[(r+1)%3], tri[(r+2)%3]
		if rng.Intn(2) == 0 {
			tri[1], tri[2] = tri[2], tri[1]
		}
	}
	if rng.Intn(2) == 0 {
		tris = [6]int{tris[3], tris[4], tris[5], tris[0], tris[1], tris[2]}
	}
	q.tris, q.shared = tris, rng.Intn(2) == 0
	return q
}

// vertices runs b's vertex shader on q's corners and returns the vertices
// and indices of the draw.
func (q blitQuad) vertices(t *testing.T, b *Binding) ([]gpu.TVert, []int) {
	t.Helper()
	corners := []int{0, 1, 2, 3}
	if !q.shared {
		corners = q.tris[:]
	}
	verts := make([]gpu.TVert, len(corners))
	vf := b.Frame(Vertex)
	defer vf.Release()
	for i, k := range corners {
		verts[i].Vary = make([]gpu.Vec4, len(b.p.VaryNames))
		var err error
		if verts[i].Pos, err = vf.RunVertex([]gpu.Vec4{q.pos[k], q.uv[k]}, verts[i].Vary); err != nil {
			t.Fatal(err)
		}
	}
	if !q.shared {
		return verts, []int{0, 1, 2, 3, 4, 5}
	}
	return verts, q.tris[:]
}

// drawTwice draws q through b as it is, and through rasterOnly, each onto
// a target fresh returns, and fails unless both write the same pixels and
// report the same Stats. It reports whether the first draw was copied.
func drawTwice(t *testing.T, name string, b *Binding, q blitQuad, st gpu.RenderState, fresh func() *gpu.Target) bool {
	t.Helper()
	verts, idx := q.vertices(t, b)
	c := &counted{Binding: b}
	direct := fresh()
	got := gpu.DrawTriangles(direct, verts, idx, c, st)
	pix := bytes.Clone(direct.Color.Pix)
	raster := fresh()
	want := gpu.DrawTriangles(raster, verts, idx, rasterOnly{b}, st)
	if got != want || !bytes.Equal(pix, raster.Color.Pix) {
		t.Fatalf("%s: direct draw %+v (pixels equal: %v), rasterized %+v", name, got, bytes.Equal(pix, raster.Color.Pix), want)
	}
	return c.frames.Load() == 0
}

// randomImage returns a w x h image of seeded noise.
func randomImage(rng *rand.Rand, w, h int) *gpu.Image {
	img := gpu.NewImage(w, h)
	rng.Read(img.Pix)
	return img
}

// freshFrom returns a function that makes targets holding a copy of img.
func freshFrom(img *gpu.Image) func() *gpu.Target {
	return func() *gpu.Target {
		c := gpu.NewImage(img.W, img.H)
		copy(c.Pix, img.Pix)
		return gpu.NewTarget(c)
	}
}

// TestRectCopyMatchesRasterizer sweeps 1:1 blits of the shipped present
// blit program over 420 seeded sizes from 1x1 to 2047x2047, 320x200 among
// them: filling the target, placed inside a larger one by a viewport or by
// their NDC corners, under a scissor rectangle that holds them or without,
// in every triangulation and winding of the quad, with four or six
// vertices, and in both wrap modes. Every draw must be copied, and write
// the pixels and Stats the rasterizer does.
func TestRectCopyMatchesRasterizer(t *testing.T) {
	p := linkFile(t, "../../../core/eglbridge/blit.go")
	rng := rand.New(rand.NewSource(1))
	sizes := [][2]int{{1, 1}, {320, 200}, {2047, 2047}, {2047, 1}, {1, 2047}, {2, 3}, {64, 64}, {65, 63}}
	for len(sizes) < 420 {
		// Sides from 1 to 2047, most of them small: a sweep of large ones
		// would spend minutes rasterizing under the race detector.
		side := func() int { u := rng.Float64(); return min(2047, int(math.Exp2(11*u*u))) }
		sizes = append(sizes, [2]int{side(), side()})
	}
	for i, size := range sizes {
		w, h := size[0], size[1]
		tex := &gpu.Texture{Img: randomImage(rng, w, h), Repeat: rng.Intn(2) == 0}
		b := bindAll(p, tex)
		q := newQuad(rng)
		var st gpu.RenderState
		x0, y0, tw, th := 0, 0, w, h
		place := "full"
		switch rng.Intn(3) {
		case 1:
			x0, y0 = rng.Intn(40), rng.Intn(40)
			tw, th = x0+w+rng.Intn(40), y0+h+rng.Intn(40)
			st.Viewport = [4]int{x0, y0, w, h}
			place = "viewport"
		case 2:
			// A power-of-two target keeps the NDC corners exact.
			tw, th = 1, 1
			for tw < w+1 {
				tw *= 2
			}
			for th < h+1 {
				th *= 2
			}
			x0, y0 = rng.Intn(tw-w+1), rng.Intn(th-h+1)
			for k := range q.pos {
				x, y := float32(x0+(k&1)*w), float32(y0+(k>>1)*h)
				q.pos[k][0], q.pos[k][1] = x/float32(tw/2)-1, 1-y/float32(th/2)
			}
			place = "ndc"
		}
		if rng.Intn(3) == 0 {
			l, tp := rng.Intn(x0+1), rng.Intn(y0+1)
			st.Scissor = true
			st.ScissorRect = [4]int{l, tp, x0 + w - l + rng.Intn(tw-x0-w+1), y0 + h - tp + rng.Intn(th-y0-h+1)}
		}
		name := fmt.Sprintf("%d: %dx%d %s at (%d,%d) in %dx%d, repeat=%v, scissor=%v, tris=%v shared=%v",
			i, w, h, place, x0, y0, tw, th, tex.Repeat, st.Scissor, q.tris, q.shared)
		if !drawTwice(t, name, b, q, st, freshFrom(randomImage(rng, tw, th))) {
			t.Fatalf("%s: rasterized, want a copy", name)
		}
	}
}

// TestRectCopyNearMisses checks draws that are almost a 1:1 texel-copy
// rectangle: each must rasterize, and write what the rasterizer does.
func TestRectCopyNearMisses(t *testing.T) {
	p := linkFile(t, "../../../core/eglbridge/blit.go")
	rng := rand.New(rand.NewSource(2))
	const w, h = 37, 23
	withFS := func(src string) *Program {
		q, err := Link(p.VS, compile(t, src, Fragment))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, tc := range []struct {
		name string
		prog *Program
		tw   int // texture width
		q    func(*blitQuad)
		st   gpu.RenderState
	}{
		{name: "non-integer corner", q: func(q *blitQuad) {
			q.pos[0][0] += 1.0 / w
			q.pos[2][0] += 1.0 / w
		}},
		{name: "mirrored uv", q: func(q *blitQuad) {
			for k := range q.uv {
				q.uv[k][0] = 1 - q.uv[k][0]
			}
		}},
		{name: "uv to 2", q: func(q *blitQuad) {
			for k := range q.uv {
				q.uv[k] = q.uv[k].Scale(2)
			}
		}},
		{name: "one corner's uv off", q: func(q *blitQuad) { q.uv[1][1] = 0.5 }},
		{name: "one triangle twice", q: func(q *blitQuad) { q.tris = [6]int{0, 1, 3, 0, 1, 3} }},
		{name: "triangles sharing an edge", q: func(q *blitQuad) { q.tris = [6]int{0, 1, 3, 1, 3, 2} }},
		{name: "texture one pixel wider", tw: w + 1},
		{name: "blending", st: gpu.RenderState{Blend: gpu.BlendAlpha}},
		{name: "depth test", st: gpu.RenderState{DepthTest: true}},
		{name: "scissor cuts the left column", st: gpu.RenderState{Scissor: true, ScissorRect: [4]int{1, 0, w, h}}},
		{name: "scissor cuts the right column", st: gpu.RenderState{Scissor: true, ScissorRect: [4]int{0, 0, w - 1, h}}},
		{name: "scissor cuts the bottom row", st: gpu.RenderState{Scissor: true, ScissorRect: [4]int{0, 0, w, h - 1}}},
		{name: "two statements", prog: withFS(`precision mediump float; varying vec2 v_uv; uniform sampler2D u_tex;
void main() { vec4 c = texture2D(u_tex, v_uv); gl_FragColor = c; }`)},
		{name: "v * 1.0", prog: withFS(`precision mediump float; varying vec2 v_uv; uniform sampler2D u_tex;
void main() { gl_FragColor = texture2D(u_tex, v_uv * 1.0); }`)},
	} {
		tw := w
		if tc.tw != 0 {
			tw = tc.tw
		}
		prog := p
		if tc.prog != nil {
			prog = tc.prog
		}
		q := newQuad(rng)
		if tc.q != nil {
			tc.q(&q)
		}
		for _, repeat := range []bool{false, true} {
			b := bindAll(prog, &gpu.Texture{Img: randomImage(rng, tw, h), Repeat: repeat})
			if drawTwice(t, tc.name, b, q, tc.st, freshFrom(randomImage(rng, w, h))) {
				t.Errorf("%s, repeat=%v: copied, want the rasterizer", tc.name, repeat)
			}
		}
	}

	// The texture bound as the target: the draw reads what it writes.
	img, init := randomImage(rng, w, h), randomImage(rng, w, h)
	fresh := func() *gpu.Target {
		copy(img.Pix, init.Pix)
		return gpu.NewTarget(img)
	}
	if drawTwice(t, "texture as target", bindAll(p, &gpu.Texture{Img: img}), newQuad(rng), gpu.RenderState{}, fresh) {
		t.Error("texture as target: copied, want the rasterizer")
	}

	// A rectangle 2048 pixels wide.
	b := bindAll(p, &gpu.Texture{Img: randomImage(rng, 2048, 2)})
	if drawTwice(t, "2048 wide", b, newQuad(rng), gpu.RenderState{}, freshFrom(randomImage(rng, 2048, 2))) {
		t.Error("2048 wide: copied, want the rasterizer")
	}
}
