package gpu

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// Stats counts the work a rendering operation performed. The GLES libraries
// convert stats into virtual-time charges via the cost model, so "how
// expensive was this call" always derives from real work done. Parallel
// tiled rasterization accumulates one Stats per tile and merges them in
// tile-index order; every field is an integer sum, so the merged totals are
// exact and independent of worker count.
type Stats struct {
	Vertices    int // vertices transformed
	Pixels      int // pixels written to the target
	TexFetches  int // texture samples taken
	Blended     int // pixels that went through the blend unit
	ShaderEvals int // programmable fragment-shader invocations
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Vertices += o.Vertices
	s.Pixels += o.Pixels
	s.TexFetches += o.TexFetches
	s.Blended += o.Blended
	s.ShaderEvals += o.ShaderEvals
}

// BlendMode selects the framebuffer blend function.
type BlendMode uint8

// Supported blend modes.
const (
	BlendNone     BlendMode = iota // overwrite
	BlendAlpha                     // src-alpha / one-minus-src-alpha
	BlendAdditive                  // one / one
)

// RenderState is the fixed per-draw state.
type RenderState struct {
	Blend       BlendMode
	DepthTest   bool
	Scissor     bool
	ScissorRect [4]int // x, y, w, h in target pixels
	Viewport    [4]int // x, y, w, h
	// Pool renders tiles concurrently when it has more than one worker. A
	// nil pool rasterizes serially; results are byte-identical either way.
	Pool *Pool
}

// Target is a framebuffer attachment set.
type Target struct {
	Color *Image
	depth []float32
}

// NewTarget wraps a color image as a render target.
func NewTarget(color *Image) *Target { return &Target{Color: color} }

// Depth lazily allocates and returns the depth buffer, cleared to 1.0.
func (t *Target) Depth() []float32 {
	if t.depth == nil {
		t.depth = make([]float32, t.Color.W*t.Color.H)
		t.ClearDepth(1)
	}
	return t.depth
}

// ClearDepth resets every depth sample to d.
func (t *Target) ClearDepth(d float32) {
	if t.depth == nil {
		t.depth = make([]float32, t.Color.W*t.Color.H)
	}
	for i := range t.depth {
		t.depth[i] = d
	}
}

// TVert is a transformed (clip-space) vertex with interpolated varyings.
type TVert struct {
	Pos  Vec4   // clip space
	Vary []Vec4 // per-pipeline varying slots
}

// SpanSize is the most fragments a rasterizer hands a Fragment at once: a
// span, like the lanes of one SIMD group on a real GPU.
const SpanSize = 64

// Fragment shades spans of fragments, one lane per fragment, from input
// planes it owns, so the rasterizer interpolates straight into them. For
// primitives whose vertices carry nvary varyings, Inputs returns the
// varyings the stage reads, by index, and a plane of SpanSize lanes for
// each: fragment l's value of varying index[i] goes to planes[i][l]. Shade
// then shades lanes [0, n) and returns lane l's colour in col[l], as the
// RGBA8 word Image.Pix holds (Pack's conversion of a normalized colour),
// and its texture fetches in fetches[l]; both stay valid until the next
// call. The inputs stay valid until the next Inputs call. Lanes never
// depend on each other, so an implementation may shade them in any order,
// or all at once.
type Fragment interface {
	Inputs(nvary int) (index []int, planes [][]Vec4)
	Shade(n int) (col []uint32, fetches []int)
}

// FragShader is a draw's fragment stage. Tiled rasterization renders tiles
// on several goroutines at once, so every tile takes its own Fragment with
// Acquire, on the goroutine that renders it, and hands it back with Release
// when the tile is done. A Fragment is therefore never shared between
// goroutines and may reuse scratch state — a MiniSL frame with a lane per
// fragment of a span — from one span to the next.
type FragShader interface {
	Acquire() Fragment
	Release(Fragment)
}

// A TexelCopier is a FragShader that knows when it only copies texels: when
// TexelCopy is ok, tex has an image, and every fragment shades, with one
// fetch and no fault, the word of tex's texel nearest components 0 and 1 of
// varying index vary. DrawTriangles copies 1:1 rectangles drawn with it
// rather than rasterizing them (see copyRect).
type TexelCopier interface {
	TexelCopy() (tex *Texture, vary int, ok bool)
}

// toInt converts f to int the way amd64 does for every input: it truncates
// toward zero, and returns math.MinInt for NaN, ±Inf and any value outside
// int's range. Go leaves those conversions implementation-defined — arm64
// gives 0 for NaN and saturates — so every conversion of a coordinate a
// shader or an app controls goes through here, and a non-finite vertex
// covers the same pixels on every host.
func toInt(f float64) int {
	if !(f >= math.MinInt && f < -math.MinInt) {
		return math.MinInt
	}
	return int(f)
}

// Texture is a sampleable image.
type Texture struct {
	Img    *Image
	Repeat bool // wrap mode: repeat (true) or clamp-to-edge
}

// A Sampler is a texture's sampling terms — its pixels, size and wrap mode
// — resolved once, so a run of fetches from one texture pays for them once.
type Sampler struct {
	pix    []byte
	w, h   int
	fw, fh float32
	repeat bool
	ok     bool // the texture has an image
}

// Sampler resolves t's sampling terms. t may be nil.
func (t *Texture) Sampler() Sampler {
	if t == nil || t.Img == nil {
		return Sampler{}
	}
	im := t.Img
	return Sampler{pix: im.Pix, w: im.W, h: im.H, fw: float32(im.W), fh: float32(im.H), repeat: t.Repeat, ok: true}
}

// opaqueBlack is the word a texture without an image samples.
const opaqueBlack = 0xff000000

// texel returns the offset in s.pix of the texel nearest (u, v), or -1
// where the coordinates map to none. Nearest sampling maps u in
// [i/W, (i+1)/W) to texel i, which makes a 1:1 fullscreen blit
// pixel-exact — the property the §9 "pixel for pixel" comparison between
// Cycada's shader-blit present and the native present relies on, and the
// one that lets DrawTriangles copy such a blit's rows (copyRect).
func (s *Sampler) texel(u, v float32) int {
	if s.repeat {
		u = u - float32(math.Floor(float64(u)))
		v = v - float32(math.Floor(float64(v)))
	} else {
		u = clampf(u, 0, 1)
		v = clampf(v, 0, 1)
	}
	x := toInt(float64(u * s.fw))
	if x >= s.w {
		x = s.w - 1
	}
	y := toInt(float64(v * s.fh))
	if y >= s.h {
		y = s.h - 1
	}
	if x < 0 || y < 0 {
		return -1
	}
	return (y*s.w + x) * 4
}

// at returns the texel at offset o as the word Image.Pix holds, or
// transparent black, as Image.At reads outside the image, for o < 0.
func (s *Sampler) at(o int) uint32 {
	if o < 0 {
		return 0
	}
	return binary.LittleEndian.Uint32(s.pix[o:])
}

// Sample fetches, for each lane l listed in lanes, the nearest texel at
// (uv[l][0], uv[l][1]) into dst[l], with v=0 at the top row (matching how
// the GLES layer uploads data). A texture without an image samples opaque
// black; a coordinate that maps to no texel (NaN) samples transparent
// black, as Image.At reads outside the image. The texel is written in
// place, component by component, which spares the caller a copy of a
// vector assembled moments before.
func (s *Sampler) Sample(dst, uv []Vec4, lanes []uint8) {
	if !s.ok {
		for _, l := range lanes {
			dst[l] = unpackRGBA(opaqueBlack).Vec()
		}
		return
	}
	for _, l := range lanes {
		c, d := s.at(s.texel(uv[l][0], uv[l][1])), &dst[l]
		d[0], d[1], d[2], d[3] = unorm8[uint8(c)], unorm8[uint8(c>>8)], unorm8[uint8(c>>16)], unorm8[c>>24]
	}
}

// sv is a screen-space vertex: pixel coordinates, window depth, varyings.
type sv struct {
	x, y, z float32
	vary    []Vec4
}

// toScreen projects a clip-space vertex onto target pixels. The viewport
// maps NDC with y flipped so that NDC +y is up, like OpenGL; z maps from
// [-1,1] NDC to [0,1] window depth.
func toScreen(v TVert, vp [4]int) sv {
	w := v.Pos[3]
	if w == 0 {
		w = 1
	}
	nx, ny, nz := v.Pos[0]/w, v.Pos[1]/w, v.Pos[2]/w
	return sv{
		x:    float32(vp[0]) + float32((nx+1)/2*float32(vp[2])),
		y:    float32(vp[1]) + float32((1-ny)/2*float32(vp[3])), // flip y
		z:    float32(nz*0.5) + 0.5,
		vary: v.Vary,
	}
}

// tri is one set-up triangle ready to rasterize: winding-normalized screen
// vertices, the reciprocal of its (positive) doubled area, its clipped
// inclusive pixel bounding box, and the top-left flag of each edge.
type tri struct {
	a, b, c                sv
	inv                    float32
	minX, minY, maxX, maxY int
	tl0, tl1, tl2          bool // edges b→c, c→a, a→b
}

// topLeft reports whether an edge with screen-space direction (dx, dy) is a
// top or left edge of a clockwise (y-down) triangle. Pixels whose center
// lies exactly on an edge are shaded only when the edge is top or left; an
// adjacent triangle sees the same edge with the opposite direction, for
// which exactly one of the two flags is set — so every shared-edge pixel is
// shaded exactly once per draw (the fill rule that makes per-tile pixel
// ownership unambiguous).
func topLeft(dx, dy float32) bool {
	return dy < 0 || (dy == 0 && dx > 0)
}

// DrawTriangles rasterizes indexed triangles into dst. Vertices are in clip
// space; the viewport maps NDC onto target pixels with y flipped so that
// NDC +y is up, like OpenGL. Varyings are interpolated linearly in screen
// space (no perspective correction; adequate for the simulated workloads).
//
// Coverage follows the top-left fill rule, so pixels on an edge shared by
// two triangles are shaded exactly once. Both windings render (GLES has
// face culling disabled by default); negative-area triangles are winding-
// normalized before setup so one fill-rule convention applies everywhere.
// The depth test implements GL_LESS — the GLES default depth func, which is
// what the engine advertises (glDepthFunc is a fixed-cost stub, so the
// default is the only comparison workloads can observe).
//
// Rasterization is tiled: triangles are binned into TileSize-square tiles
// and tiles render concurrently on st.Pool. Tiles own disjoint pixels, so
// the output is byte-identical for any worker count. A 1:1 texel-copy
// rectangle is copied instead, with the same pixels and Stats (copyRect).
func DrawTriangles(dst *Target, verts []TVert, indices []int, frag FragShader, st RenderState) Stats {
	var stats Stats
	stats.Vertices = len(verts)
	if dst == nil || dst.Color == nil || frag == nil {
		return stats
	}
	vp := st.Viewport
	if vp[2] == 0 || vp[3] == 0 {
		vp = [4]int{0, 0, dst.Color.W, dst.Color.H}
	}
	var depth []float32
	if st.DepthTest {
		depth = dst.Depth()
	}
	img := dst.Color
	sc := setups.Get().(*setup)
	defer setups.Put(sc)

	// Transform every vertex once; triangles sharing vertices share the
	// projection (and therefore agree bit-for-bit on shared edges).
	screen := slices.Grow(sc.screen[:0], len(verts))[:len(verts)]
	sc.screen = screen
	for i, v := range verts {
		screen[i] = toScreen(v, vp)
	}

	clipX0, clipY0, clipX1, clipY1 := clipBounds(img, st)
	if n := copyRect(img, screen, indices, frag, st, [4]int{clipX0, clipY0, clipX1, clipY1}); n > 0 {
		stats.Pixels, stats.TexFetches, stats.ShaderEvals = n, n, n
		return stats
	}

	// Triangle setup: winding normalization, bbox clip, fill-rule flags.
	tris := sc.tris[:0]
	for i := 0; i+2 < len(indices); i += 3 {
		a, b, c := screen[indices[i]], screen[indices[i+1]], screen[indices[i+2]]
		area := float32((b.x-a.x)*(c.y-a.y)) - float32((b.y-a.y)*(c.x-a.x))
		if area == 0 {
			continue // degenerate
		}
		if area < 0 {
			// Winding normalization: swapping b and c makes the triangle
			// clockwise in y-down screen space without changing its pixels,
			// so the interior test and fill rule use one sign convention.
			b, c = c, b
			area = -area
		}
		minX := toInt(math.Floor(float64(min3(a.x, b.x, c.x))))
		maxX := toInt(math.Ceil(float64(max3(a.x, b.x, c.x))))
		minY := toInt(math.Floor(float64(min3(a.y, b.y, c.y))))
		maxY := toInt(math.Ceil(float64(max3(a.y, b.y, c.y))))
		if minX < clipX0 {
			minX = clipX0
		}
		if minY < clipY0 {
			minY = clipY0
		}
		if maxX > clipX1 {
			maxX = clipX1
		}
		if maxY > clipY1 {
			maxY = clipY1
		}
		if minX > maxX || minY > maxY {
			continue
		}
		tris = append(tris, tri{
			a: a, b: b, c: c,
			inv:  1 / area,
			minX: minX, minY: minY, maxX: maxX, maxY: maxY,
			tl0: topLeft(c.x-b.x, c.y-b.y),
			tl1: topLeft(a.x-c.x, a.y-c.y),
			tl2: topLeft(b.x-a.x, b.y-a.y),
		})
	}
	sc.tris = tris
	if len(tris) == 0 {
		return stats
	}

	// Bin triangles to the tiles their bbox overlaps, preserving submission
	// order within each bin (blending inside a draw is order-dependent).
	grid := gridFor(img.W, img.H)
	bins := slices.Grow(sc.bins[:0], grid.tiles())[:grid.tiles()]
	sc.bins = bins
	for id := range bins {
		bins[id] = bins[id][:0]
	}
	for ti := range tris {
		tr := &tris[ti]
		tx0, ty0, tx1, ty1 := grid.tileRange(tr.minX, tr.minY, tr.maxX, tr.maxY)
		for ty := ty0; ty <= ty1; ty++ {
			for tx := tx0; tx <= tx1; tx++ {
				id := ty*grid.cols + tx
				bins[id] = append(bins[id], int32(ti))
			}
		}
	}
	work := sc.work[:0]
	for id, bin := range bins {
		if len(bin) > 0 {
			work = append(work, id)
		}
	}

	// Render the non-empty tiles on the pool and merge per-tile stats in
	// tile-index order. Tiles cover disjoint pixels, so any schedule
	// produces the same image.
	sc.work = work
	tileStats := slices.Grow(sc.stats[:0], len(work))[:len(work)]
	sc.stats = tileStats
	clear(tileStats)
	st.Pool.Run(len(work), func(i int) {
		id := work[i]
		x0, y0, x1, y1 := grid.bounds(id)
		shade := frag.Acquire()
		rasterTile(img, depth, tris, bins[id], x0, y0, x1-1, y1-1, shade, st.Blend, &tileStats[i])
		frag.Release(shade)
	})
	for i := range tileStats {
		stats.Add(tileStats[i])
	}
	return stats
}

// copyRect copies the texture's rows into img for a 1:1 texel-copy
// rectangle and returns the pixels written; for any other draw it writes
// nothing and returns 0. Such a draw shades through a TexelCopier from a
// texture that is not img; neither blends nor tests depth; is two triangles
// (six indices) sharing one diagonal of an axis-aligned rectangle with
// integer screen corners below 2^22 inside clip (inclusive bounds); gives
// each vertex exactly its corner's value of the copied varying, (0, 0) at
// the top left to (1, 1) at the bottom right; and is the texture's size,
// below 2048 pixels a side.
//
// Rasterizing such a draw writes exactly the copy. The corners are integers
// and the pixel centres half-integers, so every edge-function product is
// an exact multiple of 1/4 below 2^22, and every edge value an exact
// multiple of 1/2 below 2^23: coverage is exact. No centre lies on an outer
// edge, and the top-left rule gives each centre on the diagonal to exactly
// one of the two triangles, so each pixel of the rectangle is shaded once
// and no other pixel is. With corner values in {0, 1}, u is a sum of
// non-negative barycentrics and lies within a few ulps of (x−X0+½)/W, so
// u·W stays far inside texel x−X0 under both clamp and repeat; v likewise
// picks row y−Y0. Each fragment shades that texel's word with one fetch,
// so the Stats the caller reports are the rasterizer's too.
func copyRect(img *Image, screen []sv, indices []int, frag FragShader, st RenderState, clip [4]int) int {
	tc, ok := frag.(TexelCopier)
	if !ok || st.Blend != BlendNone || st.DepthTest || len(indices) != 6 {
		return 0
	}
	tex, vary, ok := tc.TexelCopy()
	if !ok || tex.Img == img {
		return 0
	}
	x0, y0 := screen[indices[0]].x, screen[indices[0]].y
	x1, y1 := x0, y0
	for _, i := range indices[1:] {
		x0, x1 = min(x0, screen[i].x), max(x1, screen[i].x)
		y0, y1 = min(y0, screen[i].y), max(y1, screen[i].y)
	}
	// min and max carry a NaN through, and toInt turns it into no integer.
	X0, Y0, X1, Y1 := toInt(float64(x0)), toInt(float64(y0)), toInt(float64(x1)), toInt(float64(y1))
	w, h := X1-X0, Y1-Y0
	if float32(X0) != x0 || float32(Y0) != y0 || float32(X1) != x1 || float32(Y1) != y1 ||
		X0 < clip[0] || Y0 < clip[1] || X1-1 > clip[2] || Y1-1 > clip[3] || max(X1, Y1) >= 1<<22 ||
		w != tex.Img.W || h != tex.Img.H || w <= 0 || h <= 0 || w >= 2048 || h >= 2048 {
		return 0
	}
	// Corner k is (k&1, k>>1) in the rectangle's units. Each triangle must
	// take three distinct corners, and the corners they leave out must be
	// opposite, so that the two share a diagonal.
	var left [2]int
	for t := range left {
		seen := 0
		for _, i := range indices[3*t : 3*t+3] {
			v, k := screen[i], 0
			if v.x == x1 {
				k = 1
			}
			if v.y == y1 {
				k |= 2
			}
			if (v.x != x0 && k&1 == 0) || (v.y != y0 && k&2 == 0) || vary >= len(v.vary) ||
				v.vary[vary][0] != float32(k&1) || v.vary[vary][1] != float32(k>>1) {
				return 0
			}
			seen |= 1 << k
		}
		if bits.OnesCount(uint(seen)) != 3 {
			return 0
		}
		left[t] = bits.TrailingZeros(uint(^seen))
	}
	if left[0]^left[1] != 3 {
		return 0
	}
	for y := range h {
		copy(img.Pix[((Y0+y)*img.W+X0)*4:][:w*4], tex.Img.Pix[y*w*4:][:w*4])
	}
	return w * h
}

// setup is a draw's triangle setup and binning storage, pooled so that a
// stream of small draws does not allocate it afresh each time.
type setup struct {
	screen []sv
	tris   []tri
	bins   [][]int32
	work   []int
	stats  []Stats
}

var setups = sync.Pool{New: func() any { return new(setup) }}

// rasterTile rasterizes one tile's binned triangles into the inclusive pixel
// rectangle [tx0,tx1] x [ty0,ty1]. It touches only pixels inside the tile,
// so concurrent calls on distinct tiles never write the same memory.
//
// Each triangle's covered fragments that pass the depth test are collected
// into spans of up to SpanSize: a fragment's pixel offset goes to the span,
// and the varyings the shader reads are interpolated straight into its
// input planes. Every span is shaded with one Shade call, then blended and
// counted in raster order. A triangle's spans are flushed before the next
// triangle starts: triangles may overlap, and blending is order-dependent.
// Within one triangle every pixel is visited once, so writing its depth at
// test time and its colour at the flush is the same as writing both at once.
func rasterTile(img *Image, depth []float32, tris []tri, bin []int32, tx0, ty0, tx1, ty1 int, frag Fragment, mode BlendMode, out *Stats) {
	var sp span
	var index []int
	var planes [][]Vec4
	nvary, n := -1, 0 // n: the fragments pending in sp
	for _, ti := range bin {
		tr := &tris[ti]
		minX, minY, maxX, maxY := tr.minX, tr.minY, tr.maxX, tr.maxY
		if minX < tx0 {
			minX = tx0
		}
		if minY < ty0 {
			minY = ty0
		}
		if maxX > tx1 {
			maxX = tx1
		}
		if maxY > ty1 {
			maxY = ty1
		}
		if len(tr.a.vary) != nvary {
			nvary = len(tr.a.vary)
			index, planes = frag.Inputs(nvary)
		}
		va, vb, vc := tr.a.vary, tr.b.vary[:nvary], tr.c.vary[:nvary]
		for y := minY; y <= maxY; y++ {
			py := float32(y) + 0.5
			// The edge functions' per-row terms: the same operations, rounded
			// the same way, as when written inline.
			ay, by, cy := tr.a.y-py, tr.b.y-py, tr.c.y-py
			row := y * img.W
			for x := minX; x <= maxX; x++ {
				px := float32(x) + 0.5
				// Edge functions: eN > 0 strictly inside; eN == 0 exactly on
				// the edge, accepted only when the edge is top-left.
				e0 := float32((tr.b.x-px)*cy) - float32(by*(tr.c.x-px))
				if e0 < 0 || (e0 == 0 && !tr.tl0) {
					continue
				}
				e1 := float32((tr.c.x-px)*ay) - float32(cy*(tr.a.x-px))
				if e1 < 0 || (e1 == 0 && !tr.tl1) {
					continue
				}
				e2 := float32((tr.a.x-px)*by) - float32(ay*(tr.b.x-px))
				if e2 < 0 || (e2 == 0 && !tr.tl2) {
					continue
				}
				w0, w1, w2 := e0*tr.inv, e1*tr.inv, e2*tr.inv
				di := row + x
				if depth != nil {
					z := float32(w0*tr.a.z) + float32(w1*tr.b.z) + float32(w2*tr.c.z)
					// GL_LESS: the incoming fragment wins only when strictly
					// nearer than the stored sample.
					if z >= depth[di] {
						continue
					}
					depth[di] = z
				}
				sp.off[n] = di
				for i, vi := range index {
					a, b, c := &va[vi], &vb[vi], &vc[vi]
					planes[i][n] = Vec4{
						float32(a[0]*w0) + float32(b[0]*w1) + float32(c[0]*w2),
						float32(a[1]*w0) + float32(b[1]*w1) + float32(c[1]*w2),
						float32(a[2]*w0) + float32(b[2]*w1) + float32(c[2]*w2),
						float32(a[3]*w0) + float32(b[3]*w1) + float32(c[3]*w2),
					}
				}
				if n++; n == SpanSize {
					sp.flush(n, img.Pix, frag, mode, out)
					n = 0
				}
			}
		}
		sp.flush(n, img.Pix, frag, mode, out)
		n = 0
	}
}

// span is a batch of covered fragments waiting to be shaded: the pixel
// offset of each (y*W + x). Their inputs wait in the Fragment's planes.
type span struct {
	off [SpanSize]int
}

// flush shades the first n fragments, then writes, blends and counts them
// in order. It is the back end shared by the triangle and line rasterizers:
// the blend mode is decided once per span, and the fetches are summed once.
func (sp *span) flush(n int, pix []byte, frag Fragment, mode BlendMode, out *Stats) {
	if n == 0 {
		return
	}
	col, fetches := frag.Shade(n)
	col, off := col[:n], sp.off[:n]
	switch mode {
	case BlendAlpha:
		for i, o := range off {
			p := pix[o*4 : o*4+4 : o*4+4]
			binary.LittleEndian.PutUint32(p, blend(unpackRGBA(col[i]), RGBA{p[0], p[1], p[2], p[3]}).pack())
		}
		out.Blended += n
	case BlendAdditive:
		for i, o := range off {
			p, c := pix[o*4:o*4+4:o*4+4], col[i]
			binary.LittleEndian.PutUint32(p, RGBA{
				addSat(uint8(c), p[0]), addSat(uint8(c>>8), p[1]),
				addSat(uint8(c>>16), p[2]), addSat(uint8(c>>24), p[3]),
			}.pack())
		}
		out.Blended += n
	default:
		for i, o := range off {
			binary.LittleEndian.PutUint32(pix[o*4:o*4+4:o*4+4], col[i])
		}
	}
	sum := 0
	for _, f := range fetches[:n] {
		sum += f
	}
	out.TexFetches += sum
	out.ShaderEvals += n
	out.Pixels += n
}

// clipBounds intersects the image rectangle with the scissor rectangle and
// returns inclusive pixel bounds.
func clipBounds(img *Image, st RenderState) (x0, y0, x1, y1 int) {
	x0, y0, x1, y1 = 0, 0, img.W-1, img.H-1
	if st.Scissor {
		sr := st.ScissorRect
		if x0 < sr[0] {
			x0 = sr[0]
		}
		if y0 < sr[1] {
			y0 = sr[1]
		}
		if x1 >= sr[0]+sr[2] {
			x1 = sr[0] + sr[2] - 1
		}
		if y1 >= sr[1]+sr[3] {
			y1 = sr[1] + sr[3] - 1
		}
	}
	return
}

// DrawLines rasterizes index pairs as 1px lines, with varyings interpolated
// along the segment. Lines run through the same span back end as
// triangles: scissor clipping, the GL_LESS depth test, and all three blend
// modes (overwrite, alpha, additive), with Blended counted accordingly.
// Line rasterization is serial — segments may revisit pixels, so they are
// not tile-disjoint — but draws are cheap relative to triangle fills.
func DrawLines(dst *Target, verts []TVert, indices []int, frag FragShader, st RenderState) Stats {
	var stats Stats
	stats.Vertices = len(verts)
	if dst == nil || dst.Color == nil || frag == nil {
		return stats
	}
	vp := st.Viewport
	if vp[2] == 0 || vp[3] == 0 {
		vp = [4]int{0, 0, dst.Color.W, dst.Color.H}
	}
	var depth []float32
	if st.DepthTest {
		depth = dst.Depth()
	}
	img := dst.Color
	clipX0, clipY0, clipX1, clipY1 := clipBounds(img, st)
	nvary := 0
	if len(verts) > 0 {
		nvary = len(verts[0].Vary)
	}
	var sp span
	shade := frag.Acquire()
	defer frag.Release(shade)
	index, planes := shade.Inputs(nvary)
	for i := 0; i+1 < len(indices); i += 2 {
		va := toScreen(verts[indices[i]], vp)
		vb := toScreen(verts[indices[i+1]], vp)
		dx, dy, dz := vb.x-va.x, vb.y-va.y, vb.z-va.z
		steps := toInt(math.Max(math.Abs(float64(dx)), math.Abs(float64(dy)))) + 1
		at := func(s int) float32 { return float32(s) / float32(steps) }
		xAt := func(s int) float32 { return va.x + float32(dx*at(s)) }
		yAt := func(s int) float32 { return va.y + float32(dy*at(s)) }
		// A step lands on a pixel column in [clipX0, clipX1] only if its x
		// lies in [clipX0-1, clipX1+1], and likewise for y. x and y are
		// monotone in the step, so those steps form one range: walk only
		// that, with the unchanged per-point test, however far off screen
		// the segment reaches.
		lo, hi := within(0, steps, xAt, float32(clipX0-1), float32(clipX1+1))
		lo, hi = within(lo, hi, yAt, float32(clipY0-1), float32(clipY1+1))
		for s := lo; s <= hi; s++ {
			t := at(s)
			x, y := toInt(float64(xAt(s))), toInt(float64(yAt(s)))
			if x < clipX0 || y < clipY0 || x > clipX1 || y > clipY1 {
				continue
			}
			di := y*img.W + x
			if depth != nil {
				z := va.z + float32(dz*t)
				if z >= depth[di] { // GL_LESS, as for triangles
					continue
				}
				depth[di] = z
			}
			for i, vi := range index {
				a, b := &va.vary[vi], &vb.vary[vi]
				planes[i][0] = Vec4{
					float32(a[0]*(1-t)) + float32(b[0]*t),
					float32(a[1]*(1-t)) + float32(b[1]*t),
					float32(a[2]*(1-t)) + float32(b[2]*t),
					float32(a[3]*(1-t)) + float32(b[3]*t),
				}
			}
			// A span of one: the step's pixel, shaded and written at once.
			sp.off[0] = di
			sp.flush(1, img.Pix, shade, st.Blend, &stats)
		}
	}
	return stats
}

// within narrows the step range [lo, hi] to the steps s at which
// a <= f(s) <= b, for an f that is monotone (either way) in s, by binary
// search.
func within(lo, hi int, f func(int) float32, a, b float32) (int, int) {
	if lo > hi {
		return lo, hi
	}
	l0, n := lo, hi-lo+1
	if f(lo) <= f(hi) {
		return l0 + sort.Search(n, func(i int) bool { return f(l0+i) >= a }),
			l0 + sort.Search(n, func(i int) bool { return f(l0+i) > b }) - 1
	}
	return l0 + sort.Search(n, func(i int) bool { return f(l0+i) <= b }),
		l0 + sort.Search(n, func(i int) bool { return f(l0+i) < a }) - 1
}

func min3(a, b, c float32) float32 {
	return float32(math.Min(float64(a), math.Min(float64(b), float64(c))))
}
func max3(a, b, c float32) float32 {
	return float32(math.Max(float64(a), math.Max(float64(b), float64(c))))
}

func addSat(a, b uint8) uint8 {
	s := uint16(a) + uint16(b)
	if s > 255 {
		return 255
	}
	return uint8(s)
}
