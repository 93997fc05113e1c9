package gpu

import "math"

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

// Fragment shades one fragment from interpolated varyings, returning the
// color and the number of texture fetches it performed.
type Fragment interface {
	Shade(vary []Vec4) (Vec4, int)
}

// FragShader is a draw's fragment stage. Tiled rasterization renders tiles
// on several goroutines at once, so every tile takes its own Fragment with
// Acquire, on the goroutine that renders it, and hands it back with Release
// when the tile is done. A Fragment is therefore never shared between
// goroutines and may reuse scratch state — a MiniSL frame — from one
// fragment to the next.
type FragShader interface {
	Acquire() Fragment
	Release(Fragment)
}

// FragFn is a stateless fragment stage: one pure function, which every tile
// shares.
type FragFn func(vary []Vec4) (Vec4, int)

// Shade implements Fragment.
func (f FragFn) Shade(vary []Vec4) (Vec4, int) { return f(vary) }

// Acquire implements FragShader.
func (f FragFn) Acquire() Fragment { return f }

// Release implements FragShader.
func (FragFn) Release(Fragment) {}

// Texture is a sampleable image.
type Texture struct {
	Img    *Image
	Repeat bool // wrap mode: repeat (true) or clamp-to-edge
}

// Sample fetches the nearest texel at normalized coordinates (u, v), with
// v=0 at the top row (matching how the GLES layer uploads data).
func (t *Texture) Sample(u, v float32) Vec4 {
	if t == nil || t.Img == nil {
		return Vec4{0, 0, 0, 1}
	}
	if t.Repeat {
		u = u - float32(math.Floor(float64(u)))
		v = v - float32(math.Floor(float64(v)))
	} else {
		u = clampf(u, 0, 1)
		v = clampf(v, 0, 1)
	}
	// Nearest sampling maps u in [i/W, (i+1)/W) to texel i, which makes a
	// 1:1 fullscreen blit pixel-exact — the property the §9 "pixel for
	// pixel" comparison between Cycada's shader-blit present and the native
	// present relies on.
	x := int(u * float32(t.Img.W))
	if x >= t.Img.W {
		x = t.Img.W - 1
	}
	y := int(v * float32(t.Img.H))
	if y >= t.Img.H {
		y = t.Img.H - 1
	}
	return t.Img.At(x, y).Vec()
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
		x:    float32(vp[0]) + (nx+1)/2*float32(vp[2]),
		y:    float32(vp[1]) + (1-ny)/2*float32(vp[3]), // flip y
		z:    nz*0.5 + 0.5,
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
// the output is byte-identical for any worker count.
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

	// Transform every vertex once; triangles sharing vertices share the
	// projection (and therefore agree bit-for-bit on shared edges).
	screen := make([]sv, len(verts))
	for i, v := range verts {
		screen[i] = toScreen(v, vp)
	}

	clipX0, clipY0, clipX1, clipY1 := clipBounds(img, st)

	// Triangle setup: winding normalization, bbox clip, fill-rule flags.
	tris := make([]tri, 0, len(indices)/3)
	maxVary := 0
	for i := 0; i+2 < len(indices); i += 3 {
		a, b, c := screen[indices[i]], screen[indices[i+1]], screen[indices[i+2]]
		area := (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
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
		minX := int(math.Floor(float64(min3(a.x, b.x, c.x))))
		maxX := int(math.Ceil(float64(max3(a.x, b.x, c.x))))
		minY := int(math.Floor(float64(min3(a.y, b.y, c.y))))
		maxY := int(math.Ceil(float64(max3(a.y, b.y, c.y))))
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
		if n := len(a.vary); n > maxVary {
			maxVary = n
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
	if len(tris) == 0 {
		return stats
	}

	// Bin triangles to the tiles their bbox overlaps, preserving submission
	// order within each bin (blending inside a draw is order-dependent).
	grid := gridFor(img.W, img.H)
	bins := make([][]int32, grid.tiles())
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
	work := make([]int, 0, len(bins))
	for id, bin := range bins {
		if len(bin) > 0 {
			work = append(work, id)
		}
	}

	// Render the non-empty tiles on the pool and merge per-tile stats in
	// tile-index order. Tiles cover disjoint pixels, so any schedule
	// produces the same image.
	tileStats := make([]Stats, len(work))
	st.Pool.Run(len(work), func(i int) {
		id := work[i]
		x0, y0, x1, y1 := grid.bounds(id)
		shade := frag.Acquire()
		rasterTile(img, depth, tris, bins[id], x0, y0, x1-1, y1-1, maxVary, shade, st.Blend, &tileStats[i])
		frag.Release(shade)
	})
	for i := range tileStats {
		stats.Add(tileStats[i])
	}
	return stats
}

// rasterTile rasterizes one tile's binned triangles into the inclusive pixel
// rectangle [tx0,tx1] x [ty0,ty1]. It touches only pixels inside the tile,
// so concurrent calls on distinct tiles never write the same memory.
func rasterTile(img *Image, depth []float32, tris []tri, bin []int32, tx0, ty0, tx1, ty1, maxVary int, frag Fragment, mode BlendMode, out *Stats) {
	vary := make([]Vec4, maxVary)
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
		nvary := len(tr.a.vary)
		for y := minY; y <= maxY; y++ {
			py := float32(y) + 0.5
			for x := minX; x <= maxX; x++ {
				px := float32(x) + 0.5
				// Edge functions: eN > 0 strictly inside; eN == 0 exactly on
				// the edge, accepted only when the edge is top-left.
				e0 := (tr.b.x-px)*(tr.c.y-py) - (tr.b.y-py)*(tr.c.x-px)
				if e0 < 0 || (e0 == 0 && !tr.tl0) {
					continue
				}
				e1 := (tr.c.x-px)*(tr.a.y-py) - (tr.c.y-py)*(tr.a.x-px)
				if e1 < 0 || (e1 == 0 && !tr.tl1) {
					continue
				}
				e2 := (tr.a.x-px)*(tr.b.y-py) - (tr.a.y-py)*(tr.b.x-px)
				if e2 < 0 || (e2 == 0 && !tr.tl2) {
					continue
				}
				w0, w1, w2 := e0*tr.inv, e1*tr.inv, e2*tr.inv
				if depth != nil {
					z := w0*tr.a.z + w1*tr.b.z + w2*tr.c.z
					di := y*img.W + x
					// GL_LESS: the incoming fragment wins only when strictly
					// nearer than the stored sample.
					if z >= depth[di] {
						continue
					}
					depth[di] = z
				}
				for vi := 0; vi < nvary; vi++ {
					vary[vi] = tr.a.vary[vi].Scale(w0).Add(tr.b.vary[vi].Scale(w1)).Add(tr.c.vary[vi].Scale(w2))
				}
				col, fetches := frag.Shade(vary[:nvary])
				out.TexFetches += fetches
				out.ShaderEvals++
				writeFragment(img, x, y, FromVec(col), mode, out)
				out.Pixels++
			}
		}
	}
}

// writeFragment is the blend back end shared by the triangle and line
// rasterizers.
func writeFragment(img *Image, x, y int, src RGBA, mode BlendMode, out *Stats) {
	switch mode {
	case BlendAlpha:
		img.Set(x, y, blend(src, img.At(x, y)))
		out.Blended++
	case BlendAdditive:
		d := img.At(x, y)
		img.Set(x, y, RGBA{
			R: addSat(src.R, d.R), G: addSat(src.G, d.G),
			B: addSat(src.B, d.B), A: addSat(src.A, d.A),
		})
		out.Blended++
	default:
		img.Set(x, y, src)
	}
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
// along the segment. Lines run through the same per-fragment back end as
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
	vary := make([]Vec4, nvary)
	shade := frag.Acquire()
	defer frag.Release(shade)
	for i := 0; i+1 < len(indices); i += 2 {
		va := toScreen(verts[indices[i]], vp)
		vb := toScreen(verts[indices[i+1]], vp)
		steps := int(math.Max(math.Abs(float64(vb.x-va.x)), math.Abs(float64(vb.y-va.y)))) + 1
		for s := 0; s <= steps; s++ {
			t := float32(s) / float32(steps)
			x, y := int(va.x+(vb.x-va.x)*t), int(va.y+(vb.y-va.y)*t)
			if x < clipX0 || y < clipY0 || x > clipX1 || y > clipY1 {
				continue
			}
			if depth != nil {
				z := va.z + (vb.z-va.z)*t
				di := y*img.W + x
				if z >= depth[di] { // GL_LESS, as for triangles
					continue
				}
				depth[di] = z
			}
			for vi := 0; vi < nvary; vi++ {
				vary[vi] = va.vary[vi].Scale(1 - t).Add(vb.vary[vi].Scale(t))
			}
			col, fetches := shade.Shade(vary)
			stats.TexFetches += fetches
			stats.ShaderEvals++
			writeFragment(img, x, y, FromVec(col), st.Blend, &stats)
			stats.Pixels++
		}
	}
	return stats
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
