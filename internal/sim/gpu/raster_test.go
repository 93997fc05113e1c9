package gpu

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// TestNonFiniteCoordinatesPinned pins what non-finite texture coordinates
// and vertex positions do. Go leaves their conversion to int
// implementation-defined; these are amd64's results, which every host must
// now reproduce.
func TestNonFiniteCoordinatesPinned(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	img := NewImage(4, 4)
	img.Fill(RGBA{R: 10, G: 20, B: 30, A: 255})
	for _, repeat := range []bool{false, true} {
		tex := &Texture{Img: img, Repeat: repeat}
		for _, uv := range [][2]float32{{nan, 0.5}, {0.5, nan}, {nan, nan}} {
			if c := tex.Sample(uv[0], uv[1]); c != (Vec4{}) {
				t.Errorf("repeat=%v: Sample(%v, %v) = %v, want (0,0,0,0)", repeat, uv[0], uv[1], c)
			}
		}
	}

	// A fragment with non-finite varyings may write (0,0,0,0), so count
	// the pixels that no longer hold the fill.
	fill := RGBA{1, 2, 3, 4}
	target := func() *Target {
		im := NewImage(8, 8)
		im.Fill(fill)
		return NewTarget(im)
	}
	pixels := func(tgt *Target) int {
		n := 0
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if tgt.Color.At(x, y) != fill {
					n++
				}
			}
		}
		return n
	}
	tri := func(i, c int, v float32) []TVert {
		verts := []TVert{
			{Pos: Vec4{-1, -1, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
			{Pos: Vec4{1, -1, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
			{Pos: Vec4{0, 1, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
		}
		verts[i].Pos[c] = v
		return verts
	}
	for _, tc := range []struct {
		name  string
		verts []TVert
		want  int
	}{
		{"x=NaN", tri(0, 0, nan), 0},
		{"x=+Inf", tri(0, 0, inf), 0},
		{"x=-Inf", tri(0, 0, -inf), 0},
		{"x=-Inf on another vertex", tri(1, 0, -inf), 16},
		{"y=+Inf", tri(2, 1, inf), 64},
	} {
		tgt := target()
		stats := DrawTriangles(tgt, tc.verts, []int{0, 1, 2}, colorFrag, RenderState{})
		if got := pixels(tgt); got != tc.want || stats.Pixels != tc.want {
			t.Errorf("triangle with clip %s covers %d px (stats %d), want %d", tc.name, got, stats.Pixels, tc.want)
		}
	}
	for _, end := range []float32{nan, inf} {
		tgt := target()
		line := []TVert{
			{Pos: Vec4{-1, 0, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
			{Pos: Vec4{end, 0.5, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
		}
		if stats := DrawLines(tgt, line, []int{0, 1}, colorFrag, RenderState{}); pixels(tgt) != 0 || stats.Pixels != 0 {
			t.Errorf("line to clip x=%v covers %d px (stats %d), want 0", end, pixels(tgt), stats.Pixels)
		}
	}
}

// walkLine is the line rasterizer's definition: every step of the segment,
// with the per-point clip test, and no narrowing of the range. It shades
// like lineFrag and blends additively.
func walkLine(dst *Target, va, vb sv, clip [4]int) Stats {
	var stats Stats
	img := dst.Color
	steps := toInt(math.Max(math.Abs(float64(vb.x-va.x)), math.Abs(float64(vb.y-va.y)))) + 1
	for s := 0; s <= steps; s++ {
		t := float32(s) / float32(steps)
		x, y := toInt(float64(va.x+float32((vb.x-va.x)*t))), toInt(float64(va.y+float32((vb.y-va.y)*t)))
		if x < clip[0] || y < clip[1] || x > clip[2] || y > clip[3] {
			continue
		}
		a, b := va.vary[0][0], vb.vary[0][0]
		c, d := FromVec(Vec4{1, float32(a*(1-t)) + float32(b*t), 0, 1}), img.At(x, y)
		img.Set(x, y, RGBA{addSat(c.R, d.R), addSat(c.G, d.G), addSat(c.B, d.B), addSat(c.A, d.A)})
		stats.Pixels++
		stats.Blended++
		stats.ShaderEvals++
	}
	return stats
}

// lineFrag colours a step by its position along the segment, so a walk
// that shifts steps shows in the pixels.
var lineFrag testFrag = func(v []Vec4) (Vec4, int) { return Vec4{1, v[0][0], 0, 1}, 0 }

// TestDrawLinesWalksOnlyOnScreenSteps compares DrawLines with the full walk
// on random segments reaching well off screen, scissored and not: the same
// pixels, bit for bit, and the same Stats.
func TestDrawLinesWalksOnlyOnScreenSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coord := func() float32 { return (rng.Float32()*2 - 1) * float32(math.Pow(10, float64(rng.Intn(4)))) }
	for i := range 300 {
		st := RenderState{Blend: BlendAdditive}
		if i%2 == 1 {
			st.Scissor, st.ScissorRect = true, [4]int{rng.Intn(12), rng.Intn(9), rng.Intn(12), rng.Intn(9)}
		}
		a := TVert{Pos: Vec4{coord(), coord(), 0, 1}, Vary: []Vec4{{0, 0, 0, 0}}}
		b := TVert{Pos: Vec4{coord(), coord(), 0, 1}, Vary: []Vec4{{float32(rng.Intn(3)), 1, 0, 0}}}
		got, want := NewTarget(NewImage(12, 9)), NewTarget(NewImage(12, 9))
		gs := DrawLines(got, []TVert{a, b}, []int{0, 1}, lineFrag, st)
		x0, y0, x1, y1 := clipBounds(want.Color, st)
		vp := [4]int{0, 0, 12, 9}
		ws := walkLine(want, toScreen(a, vp), toScreen(b, vp), [4]int{x0, y0, x1, y1})
		if gs.Pixels != ws.Pixels || gs.Blended != ws.Blended || gs.ShaderEvals != ws.ShaderEvals {
			t.Fatalf("segment %v-%v: stats %+v, full walk %+v", a.Pos, b.Pos, gs, ws)
		}
		if got.Color.Checksum() != want.Color.Checksum() {
			t.Fatalf("segment %v-%v: pixels differ from the full walk", a.Pos, b.Pos)
		}
	}
}

// TestDrawLinesFarEndpoint draws a segment from on screen to clip x = 1e6,
// some 1.6e8 steps long: only the few hundred on-screen steps may be
// walked.
func TestDrawLinesFarEndpoint(t *testing.T) {
	tgt := NewTarget(NewImage(320, 200))
	line := []TVert{
		{Pos: Vec4{-1, -0.5, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
		{Pos: Vec4{1e6, 0.5, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
	}
	start := time.Now()
	stats := DrawLines(tgt, line, []int{0, 1}, colorFrag, RenderState{})
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("far-endpoint line took %v, want well under 100ms", d)
	}
	if stats.Pixels < 320 || stats.Pixels > 321 {
		t.Fatalf("far-endpoint line wrote %d pixels, want 320-321", stats.Pixels)
	}
}

// panicFrag panics while shading any fragment whose varying marks it as
// belonging to the rightmost tiles.
var panicFrag testFrag = func(vary []Vec4) (Vec4, int) {
	if vary[0][0] > 0.9 {
		panic("shader fault")
	}
	return Vec4{1, 1, 1, 1}, 0
}

// TestShadeSpanPanicDrainsPool panics inside Shade on some tiles of a
// parallel draw: the panic must reach the DrawTriangles caller once every
// worker has drained, and no goroutine may outlive the draw.
func TestShadeSpanPanicDrainsPool(t *testing.T) {
	base := runtime.NumGoroutine()
	verts := []TVert{
		{Pos: Vec4{-1, -1, 0, 1}, Vary: []Vec4{{0}}},
		{Pos: Vec4{1, -1, 0, 1}, Vary: []Vec4{{1}}},
		{Pos: Vec4{1, 1, 0, 1}, Vary: []Vec4{{1}}},
		{Pos: Vec4{-1, 1, 0, 1}, Vary: []Vec4{{0}}},
	}
	pool := NewPool(4)
	for range 5 {
		func() {
			defer func() {
				if r := recover(); r != "shader fault" {
					t.Fatalf("DrawTriangles recovered %v, want the shader's panic", r)
				}
			}()
			DrawTriangles(NewTarget(NewImage(320, 200)), verts, []int{0, 1, 2, 0, 2, 3}, panicFrag, RenderState{Pool: pool})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the draws, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUnormInvertsUnorm8 checks, for every byte c, that converting the
// channel value float32(c)/255 back to 8 bits gives c: what lets a texel be
// handed on as its word instead of as floats that would be packed again.
func TestUnormInvertsUnorm8(t *testing.T) {
	for c := range 256 {
		if got := unorm(unorm8[c]); got != uint8(c) {
			t.Fatalf("unorm(unorm8[%d]) = %d", c, got)
		}
		if got := pack(Vec4{unorm8[c], unorm8[255-c], unorm8[c/2], unorm8[c]}); got != uint32(c)|uint32(255-c)<<8|uint32(c/2)<<16|uint32(c)<<24 {
			t.Fatalf("Pack of the channels of byte %d = %08x", c, got)
		}
	}
}

// pack returns Pack's word for one colour.
func pack(c Vec4) uint32 {
	var w [1]uint32
	Pack(w[:], []Vec4{c})
	return w[0]
}

// refSample is Texture.Sample as written before the sampling paths shared
// texel: the oracle they are held to.
func refSample(t *Texture, u, v float32) Vec4 {
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
	x := toInt(float64(u * float32(t.Img.W)))
	if x >= t.Img.W {
		x = t.Img.W - 1
	}
	y := toInt(float64(v * float32(t.Img.H)))
	if y >= t.Img.H {
		y = t.Img.H - 1
	}
	c := t.Img.At(x, y)
	return Vec4{float32(c.R) / 255, float32(c.G) / 255, float32(c.B) / 255, float32(c.A) / 255}
}

// TestHoistedSampleMatchesTexture holds Texture.Sample, a resolved
// Sampler's Sample and its Words to the reference sampler bit for bit over
// a seeded sweep: repeat and clamp, 1x1 and non-square images, textures
// without an image, and NaN, ±Inf, negative and huge coordinates. Words
// must write the word Pack makes of Texture.Sample's texel. It also checks
// RGBA.Vec's table against the division.
func TestHoistedSampleMatchesTexture(t *testing.T) {
	for c := range 256 {
		got := RGBA{R: uint8(c), G: uint8(c), B: uint8(c), A: uint8(c)}.Vec()
		want := float32(c) / 255
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("RGBA.Vec channel %d of %d = %v, want %v", i, c, got[i], want)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	special := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		1e30, -1e30, math.MaxFloat32, -math.MaxFloat32, 0, float32(math.Copysign(0, -1)),
		1, -1, 1 - 1e-7, -1e-10, 0.5, 2, 1e-45,
	}
	coord := func() float32 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.Float32()*6 - 3
	}
	var texs []*Texture
	for _, size := range [][2]int{{1, 1}, {5, 3}, {3, 7}, {1, 9}, {64, 64}} {
		img := NewImage(size[0], size[1])
		rng.Read(img.Pix)
		texs = append(texs, &Texture{Img: img}, &Texture{Img: img, Repeat: true})
	}
	texs = append(texs, nil, &Texture{}, &Texture{Repeat: true})
	lanes := make([]uint8, 64)
	for l := range lanes {
		lanes[l] = uint8(l)
	}
	uv, got, words := make([]Vec4, len(lanes)), make([]Vec4, len(lanes)), make([]uint32, len(lanes))
	same := func(a, b Vec4) bool {
		for i := range a {
			if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, tex := range texs {
		s := tex.Sampler()
		for range 500 {
			for l := range uv {
				uv[l] = Vec4{coord(), coord()}
				got[l] = Vec4{-7, -7, -7, -7} // Sample must write every component
				words[l] = 0xdeadbeef
			}
			rng.Shuffle(len(lanes), func(i, j int) { lanes[i], lanes[j] = lanes[j], lanes[i] })
			n := rng.Intn(len(lanes) + 1)
			s.Sample(got, uv, lanes[:n])
			s.Words(words, uv, lanes[:n])
			for _, l := range lanes[:n] {
				want := refSample(tex, uv[l][0], uv[l][1])
				if ts := tex.Sample(uv[l][0], uv[l][1]); !same(ts, want) {
					t.Fatalf("texture %+v at %v: Texture.Sample %v, reference %v", tex, uv[l], ts, want)
				}
				if !same(got[l], want) {
					t.Fatalf("texture %+v at %v: Sampler %v, reference %v", tex, uv[l], got[l], want)
				}
				if w := pack(tex.Sample(uv[l][0], uv[l][1])); words[l] != w {
					t.Fatalf("texture %+v at %v: Words %08x, Pack(Texture.Sample) %08x", tex, uv[l], words[l], w)
				}
			}
			for _, l := range lanes[n:] {
				if got[l] != (Vec4{-7, -7, -7, -7}) || words[l] != 0xdeadbeef {
					t.Fatalf("Sampler wrote lane %d, which was not listed", l)
				}
			}
		}
	}
}
