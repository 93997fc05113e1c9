package gpu

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMat4IdentityMulVec(t *testing.T) {
	v := Vec4{1, 2, 3, 1}
	if got := Identity().MulVec(v); got != v {
		t.Fatalf("I*v = %v, want %v", got, v)
	}
}

func TestMat4TranslateAndScale(t *testing.T) {
	m := Identity().Translate(10, 20, 30)
	got := m.MulVec(Vec4{1, 1, 1, 1})
	want := Vec4{11, 21, 31, 1}
	if got != want {
		t.Fatalf("translate = %v, want %v", got, want)
	}
	s := Identity().Scale(2, 3, 4)
	got = s.MulVec(Vec4{1, 1, 1, 1})
	want = Vec4{2, 3, 4, 1}
	if got != want {
		t.Fatalf("scale = %v, want %v", got, want)
	}
}

func TestMat4RotateZ90(t *testing.T) {
	m := Identity().RotateZ(90)
	got := m.MulVec(Vec4{1, 0, 0, 1})
	if math.Abs(float64(got[0])) > 1e-5 || math.Abs(float64(got[1]-1)) > 1e-5 {
		t.Fatalf("rotZ(90)*(1,0,0) = %v, want ~(0,1,0)", got)
	}
}

func TestMat4Composition(t *testing.T) {
	// Column-major composition: (T*S)*v applies S first.
	m := Identity().Translate(10, 0, 0).Scale(2, 2, 2)
	got := m.MulVec(Vec4{1, 0, 0, 1})
	want := Vec4{12, 0, 0, 1}
	if got != want {
		t.Fatalf("T*S*v = %v, want %v", got, want)
	}
}

func TestOrthoMapsCorners(t *testing.T) {
	m := Ortho(0, 100, 0, 50, -1, 1)
	bl := m.MulVec(Vec4{0, 0, 0, 1})
	tr := m.MulVec(Vec4{100, 50, 0, 1})
	if math.Abs(float64(bl[0]+1)) > 1e-5 || math.Abs(float64(bl[1]+1)) > 1e-5 {
		t.Fatalf("ortho bottom-left = %v, want (-1,-1)", bl)
	}
	if math.Abs(float64(tr[0]-1)) > 1e-5 || math.Abs(float64(tr[1]-1)) > 1e-5 {
		t.Fatalf("ortho top-right = %v, want (1,1)", tr)
	}
}

func TestImageFillAndAt(t *testing.T) {
	im := NewImage(4, 4)
	n := im.Fill(RGBA{10, 20, 30, 255})
	if n != 16 {
		t.Fatalf("Fill wrote %d pixels, want 16", n)
	}
	if got := im.At(3, 3); got != (RGBA{10, 20, 30, 255}) {
		t.Fatalf("At = %v", got)
	}
	if got := im.At(-1, 0); got != (RGBA{}) {
		t.Fatal("out-of-bounds read not zero")
	}
	im.Set(-5, -5, RGBA{1, 1, 1, 1}) // must not panic
}

func TestFillRectClipsAndCounts(t *testing.T) {
	im := NewImage(10, 10)
	n := im.FillRect(-5, -5, 5, 5, RGBA{255, 0, 0, 255})
	if n != 25 {
		t.Fatalf("clipped FillRect wrote %d, want 25", n)
	}
	if im.At(4, 4).R != 255 || im.At(5, 5).R != 0 {
		t.Fatal("FillRect wrong region")
	}
	if n := im.FillRect(8, 8, 2, 2, RGBA{}); n != 0 {
		t.Fatalf("inverted rect wrote %d", n)
	}
}

func TestBlendRect(t *testing.T) {
	im := NewImage(2, 2)
	im.Fill(RGBA{0, 0, 255, 255})
	im.BlendRect(0, 0, 2, 2, RGBA{255, 0, 0, 128})
	c := im.At(0, 0)
	if c.R < 120 || c.R > 135 || c.B < 120 || c.B > 135 {
		t.Fatalf("blend = %v, want ~half red half blue", c)
	}
}

func TestCopyAndClone(t *testing.T) {
	src := NewImage(2, 2)
	src.Fill(RGBA{9, 9, 9, 9})
	dst := NewImage(4, 4)
	if n := dst.Copy(src, 3, 3); n != 1 {
		t.Fatalf("clipped Copy = %d pixels, want 1", n)
	}
	cl := src.Clone()
	cl.Set(0, 0, RGBA{1, 2, 3, 4})
	if src.At(0, 0) == cl.At(0, 0) {
		t.Fatal("Clone aliases source")
	}
}

func TestChecksumDistinguishesImages(t *testing.T) {
	a := NewImage(8, 8)
	b := NewImage(8, 8)
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical images differ")
	}
	b.Set(1, 1, RGBA{1, 0, 0, 0})
	if a.Checksum() == b.Checksum() {
		t.Fatal("different images collide")
	}
}

func TestUploadFormats(t *testing.T) {
	im := NewImage(2, 1)
	if _, err := im.Upload(0, 0, 2, 1, FormatBGRA8888, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if got := im.At(0, 0); got != (RGBA{3, 2, 1, 4}) {
		t.Fatalf("BGRA upload = %v, want swapped {3 2 1 4}", got)
	}
	// 565: pure red = 0xF800.
	if _, err := im.Upload(0, 0, 1, 1, FormatRGB565, []byte{0x00, 0xF8}); err != nil {
		t.Fatal(err)
	}
	if got := im.At(0, 0); got.R != 0xF8 || got.G != 0 || got.A != 255 {
		t.Fatalf("565 upload = %v", got)
	}
	if _, err := im.Upload(0, 0, 1, 1, FormatA8, []byte{77}); err != nil {
		t.Fatal(err)
	}
	if got := im.At(0, 0); got.A != 77 {
		t.Fatalf("A8 upload = %v", got)
	}
	if _, err := im.Upload(0, 0, 2, 2, FormatRGBA8888, []byte{1}); err == nil {
		t.Fatal("short upload succeeded")
	}
	if _, err := im.Upload(0, 0, 1, 1, Format(99), []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("unknown format upload succeeded")
	}

	// RGBA8888 rectangles: whole rows copied when inside the image, texel
	// by texel when partly off it; either way the result is what writing
	// each texel with Set gives, and the count is every texel of w x h.
	rng := rand.New(rand.NewSource(1))
	for _, r := range [][4]int{
		{2, 1, 4, 3},  // inside
		{0, 0, 7, 5},  // the whole image
		{4, 1, 4, 2},  // one column off the right edge
		{1, 3, 3, 3},  // one row off the bottom edge
		{-1, 1, 3, 2}, // one column off the left edge
		{2, -1, 3, 2}, // one row off the top edge
	} {
		x, y, w, h := r[0], r[1], r[2], r[3]
		got, want := NewImage(7, 5), NewImage(7, 5)
		rng.Read(got.Pix)
		copy(want.Pix, got.Pix)
		data := make([]byte, w*h*4)
		rng.Read(data)
		n, err := got.Upload(x, y, w, h, FormatRGBA8888, data)
		for i := 0; i < w*h; i++ {
			d := data[i*4:]
			want.Set(x+i%w, y+i/w, RGBA{d[0], d[1], d[2], d[3]})
		}
		if err != nil || n != w*h {
			t.Fatalf("RGBA8888 upload of %v: %d texels, %v; want %d, nil", r, n, err, w*h)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("RGBA8888 upload of %v differs from writing each texel", r)
		}
	}
	short := NewImage(7, 5)
	if n, err := short.Upload(2, 1, 4, 3, FormatRGBA8888, make([]byte, 4*3*4-1)); err == nil || n != 0 {
		t.Fatalf("short in-bounds upload: %d texels, %v; want an error", n, err)
	}
	if !bytes.Equal(short.Pix, make([]byte, len(short.Pix))) {
		t.Fatal("short upload wrote texels")
	}
}

func fullscreenQuad(col Vec4) ([]TVert, []int) {
	mk := func(x, y float32) TVert { return TVert{Pos: Vec4{x, y, 0, 1}, Vary: []Vec4{col}} }
	return []TVert{mk(-1, -1), mk(1, -1), mk(1, 1), mk(-1, 1)}, []int{0, 1, 2, 0, 2, 3}
}

// testFrag is a fragment stage for tests: a function of one fragment's
// varyings that returns its colour and fetch count, run one lane at a time.
type testFrag func(vary []Vec4) (Vec4, int)

func (f testFrag) Acquire() Fragment { return &testFragment{fn: f} }

func (testFrag) Release(Fragment) {}

// testFragment is a testFrag's per-tile Fragment: it reads every varying.
type testFragment struct {
	fn      testFrag
	index   []int
	width   []int
	planes  [][]Vec4
	vec     [SpanSize]Vec4
	col     [SpanSize]uint32
	fetches [SpanSize]int
}

func (a *testFragment) Inputs(nvary int) ([]int, []int, [][]Vec4) {
	a.index, a.width, a.planes = nil, nil, nil
	for i := range nvary {
		a.index = append(a.index, i)
		a.width = append(a.width, 4)
		a.planes = append(a.planes, make([]Vec4, SpanSize))
	}
	return a.index, a.width, a.planes
}

func (a *testFragment) Shade(n int) ([]uint32, []int) {
	vary := make([]Vec4, len(a.planes))
	for l := range n {
		for i, p := range a.planes {
			vary[i] = p[l]
		}
		a.vec[l], a.fetches[l] = a.fn(vary)
	}
	Pack(a.col[:n], a.vec[:n])
	return a.col[:n], a.fetches[:n]
}

var colorFrag testFrag = func(vary []Vec4) (Vec4, int) { return vary[0], 0 }

func TestDrawTrianglesFullscreenQuad(t *testing.T) {
	im := NewImage(16, 16)
	tgt := NewTarget(im)
	verts, idx := fullscreenQuad(Vec4{1, 0, 0, 1})
	stats := DrawTriangles(tgt, verts, idx, colorFrag, RenderState{})
	if stats.Pixels < 16*16*95/100 {
		t.Fatalf("quad filled %d pixels of %d", stats.Pixels, 16*16)
	}
	if got := im.At(8, 8); got.R != 255 || got.G != 0 {
		t.Fatalf("center pixel = %v, want red", got)
	}
	if stats.Vertices != 4 || stats.ShaderEvals != stats.Pixels {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestDrawTrianglesYAxisUp(t *testing.T) {
	// A triangle in the top half of NDC (+y) must land in the top rows.
	im := NewImage(16, 16)
	tgt := NewTarget(im)
	verts := []TVert{
		{Pos: Vec4{-1, 0.2, 0, 1}, Vary: []Vec4{{0, 1, 0, 1}}},
		{Pos: Vec4{1, 0.2, 0, 1}, Vary: []Vec4{{0, 1, 0, 1}}},
		{Pos: Vec4{0, 1, 0, 1}, Vary: []Vec4{{0, 1, 0, 1}}},
	}
	DrawTriangles(tgt, verts, []int{0, 1, 2}, colorFrag, RenderState{})
	top, bottom := 0, 0
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if im.At(x, y).G == 255 {
				if y < 8 {
					top++
				} else {
					bottom++
				}
			}
		}
	}
	if top == 0 || bottom != 0 {
		t.Fatalf("+y triangle drew top=%d bottom=%d pixels", top, bottom)
	}
}

func TestDepthTest(t *testing.T) {
	im := NewImage(8, 8)
	tgt := NewTarget(im)
	st := RenderState{DepthTest: true}
	near, idx := fullscreenQuad(Vec4{1, 0, 0, 1})
	for i := range near {
		near[i].Pos[2] = -0.5 // closer
	}
	far, _ := fullscreenQuad(Vec4{0, 0, 1, 1})
	for i := range far {
		far[i].Pos[2] = 0.5 // farther
	}
	DrawTriangles(tgt, near, idx, colorFrag, st)
	DrawTriangles(tgt, far, idx, colorFrag, st)
	if got := im.At(4, 4); got.R != 255 || got.B != 0 {
		t.Fatalf("depth test failed: far quad overwrote near (%v)", got)
	}
}

func TestScissor(t *testing.T) {
	im := NewImage(16, 16)
	tgt := NewTarget(im)
	verts, idx := fullscreenQuad(Vec4{1, 1, 1, 1})
	st := RenderState{Scissor: true, ScissorRect: [4]int{4, 4, 4, 4}}
	stats := DrawTriangles(tgt, verts, idx, colorFrag, st)
	if stats.Pixels > 16+2 || stats.Pixels < 14 { // 4x4 region, edge rules
		t.Fatalf("scissored fill = %d pixels", stats.Pixels)
	}
	if im.At(0, 0).R != 0 || im.At(5, 5).R != 255 {
		t.Fatal("scissor region wrong")
	}
}

func TestBlendModes(t *testing.T) {
	im := NewImage(4, 4)
	im.Fill(RGBA{100, 100, 100, 255})
	tgt := NewTarget(im)
	verts, idx := fullscreenQuad(Vec4{1, 0, 0, 0.5})
	stats := DrawTriangles(tgt, verts, idx, colorFrag, RenderState{Blend: BlendAlpha})
	if stats.Blended == 0 {
		t.Fatal("no pixels blended")
	}
	c := im.At(2, 2)
	if c.R < 170 || c.R > 185 {
		t.Fatalf("alpha blend R = %d, want ~178", c.R)
	}
	im.Fill(RGBA{200, 0, 0, 255})
	DrawTriangles(tgt, verts, idx, testFrag(func([]Vec4) (Vec4, int) { return Vec4{0.5, 0, 0, 1}, 0 }), RenderState{Blend: BlendAdditive})
	if got := im.At(1, 1).R; got != 255 {
		t.Fatalf("additive blend should saturate, got %d", got)
	}
}

func TestTextureSample(t *testing.T) {
	img := NewImage(2, 2)
	img.Set(0, 0, RGBA{255, 0, 0, 255})
	img.Set(1, 1, RGBA{0, 0, 255, 255})
	tex := &Texture{Img: img}
	if c := tex.Sample(0, 0); c[0] != 1 {
		t.Fatalf("sample(0,0) = %v, want red", c)
	}
	if c := tex.Sample(1, 1); c[2] != 1 {
		t.Fatalf("sample(1,1) = %v, want blue", c)
	}
	// Clamp beyond edges.
	if c := tex.Sample(2, 2); c[2] != 1 {
		t.Fatalf("clamped sample = %v, want blue", c)
	}
	rep := &Texture{Img: img, Repeat: true}
	if c := rep.Sample(2.0, 2.0); c[0] != 1 {
		t.Fatalf("repeat sample(2,2) = %v, want red (wraps to 0,0)", c)
	}
	var nilTex *Texture
	if c := nilTex.Sample(0, 0); c != (Vec4{0, 0, 0, 1}) {
		t.Fatalf("nil texture sample = %v", c)
	}
}

func TestDrawLines(t *testing.T) {
	im := NewImage(8, 8)
	tgt := NewTarget(im)
	verts := []TVert{
		{Pos: Vec4{-1, -1, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
		{Pos: Vec4{1, 1, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}},
	}
	stats := DrawLines(tgt, verts, []int{0, 1}, colorFrag, RenderState{})
	if stats.Pixels == 0 {
		t.Fatal("line drew nothing")
	}
	found := false
	for d := 0; d < 8; d++ {
		if im.At(d, 7-d).R == 255 {
			found = true
		}
	}
	if !found {
		t.Fatal("diagonal line not on the diagonal")
	}
}

func TestDegenerateTriangleSkipped(t *testing.T) {
	im := NewImage(8, 8)
	tgt := NewTarget(im)
	v := TVert{Pos: Vec4{0, 0, 0, 1}, Vary: []Vec4{{1, 1, 1, 1}}}
	stats := DrawTriangles(tgt, []TVert{v, v, v}, []int{0, 1, 2}, colorFrag, RenderState{})
	if stats.Pixels != 0 {
		t.Fatalf("degenerate triangle drew %d pixels", stats.Pixels)
	}
}

func TestNilTargetAndFrag(t *testing.T) {
	verts, idx := fullscreenQuad(Vec4{})
	if s := DrawTriangles(nil, verts, idx, colorFrag, RenderState{}); s.Pixels != 0 {
		t.Fatal("nil target drew pixels")
	}
	if s := DrawTriangles(NewTarget(NewImage(2, 2)), verts, idx, nil, RenderState{}); s.Pixels != 0 {
		t.Fatal("nil frag drew pixels")
	}
}

// Property: FillRect never writes outside the image and reports exactly the
// clipped area.
func TestFillRectProperty(t *testing.T) {
	f := func(x0, y0, x1, y1 int8) bool {
		im := NewImage(16, 16)
		n := im.FillRect(int(x0), int(y0), int(x1), int(y1), RGBA{255, 255, 255, 255})
		count := 0
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				if im.At(x, y).R == 255 {
					count++
				}
			}
		}
		return count == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromVecRoundTrip(t *testing.T) {
	c := FromVec(Vec4{0.5, 0, 1, 2}) // 2 clamps to 1
	if c.A != 255 || c.B != 255 || c.R != 128 {
		t.Fatalf("FromVec = %v", c)
	}
	v := RGBA{255, 0, 128, 255}.Vec()
	if v[0] != 1 || v[3] != 1 {
		t.Fatalf("Vec = %v", v)
	}
}

func TestFormatMetadata(t *testing.T) {
	if FormatRGBA8888.BytesPerPixel() != 4 || FormatRGB565.BytesPerPixel() != 2 ||
		FormatA8.BytesPerPixel() != 1 || Format(0).BytesPerPixel() != 0 {
		t.Fatal("BytesPerPixel wrong")
	}
	if FormatBGRA8888.String() != "BGRA8888" || Format(0).String() != "INVALID" {
		t.Fatal("Format.String wrong")
	}
}
