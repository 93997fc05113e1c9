package gpu

import (
	"fmt"
	"hash/crc32"
)

// Format is a pixel format. Render targets are always stored as RGBA8888
// internally; uploads in other formats are converted.
type Format uint8

// Supported pixel formats. FormatBGRA8888 models the Apple-preferred BGRA
// ordering (the APPLE_texture_format_BGRA8888 extension); FormatRGB565 and
// FormatA8 model common small formats.
const (
	FormatRGBA8888 Format = iota + 1
	FormatBGRA8888
	FormatRGB565
	FormatA8
)

// BytesPerPixel returns the storage size of one pixel in the format.
func (f Format) BytesPerPixel() int {
	switch f {
	case FormatRGBA8888, FormatBGRA8888:
		return 4
	case FormatRGB565:
		return 2
	case FormatA8:
		return 1
	default:
		return 0
	}
}

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatRGBA8888:
		return "RGBA8888"
	case FormatBGRA8888:
		return "BGRA8888"
	case FormatRGB565:
		return "RGB565"
	case FormatA8:
		return "A8"
	default:
		return "INVALID"
	}
}

// RGBA is an 8-bit color.
type RGBA struct{ R, G, B, A uint8 }

// FromVec converts a normalized [0,1] color vector to 8-bit.
func FromVec(v Vec4) RGBA {
	return RGBA{R: unorm(v[0]), G: unorm(v[1]), B: unorm(v[2]), A: unorm(v[3])}
}

// unorm converts one normalized channel to 8 bits.
func unorm(x float32) uint8 { return uint8(float32(clampf(x, 0, 1)*255) + 0.5) }

// Pack converts each normalized [0,1] color vector of src to 8 bits a
// channel, as FromVec does, and stores it in dst as the word Image.Pix
// holds: its four bytes read as one little-endian word.
func Pack(dst []uint32, src []Vec4) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = uint32(unorm(v[0])) | uint32(unorm(v[1]))<<8 | uint32(unorm(v[2]))<<16 | uint32(unorm(v[3]))<<24
	}
}

// pack returns the color as its four bytes of Image.Pix, read as one
// little-endian word.
func (c RGBA) pack() uint32 {
	return uint32(c.R) | uint32(c.G)<<8 | uint32(c.B)<<16 | uint32(c.A)<<24
}

// unpackRGBA is pack's inverse.
func unpackRGBA(w uint32) RGBA { return RGBA{uint8(w), uint8(w >> 8), uint8(w >> 16), uint8(w >> 24)} }

// Vec converts the color to a normalized vector.
func (c RGBA) Vec() Vec4 {
	return Vec4{unorm8[c.R], unorm8[c.G], unorm8[c.B], unorm8[c.A]}
}

// unorm8[c] is float32(c)/255, the normalized value of an 8-bit channel:
// a table read gives the division's bits without paying for it per texel.
var unorm8 = func() (t [256]float32) {
	for c := range t {
		t[c] = float32(c) / 255
	}
	return t
}()

// Image is a CPU-addressable pixel buffer in RGBA8888 layout. It backs
// render targets, textures, GraphicBuffers and IOSurfaces.
type Image struct {
	W, H int
	Pix  []byte // len = W*H*4, RGBA order
}

// NewImage allocates a zeroed (transparent black) image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("gpu: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]byte, w*h*4)}
}

// Bytes reports the storage size of the image.
func (im *Image) Bytes() int { return len(im.Pix) }

// At returns the pixel at (x, y); out-of-bounds reads return zero.
func (im *Image) At(x, y int) RGBA {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return RGBA{}
	}
	i := (y*im.W + x) * 4
	return RGBA{im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3]}
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (im *Image) Set(x, y int, c RGBA) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	i := (y*im.W + x) * 4
	im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3] = c.R, c.G, c.B, c.A
}

// Fill sets every pixel to c and returns the number of pixels written.
func (im *Image) Fill(c RGBA) int {
	for i := 0; i < len(im.Pix); i += 4 {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3] = c.R, c.G, c.B, c.A
	}
	return im.W * im.H
}

// FillRect fills the clipped rectangle and returns pixels written.
func (im *Image) FillRect(x0, y0, x1, y1 int, c RGBA) int {
	x0, y0, x1, y1 = clipRect(x0, y0, x1, y1, im.W, im.H)
	n := 0
	for y := y0; y < y1; y++ {
		i := (y*im.W + x0) * 4
		for x := x0; x < x1; x++ {
			im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3] = c.R, c.G, c.B, c.A
			i += 4
			n++
		}
	}
	return n
}

// BlendRect alpha-blends c over the clipped rectangle and returns pixels
// written.
func (im *Image) BlendRect(x0, y0, x1, y1 int, c RGBA) int {
	x0, y0, x1, y1 = clipRect(x0, y0, x1, y1, im.W, im.H)
	n := 0
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			im.Set(x, y, blend(c, im.At(x, y)))
			n++
		}
	}
	return n
}

// Copy copies src into im at (dx, dy), clipping, and returns pixels copied.
func (im *Image) Copy(src *Image, dx, dy int) int {
	return im.copyRows(src, dx, dy, 0, src.H)
}

// copyRows copies source rows [y0, y1) of src into im at (dx, dy), clipping
// both axes, and returns pixels copied. The clipped column span is copied
// row-wise in one memmove, which is what makes the compose path cheap.
func (im *Image) copyRows(src *Image, dx, dy, y0, y1 int) int {
	sx0, sx1 := 0, src.W
	if dx < 0 {
		sx0 = -dx
	}
	if dx+src.W > im.W {
		sx1 = im.W - dx
	}
	if sx1 <= sx0 {
		return 0
	}
	span := sx1 - sx0
	n := 0
	for y := y0; y < y1; y++ {
		ty := dy + y
		if ty < 0 || ty >= im.H {
			continue
		}
		si := (y*src.W + sx0) * 4
		di := (ty*im.W + dx + sx0) * 4
		copy(im.Pix[di:di+span*4], src.Pix[si:si+span*4])
		n += span
	}
	return n
}

// CopyParallel copies src into im at (dx, dy) like Copy, splitting the work
// into TileSize-row bands composed concurrently on the pool. Bands write
// disjoint destination rows, so the result is byte-identical to Copy for
// any worker count. Small sources skip the fan-out entirely.
func (im *Image) CopyParallel(src *Image, dx, dy int, p *Pool) int {
	bands := (src.H + TileSize - 1) / TileSize
	if p.Workers() <= 1 || bands <= 1 {
		return im.Copy(src, dx, dy)
	}
	counts := make([]int, bands)
	p.Run(bands, func(i int) {
		y0 := i * TileSize
		y1 := y0 + TileSize
		if y1 > src.H {
			y1 = src.H
		}
		counts[i] = im.copyRows(src, dx, dy, y0, y1)
	})
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// Checksum returns a CRC32 of the pixel data; used by the functionality
// experiments to compare "visually similar" renderings byte-for-byte.
func (im *Image) Checksum() uint32 { return crc32.ChecksumIEEE(im.Pix) }

// Upload converts src bytes in the given format into the image starting at
// (x, y) with width w (rows inferred). It returns the number of texels
// converted and an error if the data is short or the format unknown.
func (im *Image) Upload(x, y, w, h int, format Format, data []byte) (int, error) {
	bpp := format.BytesPerPixel()
	if bpp == 0 {
		return 0, fmt.Errorf("gpu: unknown format %v", format)
	}
	if len(data) < w*h*bpp {
		return 0, fmt.Errorf("gpu: short upload: have %d bytes, need %d", len(data), w*h*bpp)
	}
	if format == FormatRGBA8888 && x >= 0 && y >= 0 && w >= 0 && h >= 0 && x+w <= im.W && y+h <= im.H {
		// Already in the image's layout and wholly inside it: a row is one
		// copy.
		for row := range h {
			di := ((y+row)*im.W + x) * 4
			copy(im.Pix[di:di+w*4], data[row*w*4:(row+1)*w*4])
		}
		return w * h, nil
	}
	n := 0
	for row := 0; row < h; row++ {
		for col := 0; col < w; col++ {
			src := (row*w + col) * bpp
			var c RGBA
			switch format {
			case FormatRGBA8888:
				c = RGBA{data[src], data[src+1], data[src+2], data[src+3]}
			case FormatBGRA8888:
				c = RGBA{data[src+2], data[src+1], data[src], data[src+3]}
			case FormatRGB565:
				v := uint16(data[src]) | uint16(data[src+1])<<8
				c = RGBA{
					R: uint8((v >> 11) << 3),
					G: uint8(((v >> 5) & 0x3f) << 2),
					B: uint8((v & 0x1f) << 3),
					A: 255,
				}
			case FormatA8:
				c = RGBA{A: data[src]}
			}
			im.Set(x+col, y+row, c)
			n++
		}
	}
	return n, nil
}

func clipRect(x0, y0, x1, y1, w, h int) (int, int, int, int) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	if x1 < x0 {
		x1 = x0
	}
	if y1 < y0 {
		y1 = y0
	}
	return x0, y0, x1, y1
}

func blend(src, dst RGBA) RGBA {
	a := uint32(src.A)
	ia := 255 - a
	return RGBA{
		R: uint8((uint32(src.R)*a + uint32(dst.R)*ia) / 255),
		G: uint8((uint32(src.G)*a + uint32(dst.G)*ia) / 255),
		B: uint8((uint32(src.B)*a + uint32(dst.B)*ia) / 255),
		A: uint8((uint32(src.A)*255 + uint32(dst.A)*ia) / 255),
	}
}
