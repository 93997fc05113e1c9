package engine

import (
	"testing"

	"cycada/internal/sim/gpu"
	"cycada/internal/sim/vclock"
)

// TestFixedFunctionTexturedDrawPinned pins a GLES 1 draw with GL_TEXTURE_2D
// enabled, a colour array and a texcoord array: the framebuffer's bytes and
// the virtual time the draw charges, which counts one texture fetch per
// textured pixel. The texture repeats, the texcoords run past [0, 1] and the
// colours are translucent under blending, so wrap, modulation, per-vertex
// interpolation and the blend unit all reach the result. Texturing enabled
// with no texture object, or with one that has no image, shades the colour
// alone and fetches nothing.
func TestFixedFunctionTexturedDrawPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tex   int // 0: none bound, 1: bound without an image, 2: bound with one
		crc   uint32
		drawn vclock.Duration
	}{
		{"textured", 2, 0xae4394e2, 9037},
		{"no-texture-object", 0, 0x8e93a93c, 7210},
		{"texture-without-image", 1, 0x8e93a93c, 7210},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, th, l := newEnv(t)
			ctx := mustCtx(t, l, th, 1)
			img := attachTarget(ctx, 32, 32)
			l.ClearColor(th, 0.25, 0.5, 0.75, 1)
			l.Clear(th, ColorBufferBit)

			if tc.tex > 0 {
				texs := l.GenTextures(th, 1)
				l.BindTexture(th, Texture2D, texs[0])
			}
			if tc.tex > 1 {
				texels := make([]byte, 4*4*4)
				for i := range texels {
					texels[i] = byte(i*37 + 11)
				}
				l.TexImage2D(th, 4, 4, gpu.FormatRGBA8888, texels)
				l.TexParameteri(th, 0x2802, 0x2901) // GL_TEXTURE_WRAP_S = GL_REPEAT
			}
			l.Enable(th, TextureBit)
			l.Enable(th, Blend)

			l.MatrixMode(th, Projection)
			l.LoadIdentity(th)
			l.Orthof(th, -1, 1, -1, 1, -1, 1)
			l.MatrixMode(th, ModelView)
			l.LoadIdentity(th)
			l.Rotatef(th, 17, 0, 0, 1)
			l.EnableClientState(th, VertexArray)
			l.VertexPointer(th, 2, []float32{-0.8, -0.7, 0.9, -0.8, 0.7, 0.8, -0.9, 0.6})
			l.EnableClientState(th, ColorArray)
			l.ColorPointer(th, 4, []float32{
				1, 0.2, 0.4, 0.9,
				0.3, 1, 0.6, 0.5,
				0.7, 0.5, 1, 1,
				0.1, 0.9, 0.2, 0.7,
			})
			l.EnableClientState(th, TexCoordArray)
			l.TexCoordPointer(th, 2, []float32{-0.5, -0.25, 1.5, -0.25, 1.5, 1.25, -0.5, 1.25})

			before := th.VTime()
			l.DrawArrays(th, TriangleFan, 0, 4)
			drawn := th.VTime() - before
			if e := l.GetError(th); e != NoError {
				t.Fatalf("GL error %#x", e)
			}
			if crc := img.Checksum(); crc != tc.crc || drawn != tc.drawn {
				t.Errorf("framebuffer crc %#08x, draw charged %d ns; want %#08x, %d ns", crc, int64(drawn), tc.crc, int64(tc.drawn))
			}
		})
	}
}
