package eglbridge

import (
	"fmt"

	"cycada/internal/gles/engine"
	"cycada/internal/sim/kernel"
)

// The present blit of §5: "simple GLES vertex and fragment shader programs"
// that draw the off-screen framebuffer contents into the default framebuffer
// so eglSwapBuffers can display them.
const blitVS = `
attribute vec4 a_pos;
attribute vec2 a_uv;
varying vec2 v_uv;
void main() {
  gl_Position = a_pos;
  v_uv = a_uv;
}
`

const blitFS = `
precision mediump float;
varying vec2 v_uv;
uniform sampler2D u_tex;
void main() {
  gl_FragColor = texture2D(u_tex, v_uv);
}
`

type blitState struct {
	prog   uint32
	posLoc int
	uvLoc  int
	texLoc int
}

var (
	blitPos = []float32{-1, -1, 0, 1, 1, -1, 0, 1, 1, 1, 0, 1, -1, 1, 0, 1}
	blitUV  = []float32{0, 1, 1, 1, 1, 0, 0, 0}
	blitIdx = []uint16{0, 1, 2, 0, 2, 3}
)

// ensureBlit lazily compiles and links the blit program on the context's
// replica engine — the first present of each EAGLContext pays the
// glLinkProgram cost, which is why glLinkProgram shows the highest average
// time in Figure 9 despite few calls.
func (b *bctx) ensureBlit(t *kernel.Thread) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.blit != nil {
		return nil
	}
	eng := b.engine()
	vs := eng.CreateShader(t, engine.VertexShaderKind)
	eng.ShaderSource(t, vs, blitVS)
	eng.CompileShader(t, vs)
	if eng.GetShaderiv(t, vs, engine.CompileStatus) != 1 {
		return fmt.Errorf("eglbridge blit VS: %s", eng.GetShaderInfoLog(t, vs))
	}
	fs := eng.CreateShader(t, engine.FragmentShaderKind)
	eng.ShaderSource(t, fs, blitFS)
	eng.CompileShader(t, fs)
	if eng.GetShaderiv(t, fs, engine.CompileStatus) != 1 {
		return fmt.Errorf("eglbridge blit FS: %s", eng.GetShaderInfoLog(t, fs))
	}
	prog := eng.CreateProgram(t)
	eng.AttachShader(t, prog, vs)
	eng.AttachShader(t, prog, fs)
	eng.LinkProgram(t, prog)
	if eng.GetProgramiv(t, prog, engine.LinkStatus) != 1 {
		return fmt.Errorf("eglbridge blit link: %s", eng.GetProgramInfoLog(t, prog))
	}
	b.blit = &blitState{
		prog:   prog,
		posLoc: eng.GetAttribLocation(t, prog, "a_pos"),
		uvLoc:  eng.GetAttribLocation(t, prog, "a_uv"),
		texLoc: eng.GetUniformLocation(t, prog, "u_tex"),
	}
	return nil
}

// draw renders the textured fullscreen quad into the bound framebuffer.
func (bs *blitState) draw(t *kernel.Thread, eng *engine.Lib, tex uint32) {
	eng.UseProgram(t, bs.prog)
	eng.ActiveTexture(t, 0)
	eng.BindTexture(t, engine.Texture2D, tex)
	eng.Uniform1i(t, bs.texLoc, 0)
	eng.VertexAttribPointer(t, bs.posLoc, 4, blitPos)
	eng.EnableVertexAttribArray(t, bs.posLoc)
	eng.VertexAttribPointer(t, bs.uvLoc, 2, blitUV)
	eng.EnableVertexAttribArray(t, bs.uvLoc)
	eng.DrawElements(t, engine.Triangles, blitIdx)
}
