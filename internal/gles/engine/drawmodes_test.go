package engine

import (
	"testing"

	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
)

// Draw-mode coverage: strips, fans and lines through the programmable
// pipeline (PassMark's iOS variant uses strips, §9's call-pattern story).

func setupSolid(t *testing.T) (*Lib, *gpu.Image, *kernel.Thread, int) {
	t.Helper()
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	img := attachTarget(ctx, 16, 16)
	prog := buildProgram(t, l, th, "attribute vec4 a_pos; void main(){gl_Position = a_pos;}", solidFS)
	l.UseProgram(th, prog)
	loc := l.GetAttribLocation(th, prog, "a_pos")
	l.EnableVertexAttribArray(th, loc)
	l.Uniform4f(th, l.GetUniformLocation(th, prog, "u_color"), 1, 0, 0, 1)
	return l, img, th, loc
}

func TestTriangleStripFillsQuad(t *testing.T) {
	l, img, th, loc := setupSolid(t)
	// Strip order: bl, br, tl, tr.
	l.VertexAttribPointer(th, loc, 4, []float32{
		-1, -1, 0, 1,
		1, -1, 0, 1,
		-1, 1, 0, 1,
		1, 1, 0, 1,
	})
	l.DrawArrays(th, TriangleStrip, 0, 4)
	for _, p := range [][2]int{{2, 2}, {13, 2}, {2, 13}, {13, 13}, {8, 8}} {
		if got := img.At(p[0], p[1]); got.R != 255 {
			t.Fatalf("strip missed pixel %v: %v", p, got)
		}
	}
}

func TestTriangleFanFillsQuad(t *testing.T) {
	l, img, th, loc := setupSolid(t)
	// Fan order: center-ish hub then around.
	l.VertexAttribPointer(th, loc, 4, []float32{
		-1, -1, 0, 1,
		1, -1, 0, 1,
		1, 1, 0, 1,
		-1, 1, 0, 1,
	})
	l.DrawArrays(th, TriangleFan, 0, 4)
	if got := img.At(8, 8); got.R != 255 {
		t.Fatalf("fan missed center: %v", got)
	}
	if got := img.At(2, 13); got.R != 255 {
		t.Fatalf("fan missed corner: %v", got)
	}
}

func TestLinesModeThroughAPI(t *testing.T) {
	l, img, th, loc := setupSolid(t)
	l.VertexAttribPointer(th, loc, 4, []float32{
		-1, -1, 0, 1,
		1, 1, 0, 1,
	})
	l.DrawArrays(th, Lines, 0, 2)
	lit := 0
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if img.At(x, y).R == 255 {
				lit++
			}
		}
	}
	if lit < 10 || lit > 40 {
		t.Fatalf("line lit %d pixels", lit)
	}
}

func TestDrawElementsFromBoundBufferOnly(t *testing.T) {
	l, img, th, loc := setupSolid(t)
	bufs := l.GenBuffers(th, 2)
	l.BindBuffer(th, ArrayBuffer, bufs[0])
	l.BufferData(th, ArrayBuffer, quadPos, nil)
	l.BindBuffer(th, ElementArrayBuffer, bufs[1])
	l.BufferData(th, ElementArrayBuffer, nil, quadIdx)
	l.VertexAttribPointer(th, loc, 4, nil)
	l.DrawElements(th, Triangles, nil)
	if got := img.At(8, 8); got.R != 255 {
		t.Fatalf("VBO+IBO draw missed: %v", got)
	}
	// No element buffer bound and no indices: INVALID_OPERATION.
	l.BindBuffer(th, ElementArrayBuffer, 0)
	l.DrawElements(th, Triangles, nil)
	if e := l.GetError(th); e != InvalidOperation {
		t.Fatalf("error = %#x, want INVALID_OPERATION", e)
	}
}

func TestDrawWithoutProgramSetsError(t *testing.T) {
	_, th, l := newEnv(t)
	ctx := mustCtx(t, l, th, 2)
	attachTarget(ctx, 8, 8)
	l.DrawArrays(th, Triangles, 0, 3)
	if e := l.GetError(th); e != InvalidOperation {
		t.Fatalf("error = %#x, want INVALID_OPERATION", e)
	}
}

// TestUniformOfAnotherTypeIsRefused sets u_color, a vec4, with each
// glUniform* call of another type: every one sets GL_INVALID_OPERATION and
// leaves the value as it was, so the quad still draws red.
func TestUniformOfAnotherTypeIsRefused(t *testing.T) {
	l, img, th, loc := setupSolid(t)
	prog := l.CurrentProgram(th)
	u := l.GetUniformLocation(th, prog, "u_color")
	for name, set := range map[string]func(){
		"glUniform1i":        func() { l.Uniform1i(th, u, 0) },
		"glUniform1f":        func() { l.Uniform1f(th, u, 0) },
		"glUniform2f":        func() { l.Uniform2f(th, u, 0, 1) },
		"glUniform3f":        func() { l.Uniform3f(th, u, 0, 1, 0) },
		"glUniformMatrix4fv": func() { l.UniformMatrix4fv(th, u, gpu.Identity()) },
	} {
		set()
		if got := l.GetError(th); got != InvalidOperation {
			t.Fatalf("%s on a vec4: error %#x, want GL_INVALID_OPERATION", name, got)
		}
	}
	l.VertexAttribPointer(th, loc, 4, []float32{-1, -1, 0, 1, 1, -1, 0, 1, -1, 1, 0, 1, 1, 1, 0, 1})
	l.DrawArrays(th, TriangleStrip, 0, 4)
	if got := l.GetError(th); got != NoError {
		t.Fatalf("draw after the refused calls: error %#x", got)
	}
	if got := img.At(8, 8); got != (gpu.RGBA{R: 255, A: 255}) {
		t.Fatalf("quad drew %v, want the red bound before the refused calls", got)
	}
	l.Uniform4f(th, u, 0, 1, 0, 1)
	if got := l.GetError(th); got != NoError {
		t.Fatalf("glUniform4f on a vec4: error %#x", got)
	}
}
