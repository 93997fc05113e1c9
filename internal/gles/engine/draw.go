package engine

import (
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/gpu/minisl"
	"cycada/internal/sim/kernel"
)

// This file implements the draw calls. GLES 2 contexts run the MiniSL
// programmable pipeline; GLES 1 contexts run the fixed-function pipeline
// (v1.go). Both converge on the shared software rasterizer.

// DrawArrays implements glDrawArrays.
func (l *Lib) DrawArrays(t *kernel.Thread, mode uint32, first, count int) {
	l.enter(t, "glDrawArrays")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	idx := sequentialIndices(count)
	if ctx.version == 1 {
		ctx.drawFixed(t, mode, first, count, idx)
		return
	}
	ctx.drawProgrammable(t, mode, first, count, idx)
}

// DrawElements implements glDrawElements. When indices is nil the bound
// ELEMENT_ARRAY_BUFFER supplies them.
func (l *Lib) DrawElements(t *kernel.Thread, mode uint32, indices []uint16) {
	l.enter(t, "glDrawElements")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	if indices == nil {
		ctx.mu.Lock()
		id := ctx.boundElement
		ctx.mu.Unlock()
		if id != 0 {
			s := ctx.share.objects
			s.mu.Lock()
			if buf := s.buffers[id]; buf != nil {
				indices = buf.elem
			}
			s.mu.Unlock()
		}
	}
	if len(indices) == 0 {
		ctx.setErr(InvalidOperation)
		return
	}
	idx := make([]int, len(indices))
	maxIdx := 0
	for i, v := range indices {
		idx[i] = int(v)
		if int(v) > maxIdx {
			maxIdx = int(v)
		}
	}
	if ctx.version == 1 {
		ctx.drawFixed(t, mode, 0, maxIdx+1, idx)
		return
	}
	ctx.drawProgrammable(t, mode, 0, maxIdx+1, idx)
}

// drawProgrammable runs the GLES 2 pipeline: vertex shader per vertex,
// fragment shader per covered pixel. The draw's uniforms are bound once, and
// every stage runs over pooled MiniSL frames: one for the vertices, one per
// raster tile.
func (ctx *Context) drawProgrammable(t *kernel.Thread, mode uint32, first, count int, indices []int) {
	prog := ctx.currentProgram()
	if prog == nil || !prog.ok {
		ctx.setErr(InvalidOperation)
		return
	}
	tgt := ctx.boundTarget()
	if tgt == nil {
		ctx.setErr(InvalidFramebufferOperation)
		return
	}
	b := ctx.bindUniforms(prog)

	// Resolve each attribute declaration's source once per draw; a disabled
	// or unknown one reads as (0, 0, 0, 1).
	decls := prog.linked.VS.Attributes
	feeds := make([]*vertexAttrib, len(decls))
	data := make([][]float32, len(decls))
	for i, d := range decls {
		if a := ctx.attribSource(prog.attribs[d.Name]); a != nil && a.enabled {
			feeds[i], data[i] = a, ctx.attribData(a)
		}
	}
	attrs := make([]gpu.Vec4, len(decls))
	nvary := len(prog.linked.VaryNames)
	varys := make([]gpu.Vec4, count*nvary)
	verts := make([]gpu.TVert, count)
	vf := b.Frame(minisl.Vertex)
	defer vf.Release()
	for i := 0; i < count; i++ {
		vi := first + i
		for j, a := range feeds {
			// The components a pointer of a.size lacks read (0, 0, 0, 1)
			// (GLES 2.0 §2.7); the shader reads its declared width.
			attrs[j] = gpu.Vec4{0, 0, 0, 1}
			if a != nil {
				base := vi * a.size
				for c := 0; c < a.size && base+c < len(data[j]); c++ {
					attrs[j][c] = data[j][base+c]
				}
			}
		}
		vary := varys[i*nvary : (i+1)*nvary : (i+1)*nvary]
		pos, err := vf.RunVertex(attrs, vary)
		if err != nil {
			ctx.setErr(InvalidOperation)
			return
		}
		verts[i] = gpu.TVert{Pos: pos, Vary: vary}
	}

	// Rasterize on the kernel's bounded worker pool; tiles are merged
	// deterministically, so frames are identical for any worker count.
	st := ctx.renderState()
	st.Pool = t.Kernel().RasterPool()
	var stats gpu.Stats
	switch mode {
	case Lines:
		stats = gpu.DrawLines(tgt, verts, indices, b, st)
	default:
		stats = gpu.DrawTriangles(tgt, verts, expandMode(mode, indices), b, st)
	}
	ctx.chargeStats(t, stats, true)
}

// bindUniforms binds the program's uniform values for one draw, resolving
// sampler uniforms through the context's texture units.
func (ctx *Context) bindUniforms(prog *programObj) *minisl.Binding {
	b := prog.linked.Bind()
	for loc := range prog.uniformNames {
		v, ok := prog.values[loc]
		if !ok {
			continue
		}
		switch {
		case prog.uniformTypes[loc] == "sampler2D":
			unit := v.i
			var tex *textureObj
			if unit >= 0 && unit < len(ctx.boundTex) {
				ctx.mu.Lock()
				id := ctx.boundTex[unit]
				ctx.mu.Unlock()
				tex = ctx.lookupTexture(id)
			}
			if tex != nil && tex.img != nil {
				b.Set(loc, minisl.Sampler(&gpu.Texture{Img: tex.img, Repeat: tex.repeat}))
			} else {
				b.Set(loc, minisl.Sampler(nil))
			}
		case v.mat != nil:
			b.Set(loc, minisl.Mat(*v.mat))
		default:
			b.Set(loc, minisl.Vec(v.n, v.f[:]...))
		}
	}
	return b
}

func (ctx *Context) attribSource(loc int) *vertexAttrib {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	if loc < 0 || loc >= len(ctx.attribs) {
		return nil
	}
	return &ctx.attribs[loc]
}

func (ctx *Context) attribData(a *vertexAttrib) []float32 {
	if a.data != nil {
		return a.data
	}
	if a.buffer == 0 {
		return nil
	}
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	if buf := s.buffers[a.buffer]; buf != nil {
		return buf.data
	}
	return nil
}

// sequentialIndices returns [0, 1, ..., n-1].
func sequentialIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// expandMode converts strip/fan index streams to triangle lists.
func expandMode(mode uint32, idx []int) []int {
	switch mode {
	case TriangleStrip:
		var out []int
		for i := 0; i+2 < len(idx); i++ {
			if i%2 == 0 {
				out = append(out, idx[i], idx[i+1], idx[i+2])
			} else {
				out = append(out, idx[i+1], idx[i], idx[i+2])
			}
		}
		return out
	case TriangleFan:
		var out []int
		for i := 1; i+1 < len(idx); i++ {
			out = append(out, idx[0], idx[i], idx[i+1])
		}
		return out
	default:
		return idx
	}
}
