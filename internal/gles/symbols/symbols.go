// Package symbols builds the dynamic-linker symbol table of a vendor GLES
// library: every function in the platform's surface becomes a typed frame
// symbol (callconv.FrameFn) with the simulated C ABI, implemented entry
// points dispatch into the engine, and the rest resolve to costed stubs.
// Diplomats dlsym through this table exactly as the paper's step 1 describes
// ("a diplomat loads the appropriate domestic library and locates the
// required entry point"). Each entry point is implemented once, here, in
// the frame convention; boxed callers reach it through linker.Symbol.Call.
package symbols

import (
	"cycada/internal/core/callconv"
	"cycada/internal/gles/engine"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
)

// BuildFrames returns the exported symbol table for a vendor library over
// eng: a FrameFn for every entry point in surface, reading arguments from
// the frame's typed slots. The slot layout of each function is fixed by the
// glesapi facade: scalars in declaration order, pixel data in the []byte
// slot, vertex data in the []float32 slot, and formats/matrices/ID lists in
// the handle slot. Entry points outside the implemented set become costed
// stub frames, so every exported symbol stays allocation-free. fenceSuffix
// is "NV" for the Tegra library and "APPLE" for the Apple library, selecting
// which fence extension family the library implements (§4.1's worked
// example of an indirect diplomat).
func BuildFrames(eng *engine.Lib, surface []string, fenceSuffix string) map[string]callconv.FrameFn {
	impl := implementedFrames(eng)
	for name, fn := range fenceFrameFns(eng, fenceSuffix) {
		impl[name] = fn
	}
	out := make(map[string]callconv.FrameFn, len(surface))
	for _, name := range surface {
		if fn, ok := impl[name]; ok {
			out[name] = fn
			continue
		}
		name := name
		out[name] = func(t *kernel.Thread, fr *callconv.Frame) any {
			eng.Stub(t, name)
			return nil
		}
	}
	return out
}

func frameFormat(fr *callconv.Frame) gpu.Format {
	f, _ := fr.Handle().(gpu.Format)
	return f
}

func frameMat4(fr *callconv.Frame) gpu.Mat4 {
	m, _ := fr.Handle().(gpu.Mat4)
	return m
}

func frameIDs(fr *callconv.Frame) []uint32 {
	u, _ := fr.Handle().([]uint32)
	return u
}

func frameU16s(fr *callconv.Frame) []uint16 {
	u, _ := fr.Handle().([]uint16)
	return u
}

func implementedFrames(e *engine.Lib) map[string]callconv.FrameFn {
	return map[string]callconv.FrameFn{
		"glGetError":  func(t *kernel.Thread, fr *callconv.Frame) any { return e.GetError(t) },
		"glGetString": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GetString(t, fr.U32(0)) },
		"glClearColor": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.ClearColor(t, fr.F32(0), fr.F32(1), fr.F32(2), fr.F32(3))
			return nil
		},
		"glClear":   func(t *kernel.Thread, fr *callconv.Frame) any { e.Clear(t, fr.U32(0)); return nil },
		"glEnable":  func(t *kernel.Thread, fr *callconv.Frame) any { e.Enable(t, fr.U32(0)); return nil },
		"glDisable": func(t *kernel.Thread, fr *callconv.Frame) any { e.Disable(t, fr.U32(0)); return nil },
		"glBlendFunc": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.BlendFunc(t, fr.U32(0), fr.U32(1))
			return nil
		},
		"glViewport": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Viewport(t, fr.Int(0), fr.Int(1), fr.Int(2), fr.Int(3))
			return nil
		},
		"glScissor": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Scissor(t, fr.Int(0), fr.Int(1), fr.Int(2), fr.Int(3))
			return nil
		},
		"glGenTextures": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GenTextures(t, fr.Int(0)) },
		"glBindTexture": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.BindTexture(t, fr.U32(0), fr.U32(1))
			return nil
		},
		"glActiveTexture": func(t *kernel.Thread, fr *callconv.Frame) any { e.ActiveTexture(t, fr.Int(0)); return nil },
		"glTexImage2D": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.TexImage2D(t, fr.Int(0), fr.Int(1), frameFormat(fr), fr.Bytes())
			return nil
		},
		"glTexSubImage2D": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.TexSubImage2D(t, fr.Int(0), fr.Int(1), fr.Int(2), fr.Int(3), frameFormat(fr), fr.Bytes())
			return nil
		},
		"glTexParameteri": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.TexParameteri(t, fr.U32(0), fr.Int(0))
			return nil
		},
		"glDeleteTextures": func(t *kernel.Thread, fr *callconv.Frame) any { e.DeleteTextures(t, frameIDs(fr)); return nil },
		"glEGLImageTargetTexture2DOES": func(t *kernel.Thread, fr *callconv.Frame) any {
			img, _ := fr.Handle().(*engine.EGLImage)
			e.EGLImageTargetTexture2D(t, img)
			return nil
		},
		"glGenBuffers": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GenBuffers(t, fr.Int(0)) },
		"glBindBuffer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.BindBuffer(t, fr.U32(0), fr.U32(1))
			return nil
		},
		"glBufferData": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.BufferData(t, fr.U32(0), fr.Floats(), frameU16s(fr))
			return nil
		},
		"glDeleteBuffers": func(t *kernel.Thread, fr *callconv.Frame) any { e.DeleteBuffers(t, frameIDs(fr)); return nil },

		"glGenFramebuffers": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GenFramebuffers(t, fr.Int(0)) },
		"glBindFramebuffer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.BindFramebuffer(t, fr.U32(0), fr.U32(1))
			return nil
		},
		"glFramebufferTexture2D": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.FramebufferTexture2D(t, fr.U32(0))
			return nil
		},
		"glFramebufferRenderbuffer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.FramebufferRenderbuffer(t, fr.U32(0))
			return nil
		},
		"glCheckFramebufferStatus": func(t *kernel.Thread, fr *callconv.Frame) any { return e.CheckFramebufferStatus(t) },
		"glDeleteFramebuffers": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.DeleteFramebuffers(t, frameIDs(fr))
			return nil
		},
		"glGenRenderbuffers": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GenRenderbuffers(t, fr.Int(0)) },
		"glBindRenderbuffer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.BindRenderbuffer(t, fr.U32(0), fr.U32(1))
			return nil
		},
		"glRenderbufferStorage": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.RenderbufferStorage(t, fr.Int(0), fr.Int(1))
			return nil
		},
		"glDeleteRenderbuffers": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.DeleteRenderbuffers(t, frameIDs(fr))
			return nil
		},
		"glGetRenderbufferParameteriv": func(t *kernel.Thread, fr *callconv.Frame) any {
			w, h := e.RenderbufferSize(t)
			return [2]int{w, h}
		},

		"glPixelStorei": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.PixelStorei(t, fr.U32(0), fr.Int(0))
			return nil
		},
		"glReadPixels": func(t *kernel.Thread, fr *callconv.Frame) any {
			return e.ReadPixels(t, fr.Int(0), fr.Int(1), fr.Int(2), fr.Int(3))
		},
		"glFlush":       func(t *kernel.Thread, fr *callconv.Frame) any { e.Flush(t); return nil },
		"glFinish":      func(t *kernel.Thread, fr *callconv.Frame) any { e.Finish(t); return nil },
		"glGetIntegerv": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GetIntegerv(t, fr.U32(0)) },

		"glCreateShader": func(t *kernel.Thread, fr *callconv.Frame) any { return e.CreateShader(t, fr.U32(0)) },
		"glShaderSource": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.ShaderSource(t, fr.U32(0), fr.Str())
			return nil
		},
		"glCompileShader": func(t *kernel.Thread, fr *callconv.Frame) any { e.CompileShader(t, fr.U32(0)); return nil },
		"glGetShaderiv": func(t *kernel.Thread, fr *callconv.Frame) any {
			return e.GetShaderiv(t, fr.U32(0), fr.U32(1))
		},
		"glGetShaderInfoLog": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GetShaderInfoLog(t, fr.U32(0)) },
		"glDeleteShader":     func(t *kernel.Thread, fr *callconv.Frame) any { e.DeleteShader(t, fr.U32(0)); return nil },
		"glCreateProgram":    func(t *kernel.Thread, fr *callconv.Frame) any { return e.CreateProgram(t) },
		"glAttachShader": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.AttachShader(t, fr.U32(0), fr.U32(1))
			return nil
		},
		"glLinkProgram": func(t *kernel.Thread, fr *callconv.Frame) any { e.LinkProgram(t, fr.U32(0)); return nil },
		"glGetProgramiv": func(t *kernel.Thread, fr *callconv.Frame) any {
			return e.GetProgramiv(t, fr.U32(0), fr.U32(1))
		},
		"glGetProgramInfoLog": func(t *kernel.Thread, fr *callconv.Frame) any { return e.GetProgramInfoLog(t, fr.U32(0)) },
		"glUseProgram":        func(t *kernel.Thread, fr *callconv.Frame) any { e.UseProgram(t, fr.U32(0)); return nil },
		"glDeleteProgram":     func(t *kernel.Thread, fr *callconv.Frame) any { e.DeleteProgram(t, fr.U32(0)); return nil },
		"glGetAttribLocation": func(t *kernel.Thread, fr *callconv.Frame) any {
			return e.GetAttribLocation(t, fr.U32(0), fr.Str())
		},
		"glGetUniformLocation": func(t *kernel.Thread, fr *callconv.Frame) any {
			return e.GetUniformLocation(t, fr.U32(0), fr.Str())
		},
		"glUniform1i": func(t *kernel.Thread, fr *callconv.Frame) any { e.Uniform1i(t, fr.Int(0), fr.Int(1)); return nil },
		"glUniform1f": func(t *kernel.Thread, fr *callconv.Frame) any { e.Uniform1f(t, fr.Int(0), fr.F32(0)); return nil },
		"glUniform2f": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Uniform2f(t, fr.Int(0), fr.F32(0), fr.F32(1))
			return nil
		},
		"glUniform3f": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Uniform3f(t, fr.Int(0), fr.F32(0), fr.F32(1), fr.F32(2))
			return nil
		},
		"glUniform4f": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Uniform4f(t, fr.Int(0), fr.F32(0), fr.F32(1), fr.F32(2), fr.F32(3))
			return nil
		},
		"glUniformMatrix4fv": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.UniformMatrix4fv(t, fr.Int(0), frameMat4(fr))
			return nil
		},
		"glVertexAttribPointer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.VertexAttribPointer(t, fr.Int(0), fr.Int(1), fr.Floats())
			return nil
		},
		"glEnableVertexAttribArray": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.EnableVertexAttribArray(t, fr.Int(0))
			return nil
		},
		"glDisableVertexAttribArray": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.DisableVertexAttribArray(t, fr.Int(0))
			return nil
		},
		"glDrawArrays": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.DrawArrays(t, fr.U32(0), fr.Int(0), fr.Int(1))
			return nil
		},
		"glDrawElements": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.DrawElements(t, fr.U32(0), frameU16s(fr))
			return nil
		},

		// GLES 1 fixed function.
		"glMatrixMode":   func(t *kernel.Thread, fr *callconv.Frame) any { e.MatrixMode(t, fr.U32(0)); return nil },
		"glLoadIdentity": func(t *kernel.Thread, fr *callconv.Frame) any { e.LoadIdentity(t); return nil },
		"glLoadMatrixf": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.LoadMatrixf(t, frameMat4(fr))
			return nil
		},
		"glMultMatrixf": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.MultMatrixf(t, frameMat4(fr))
			return nil
		},
		"glOrthof": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Orthof(t, fr.F32(0), fr.F32(1), fr.F32(2), fr.F32(3), fr.F32(4), fr.F32(5))
			return nil
		},
		"glFrustumf": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Frustumf(t, fr.F32(0), fr.F32(1), fr.F32(2), fr.F32(3), fr.F32(4), fr.F32(5))
			return nil
		},
		"glPushMatrix": func(t *kernel.Thread, fr *callconv.Frame) any { e.PushMatrix(t); return nil },
		"glPopMatrix":  func(t *kernel.Thread, fr *callconv.Frame) any { e.PopMatrix(t); return nil },
		"glRotatef": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Rotatef(t, fr.F32(0), fr.F32(1), fr.F32(2), fr.F32(3))
			return nil
		},
		"glTranslatef": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Translatef(t, fr.F32(0), fr.F32(1), fr.F32(2))
			return nil
		},
		"glScalef": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Scalef(t, fr.F32(0), fr.F32(1), fr.F32(2))
			return nil
		},
		"glColor4f": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.Color4f(t, fr.F32(0), fr.F32(1), fr.F32(2), fr.F32(3))
			return nil
		},
		"glEnableClientState":  func(t *kernel.Thread, fr *callconv.Frame) any { e.EnableClientState(t, fr.U32(0)); return nil },
		"glDisableClientState": func(t *kernel.Thread, fr *callconv.Frame) any { e.DisableClientState(t, fr.U32(0)); return nil },
		"glVertexPointer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.VertexPointer(t, fr.Int(0), fr.Floats())
			return nil
		},
		"glColorPointer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.ColorPointer(t, fr.Int(0), fr.Floats())
			return nil
		},
		"glTexCoordPointer": func(t *kernel.Thread, fr *callconv.Frame) any {
			e.TexCoordPointer(t, fr.Int(0), fr.Floats())
			return nil
		},
		"glTexEnvi":    func(t *kernel.Thread, fr *callconv.Frame) any { e.TexEnvi(t, fr.U32(0), fr.Int(0)); return nil },
		"glShadeModel": func(t *kernel.Thread, fr *callconv.Frame) any { e.ShadeModel(t, fr.U32(0)); return nil },
	}
}

// fenceFrameFns builds the typed fence extension family for a vendor suffix.
func fenceFrameFns(e *engine.Lib, suffix string) map[string]callconv.FrameFn {
	if suffix == "" {
		return nil
	}
	gen := "glGenFences" + suffix
	set := "glSetFence" + suffix
	test := "glTestFence" + suffix
	finish := "glFinishFence" + suffix
	del := "glDeleteFences" + suffix
	return map[string]callconv.FrameFn{
		gen: func(t *kernel.Thread, fr *callconv.Frame) any { return e.GenFences(t, gen, fr.Int(0)) },
		set: func(t *kernel.Thread, fr *callconv.Frame) any { e.SetFence(t, set, fr.U32(0)); return nil },
		test: func(t *kernel.Thread, fr *callconv.Frame) any {
			return e.TestFence(t, test, fr.U32(0))
		},
		finish: func(t *kernel.Thread, fr *callconv.Frame) any { e.FinishFence(t, finish, fr.U32(0)); return nil },
		del:    func(t *kernel.Thread, fr *callconv.Frame) any { e.DeleteFences(t, del, frameIDs(fr)); return nil },
	}
}
