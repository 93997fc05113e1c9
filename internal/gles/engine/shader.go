package engine

import (
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/gpu/minisl"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// The engine's shader objects wrap the MiniSL compiler; the aliases keep the
// minisl dependency out of the context structure declarations.
type (
	minislShader  = minisl.Shader
	minislProgram = minisl.Program
)

// CreateShader implements glCreateShader.
func (l *Lib) CreateShader(t *kernel.Thread, kind uint32) uint32 {
	l.enter(t, "glCreateShader")
	ctx := l.current(t)
	if ctx == nil {
		return 0
	}
	if kind != VertexShaderKind && kind != FragmentShaderKind {
		ctx.setErr(InvalidEnum)
		return 0
	}
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.newID()
	s.shaders[id] = &shaderObj{id: id, kind: kind}
	return id
}

// ShaderSource implements glShaderSource.
func (l *Lib) ShaderSource(t *kernel.Thread, id uint32, src string) {
	l.enter(t, "glShaderSource")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	if sh := ctx.lookupShader(id); sh != nil {
		sh.source = src
	} else {
		ctx.setErr(InvalidValue)
	}
}

// CompileShader implements glCompileShader; compile cost is proportional to
// token count.
func (l *Lib) CompileShader(t *kernel.Thread, id uint32) {
	l.enter(t, "glCompileShader")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	sh := ctx.lookupShader(id)
	if sh == nil {
		ctx.setErr(InvalidValue)
		return
	}
	kind := minisl.Vertex
	if sh.kind == FragmentShaderKind {
		kind = minisl.Fragment
	}
	compiled, err := minisl.Compile(sh.source, kind)
	if err != nil {
		sh.ok = false
		sh.infoLog = err.Error()
		return
	}
	sh.compiled = compiled
	sh.ok = true
	sh.infoLog = ""
	t.ChargeCPU(vclock.Duration(compiled.Tokens) * t.Costs().ShaderCompileTok / 4)
}

// GetShaderiv implements glGetShaderiv for COMPILE_STATUS and INFO_LOG_LENGTH.
func (l *Lib) GetShaderiv(t *kernel.Thread, id uint32, pname uint32) int {
	l.enter(t, "glGetShaderiv")
	ctx := l.current(t)
	if ctx == nil {
		return 0
	}
	sh := ctx.lookupShader(id)
	if sh == nil {
		ctx.setErr(InvalidValue)
		return 0
	}
	switch pname {
	case CompileStatus:
		if sh.ok {
			return 1
		}
		return 0
	case InfoLogLength:
		return len(sh.infoLog)
	default:
		ctx.setErr(InvalidEnum)
		return 0
	}
}

// GetShaderInfoLog implements glGetShaderInfoLog.
func (l *Lib) GetShaderInfoLog(t *kernel.Thread, id uint32) string {
	l.enter(t, "glGetShaderInfoLog")
	ctx := l.current(t)
	if ctx == nil {
		return ""
	}
	if sh := ctx.lookupShader(id); sh != nil {
		return sh.infoLog
	}
	return ""
}

// DeleteShader implements glDeleteShader.
func (l *Lib) DeleteShader(t *kernel.Thread, id uint32) {
	l.enter(t, "glDeleteShader")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.shaders, id)
}

func (ctx *Context) lookupShader(id uint32) *shaderObj {
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shaders[id]
}

func (ctx *Context) lookupProgram(id uint32) *programObj {
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.programs[id]
}

// CreateProgram implements glCreateProgram.
func (l *Lib) CreateProgram(t *kernel.Thread) uint32 {
	l.enter(t, "glCreateProgram")
	ctx := l.current(t)
	if ctx == nil {
		return 0
	}
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.newID()
	s.programs[id] = &programObj{id: id, values: map[int]uniformValue{}}
	return id
}

// AttachShader implements glAttachShader.
func (l *Lib) AttachShader(t *kernel.Thread, prog, shader uint32) {
	l.enter(t, "glAttachShader")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	p := ctx.lookupProgram(prog)
	sh := ctx.lookupShader(shader)
	if p == nil || sh == nil {
		ctx.setErr(InvalidValue)
		return
	}
	if sh.kind == VertexShaderKind {
		p.vs = sh
	} else {
		p.fs = sh
	}
}

// LinkProgram implements glLinkProgram: MiniSL link plus attribute/uniform
// location assignment. Link cost is the ShaderLinkBase plus a per-token
// charge — the glLinkProgram spike in Figure 9 (3349µs average) comes from
// here.
func (l *Lib) LinkProgram(t *kernel.Thread, prog uint32) {
	l.enter(t, "glLinkProgram")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	p := ctx.lookupProgram(prog)
	if p == nil {
		ctx.setErr(InvalidValue)
		return
	}
	if p.vs == nil || p.fs == nil || !p.vs.ok || !p.fs.ok {
		p.ok = false
		p.infoLog = "link error: missing or uncompiled shaders"
		return
	}
	linked, err := minisl.Link(p.vs.compiled, p.fs.compiled)
	if err != nil {
		p.ok = false
		p.infoLog = err.Error()
		return
	}
	p.linked = linked
	p.ok = true
	p.infoLog = ""
	// Locations: attributes in declaration order; uniforms across both
	// stages sorted by name.
	p.attribs = map[string]int{}
	for i, d := range linked.VS.Attributes {
		p.attribs[d.Name] = i
	}
	p.uniformNames, p.uniformTypes = linked.UniformNames, linked.UniformTypes
	p.uniforms = make(map[string]int, len(p.uniformNames))
	for i, n := range p.uniformNames {
		p.uniforms[n] = i
	}
	t.ChargeCPU(t.Costs().ShaderLinkBase + vclock.Duration(linked.Tokens)*t.Costs().ShaderCompileTok)
}

// GetProgramiv implements glGetProgramiv for LINK_STATUS and INFO_LOG_LENGTH.
func (l *Lib) GetProgramiv(t *kernel.Thread, id uint32, pname uint32) int {
	l.enter(t, "glGetProgramiv")
	ctx := l.current(t)
	if ctx == nil {
		return 0
	}
	p := ctx.lookupProgram(id)
	if p == nil {
		ctx.setErr(InvalidValue)
		return 0
	}
	switch pname {
	case LinkStatus:
		if p.ok {
			return 1
		}
		return 0
	case InfoLogLength:
		return len(p.infoLog)
	default:
		ctx.setErr(InvalidEnum)
		return 0
	}
}

// GetProgramInfoLog implements glGetProgramInfoLog.
func (l *Lib) GetProgramInfoLog(t *kernel.Thread, id uint32) string {
	l.enter(t, "glGetProgramInfoLog")
	ctx := l.current(t)
	if ctx == nil {
		return ""
	}
	if p := ctx.lookupProgram(id); p != nil {
		return p.infoLog
	}
	return ""
}

// UseProgram implements glUseProgram.
func (l *Lib) UseProgram(t *kernel.Thread, id uint32) {
	l.enter(t, "glUseProgram")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	if id != 0 && ctx.lookupProgram(id) == nil {
		ctx.setErr(InvalidValue)
		return
	}
	ctx.mu.Lock()
	ctx.curProgram = id
	ctx.mu.Unlock()
}

// DeleteProgram implements glDeleteProgram.
func (l *Lib) DeleteProgram(t *kernel.Thread, id uint32) {
	l.enter(t, "glDeleteProgram")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	s := ctx.share.objects
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.programs, id)
}

// GetAttribLocation implements glGetAttribLocation.
func (l *Lib) GetAttribLocation(t *kernel.Thread, prog uint32, name string) int {
	l.enter(t, "glGetAttribLocation")
	ctx := l.current(t)
	if ctx == nil {
		return -1
	}
	p := ctx.lookupProgram(prog)
	if p == nil || !p.ok {
		return -1
	}
	if loc, ok := p.attribs[name]; ok {
		return loc
	}
	return -1
}

// GetUniformLocation implements glGetUniformLocation.
func (l *Lib) GetUniformLocation(t *kernel.Thread, prog uint32, name string) int {
	l.enter(t, "glGetUniformLocation")
	ctx := l.current(t)
	if ctx == nil {
		return -1
	}
	p := ctx.lookupProgram(prog)
	if p == nil || !p.ok {
		return -1
	}
	if loc, ok := p.uniforms[name]; ok {
		return loc
	}
	return -1
}

// CurrentProgram reports the program bound by glUseProgram (used by multi
// diplomats that must save and restore program state around their blits).
func (l *Lib) CurrentProgram(t *kernel.Thread) uint32 {
	ctx := l.current(t)
	if ctx == nil {
		return 0
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.curProgram
}

func (ctx *Context) currentProgram() *programObj {
	ctx.mu.Lock()
	id := ctx.curProgram
	ctx.mu.Unlock()
	if id == 0 {
		return nil
	}
	return ctx.lookupProgram(id)
}

// Uniform1i implements glUniform1i: MiniSL has no int type, so it binds
// sampler units only.
func (l *Lib) Uniform1i(t *kernel.Thread, loc int, v int) {
	l.enter(t, "glUniform1i")
	l.setUniform(t, loc, uniformValue{i: v, n: 0})
}

// Uniform1f implements glUniform1f.
func (l *Lib) Uniform1f(t *kernel.Thread, loc int, v float32) {
	l.enter(t, "glUniform1f")
	l.setUniform(t, loc, uniformValue{f: [4]float32{v}, n: 1})
}

// Uniform2f implements glUniform2f.
func (l *Lib) Uniform2f(t *kernel.Thread, loc int, x, y float32) {
	l.enter(t, "glUniform2f")
	l.setUniform(t, loc, uniformValue{f: [4]float32{x, y}, n: 2})
}

// Uniform3f implements glUniform3f.
func (l *Lib) Uniform3f(t *kernel.Thread, loc int, x, y, z float32) {
	l.enter(t, "glUniform3f")
	l.setUniform(t, loc, uniformValue{f: [4]float32{x, y, z}, n: 3})
}

// Uniform4f implements glUniform4f.
func (l *Lib) Uniform4f(t *kernel.Thread, loc int, x, y, z, w float32) {
	l.enter(t, "glUniform4f")
	l.setUniform(t, loc, uniformValue{f: [4]float32{x, y, z, w}, n: 4})
}

// UniformMatrix4fv implements glUniformMatrix4fv.
func (l *Lib) UniformMatrix4fv(t *kernel.Thread, loc int, m gpu.Mat4) {
	l.enter(t, "glUniformMatrix4fv")
	l.setUniform(t, loc, uniformValue{mat: &m})
}

// setUniform stores a glUniform* call's value. A call whose type is not
// the uniform's declaration sets GL_INVALID_OPERATION and leaves the value
// as it was (GLES 2.0 §2.10.4).
func (l *Lib) setUniform(t *kernel.Thread, loc int, v uniformValue) {
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	p := ctx.currentProgram()
	if p == nil {
		ctx.setErr(InvalidOperation)
		return
	}
	if loc < 0 || loc >= len(p.uniformNames) {
		ctx.setErr(InvalidValue)
		return
	}
	if v.typ() != p.uniformTypes[loc] {
		ctx.setErr(InvalidOperation)
		return
	}
	p.values[loc] = v
}

// VertexAttribPointer implements glVertexAttribPointer. When data is nil the
// attribute sources from the bound ARRAY_BUFFER (vertex buffer object).
func (l *Lib) VertexAttribPointer(t *kernel.Thread, loc, size int, data []float32) {
	l.enter(t, "glVertexAttribPointer")
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	if loc < 0 || loc >= len(ctx.attribs) || size < 1 || size > 4 {
		ctx.setErr(InvalidValue)
		return
	}
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.attribs[loc].size = size
	ctx.attribs[loc].data = data
	if data == nil {
		ctx.attribs[loc].buffer = ctx.boundArray
	} else {
		ctx.attribs[loc].buffer = 0
	}
}

// EnableVertexAttribArray implements glEnableVertexAttribArray.
func (l *Lib) EnableVertexAttribArray(t *kernel.Thread, loc int) {
	l.enter(t, "glEnableVertexAttribArray")
	l.setAttribEnabled(t, loc, true)
}

// DisableVertexAttribArray implements glDisableVertexAttribArray.
func (l *Lib) DisableVertexAttribArray(t *kernel.Thread, loc int) {
	l.enter(t, "glDisableVertexAttribArray")
	l.setAttribEnabled(t, loc, false)
}

func (l *Lib) setAttribEnabled(t *kernel.Thread, loc int, on bool) {
	ctx := l.current(t)
	if ctx == nil {
		return
	}
	if loc < 0 || loc >= len(ctx.attribs) {
		ctx.setErr(InvalidValue)
		return
	}
	ctx.mu.Lock()
	ctx.attribs[loc].enabled = on
	ctx.mu.Unlock()
}
