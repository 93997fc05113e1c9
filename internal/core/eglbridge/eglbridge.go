// Package eglbridge implements libEGLbridge (paper §5, §8.2, Figure 3): the
// Android-side library into which Cycada coalesces its EAGL multi diplomats.
// "This allows us to pay the overhead of one diplomat which calls into a
// custom Android API that uses standard Android functions and libraries to
// perform the required function."
//
// The package has the two halves §8.2 describes: this file is the domestic
// library (the aegl_bridge_* entry points, which never run in the foreign
// persona and may link Android libraries freely); backend.go is the foreign
// half — the EAGL backend and IOSurface interposer built purely from
// diplomats.
package eglbridge

import (
	"errors"
	"fmt"
	"sync"

	"cycada/internal/android/egl"
	"cycada/internal/android/gralloc"
	"cycada/internal/core/coresurface"
	"cycada/internal/core/impersonate"
	"cycada/internal/core/uiwrapper"
	"cycada/internal/gles/engine"
	"cycada/internal/ios/eagl"
	"cycada/internal/ios/iosurface"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// LibName is the library name (Figure 3).
const LibName = "libEGLbridge.so"

// shared is the backend state of an EAGL sharegroup: contexts in one group
// live on one replica (so their objects share a GLES connection, §8.2) and
// one engine sharegroup.
type shared struct {
	conn  *egl.MCConnection
	uiw   *uiwrapper.Lib
	group *engine.ShareGroup
}

// bctx is the backend state of one EAGLContext under Cycada.
type bctx struct {
	api     int
	sh      *shared
	glesCtx *engine.Context
	creator *kernel.Thread

	mu         sync.Mutex
	layer      eagl.Drawable
	layerBuf   *gralloc.Buffer
	winSurf    *egl.Surface
	presentTex uint32
	blit       *blitState
}

func (b *bctx) engine() *engine.Lib { return b.sh.conn.Engine() }

// Lib is the loaded libEGLbridge instance (domestic side).
type Lib struct {
	link *linker.Linker
	egl  *egl.Lib
	mod  *coresurface.Module
	imp  *impersonate.Manager

	mu           sync.Mutex
	surfBindings map[uint64][]surfBinding     // IOSurface ID -> texture bindings
	sessions     map[int]*impersonate.Session // per-TID impersonation
	current      map[int]*bctx                // per-TID current backend context
}

type surfBinding struct {
	uiw *uiwrapper.Lib
	tex uint32
}

// Frame-health histogram names for the two bridge hot paths: making a
// foreign context current (replica switch + impersonation) and the §5 blit
// present. Resolved per call through the thread's kernel registry so the
// samples scope to whatever stack or session the call runs under.
const (
	MakeCurrentHistName = "eglbridge-make-current"
	BlitHistName        = "eglbridge-blit"
)

// ContextCount reports how many threads currently have a backend context
// current (introspection snapshots).
func (l *Lib) ContextCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.current)
}

// SessionCount reports how many impersonation sessions the bridge holds open
// on behalf of rendering threads (introspection snapshots).
func (l *Lib) SessionCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sessions)
}

// Deps injects the pieces the bridge needs; the system assembler fills it
// before loading the blueprint.
type Deps struct {
	EGL          *egl.Lib
	CoreSurface  *coresurface.Module
	Impersonator *impersonate.Manager
}

// Blueprint returns the libEGLbridge blueprint. Per §8.2 it deliberately
// "avoids linking against [vendor] libraries": its only linker dependencies
// are the open-source EGL front and libc; all vendor access goes through the
// per-context libui_wrapper replica.
func Blueprint(deps Deps) *linker.Blueprint {
	return &linker.Blueprint{
		Name: LibName,
		Deps: []string{egl.OpenLibName, "libc.so"},
		New: func(ctx *linker.LoadContext) (linker.Instance, error) {
			if deps.EGL == nil || deps.CoreSurface == nil || deps.Impersonator == nil {
				return nil, fmt.Errorf("eglbridge: missing dependencies")
			}
			return &Lib{
				link:         ctx.Linker(),
				egl:          deps.EGL,
				mod:          deps.CoreSurface,
				imp:          deps.Impersonator,
				surfBindings: map[uint64][]surfBinding{},
				sessions:     map[int]*impersonate.Session{},
				current:      map[int]*bctx{},
			}, nil
		},
	}
}

// backing returns the GraphicBuffer behind an IOSurface, attached at
// IOSurfaceCreate interposition time (§6.1).
func backing(s *iosurface.Surface) (*gralloc.Buffer, error) {
	buf, ok := s.Compat.(*gralloc.Buffer)
	if !ok || buf == nil {
		return nil, fmt.Errorf("eglbridge: surface %d has no GraphicBuffer backing", s.ID)
	}
	return buf, nil
}

// --- Domestic entry points (run in the Android persona via diplomats) ---

// createContext implements aegl_bridge_create_context: per §8.2, "when a new
// EAGLContext object is created, a diplomat in libEGLbridge creates a
// replica of the libui_wrapper library and the EGL/GLES libraries"; contexts
// sharing an EAGL sharegroup reuse the group's replica.
func (l *Lib) createContext(t *kernel.Thread, api int, sh *shared) (*bctx, error) {
	fresh := sh == nil
	if fresh {
		conn, err := l.egl.ReInitializeMC(t, uiwrapper.LibName)
		if err != nil {
			return nil, fmt.Errorf("aegl_bridge_create_context: %w", err)
		}
		uiwInst, ok := l.link.InstanceIn(conn.Handle, uiwrapper.LibName)
		if !ok {
			l.egl.CloseMC(t, conn)
			return nil, fmt.Errorf("aegl_bridge_create_context: replica lacks %s", uiwrapper.LibName)
		}
		sh = &shared{conn: conn, uiw: uiwInst.(*uiwrapper.Lib), group: engine.NewShareGroup()}
	}
	if err := l.egl.SwitchMC(t, sh.conn); err != nil {
		if fresh {
			l.egl.CloseMC(t, sh.conn)
		}
		return nil, err
	}
	glesCtx, err := l.egl.CreateContext(t, api, sh.group)
	if err != nil {
		// A context that never existed holds no replica reference; a freshly
		// replicated namespace must not be stranded by the failure.
		if fresh {
			l.egl.CloseMC(t, sh.conn)
		}
		return nil, fmt.Errorf("aegl_bridge_create_context: %w", err)
	}
	return &bctx{api: api, sh: sh, glesCtx: glesCtx, creator: t}, nil
}

// destroyContext implements aegl_bridge_destroy_context: it tears the
// context down and, with it, the replica namespace reference.
func (l *Lib) destroyContext(t *kernel.Thread, b *bctx) error {
	l.egl.DestroyContext(t, b.glesCtx)
	b.mu.Lock()
	win := b.winSurf
	b.winSurf = nil
	b.mu.Unlock()
	if win != nil {
		if err := l.egl.DestroySurface(t, win); err != nil {
			return err
		}
	}
	return l.egl.CloseMC(t, b.sh.conn)
}

// setTLS implements aegl_bridge_set_tls: it selects the calling thread's
// replica connection and performs the impersonation half of making a foreign
// context current — when the caller is not the context's creating thread, it
// assumes the creator's identity and migrates the graphics TLS of both
// personas (§7.1).
func (l *Lib) setTLS(t *kernel.Thread, b *bctx) error {
	// End any previous impersonation for this thread.
	l.mu.Lock()
	sess := l.sessions[t.TID()]
	delete(l.sessions, t.TID())
	l.mu.Unlock()
	if sess != nil {
		if err := sess.End(); err != nil {
			return err
		}
	}
	if b == nil {
		return l.egl.SwitchMC(t, nil)
	}
	if err := l.egl.SwitchMC(t, b.sh.conn); err != nil {
		return err
	}
	if t != b.creator && !b.creator.IsGroupLeader() {
		s, err := l.imp.Impersonate(t, b.creator)
		if err != nil {
			return fmt.Errorf("aegl_bridge_set_tls: %w", err)
		}
		l.mu.Lock()
		l.sessions[t.TID()] = s
		l.mu.Unlock()
	}
	return nil
}

// makeCurrent implements aegl_bridge_make_current.
func (l *Lib) makeCurrent(t *kernel.Thread, b *bctx) error {
	sp := t.TraceBegin(obs.CatEGL, "egl:make_current")
	defer t.TraceEnd(sp)
	start := t.VTime()
	defer func() { t.Histograms().Histogram(MakeCurrentHistName).Observe(t.TID(), t.VTime()-start) }()
	if b == nil {
		l.mu.Lock()
		prev := l.current[t.TID()]
		delete(l.current, t.TID())
		l.mu.Unlock()
		if prev != nil {
			return prev.engine().MakeCurrent(t, nil)
		}
		return nil
	}
	var err error
	b.mu.Lock()
	win := b.winSurf
	b.mu.Unlock()
	if win != nil {
		err = l.egl.MakeCurrent(t, win, b.glesCtx)
	} else {
		err = b.engine().MakeCurrent(t, b.glesCtx)
	}
	if err != nil {
		return fmt.Errorf("aegl_bridge_make_current: %w", err)
	}
	l.mu.Lock()
	l.current[t.TID()] = b
	l.mu.Unlock()
	return nil
}

// storageFromDrawable implements aegl_bridge_storage_from_drawable: the
// bound renderbuffer's storage becomes the layer IOSurface's GraphicBuffer,
// and an EGL window surface is created for presentation.
func (l *Lib) storageFromDrawable(t *kernel.Thread, b *bctx, d eagl.Drawable) error {
	surf := d.Surface()
	if surf == nil {
		return fmt.Errorf("aegl_bridge_storage: drawable has no IOSurface")
	}
	buf, err := backing(surf)
	if err != nil {
		return err
	}
	eng := b.engine()
	if eng.Current(t) != b.glesCtx {
		return fmt.Errorf("aegl_bridge_storage: context not current")
	}
	eng.RenderbufferStorageFromImage(t, buf.Img)
	if e := eng.GetError(t); e != engine.NoError {
		return fmt.Errorf("aegl_bridge_storage: GL error %#x", e)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	b.layer = d
	b.layerBuf = buf
	if b.winSurf == nil {
		x, y := d.Position()
		w, h := d.Bounds()
		win, err := l.egl.CreateWindowSurface(t, x, y, w, h)
		if err != nil {
			return fmt.Errorf("aegl_bridge_storage: window surface: %w", err)
		}
		if err := l.egl.MakeCurrent(t, win, b.glesCtx); err != nil {
			// The surface never became usable; release its buffers and layer
			// rather than stranding them on a half-initialized bctx.
			return errors.Join(err, l.egl.DestroySurface(t, win))
		}
		b.winSurf = win
	}
	// A texture wrapping the layer buffer feeds the present blit (GLES 2
	// contexts only; GLES 1 presents through the copy path).
	if b.api == eagl.APIGLES2 && b.presentTex == 0 {
		ids := eng.GenTextures(t, 1)
		if len(ids) == 1 {
			if err := b.sh.uiw.BindSurfaceTexture(t, ids[0], surf.ID, buf); err != nil {
				eng.DeleteTextures(t, ids)
				return err
			}
			b.presentTex = ids[0]
			l.recordBinding(surf.ID, b.sh.uiw, ids[0])
		}
	}
	return nil
}

// drawFBOTex implements aegl_bridge_draw_fbo_tex (§5): "this diplomat uses
// simple GLES vertex and fragment shader programs, via Android GLES APIs, to
// render the off-screen framebuffer contents into the default framebuffer" —
// the paper's deliberately inefficient present path.
func (l *Lib) drawFBOTex(t *kernel.Thread, b *bctx) error {
	sp := t.TraceBegin(obs.CatEGL, "egl:blit_shader")
	defer t.TraceEnd(sp)
	start := t.VTime()
	defer func() { t.Histograms().Histogram(BlitHistName).Observe(t.TID(), t.VTime()-start) }()
	b.mu.Lock()
	win := b.winSurf
	tex := b.presentTex
	b.mu.Unlock()
	if win == nil || tex == 0 {
		return fmt.Errorf("aegl_bridge_draw_fbo_tex: no window surface")
	}
	eng := b.engine()
	if err := b.ensureBlit(t); err != nil {
		return err
	}
	savedFBO := eng.BoundFramebuffer(t)
	savedProg := eng.CurrentProgram(t)
	eng.BindFramebuffer(t, engine.Framebuffer, 0)
	b.blit.draw(t, eng, tex)
	eng.BindFramebuffer(t, engine.Framebuffer, savedFBO)
	eng.UseProgram(t, savedProg)
	if e := eng.GetError(t); e != engine.NoError {
		return fmt.Errorf("aegl_bridge_draw_fbo_tex: GL error %#x", e)
	}
	return nil
}

// copyTexBuf implements aegl_bridge_copy_tex_buf, the GLES 1 present path
// (no shaders available): the backend context's layer buffer is copied into
// its window back buffer.
func (l *Lib) copyTexBuf(t *kernel.Thread, args []any) (any, error) {
	b, ok := args[0].(*bctx)
	if !ok {
		return nil, fmt.Errorf("aegl_bridge_copy_tex_buf: bad arguments %T", args[0])
	}
	sp := t.TraceBegin(obs.CatEGL, "egl:blit_copy")
	defer t.TraceEnd(sp)
	b.mu.Lock()
	win := b.winSurf
	buf := b.layerBuf
	b.mu.Unlock()
	if win == nil || buf == nil {
		return nil, fmt.Errorf("aegl_bridge_copy_tex_buf: no window surface")
	}
	tgt := win.Target()
	n := tgt.Color.Copy(buf.Img, 0, 0)
	t.ChargeGPU(vclock.Duration(n) * t.Costs().PerPixelCopyTex)
	return nil, nil
}

// deleteTextures implements aegl_bridge_delete_textures — the domestic half
// of the glDeleteTextures multi diplomat: it removes any IOSurface
// connection (§6.1) before the real delete.
func (l *Lib) deleteTextures(t *kernel.Thread, ids []uint32) error {
	conn := l.egl.CurrentMC(t)
	if conn == nil {
		return fmt.Errorf("aegl_bridge_delete_textures: no replica selected")
	}
	uiwInst, ok := l.link.InstanceIn(conn.Handle, uiwrapper.LibName)
	if ok {
		uiw := uiwInst.(*uiwrapper.Lib)
		for _, id := range ids {
			uiw.ReleaseTexture(t, id)
			l.dropBinding(uiw, id)
		}
	}
	conn.Engine().DeleteTextures(t, ids)
	return nil
}

// bindSurfaceTex implements aegl_bridge_bind_surface_tex — the domestic half
// of the glEGLImageTargetTexture2DOES multi diplomat: it associates the
// IOSurface's GraphicBuffer with the texture bound on the active unit.
func (l *Lib) bindSurfaceTex(t *kernel.Thread, surf *iosurface.Surface) error {
	buf, err := backing(surf)
	if err != nil {
		return err
	}
	conn := l.egl.CurrentMC(t)
	if conn == nil {
		return fmt.Errorf("aegl_bridge_bind_surface_tex: no replica selected")
	}
	uiwInst, ok := l.link.InstanceIn(conn.Handle, uiwrapper.LibName)
	if !ok {
		return fmt.Errorf("aegl_bridge_bind_surface_tex: replica lacks %s", uiwrapper.LibName)
	}
	uiw := uiwInst.(*uiwrapper.Lib)
	texID := conn.Engine().BoundTexture(t)
	if texID == 0 {
		return fmt.Errorf("aegl_bridge_bind_surface_tex: no texture bound")
	}
	if err := uiw.BindSurfaceTexture(t, texID, surf.ID, buf); err != nil {
		return err
	}
	l.recordBinding(surf.ID, uiw, texID)
	return nil
}

// lockSurface implements aegl_bridge_lock_surface — the IOSurfaceLock multi
// diplomat's domestic half: every texture bound to the surface is unbound
// through the §6.2 dance so the kernel CPU lock can succeed.
func (l *Lib) lockSurface(t *kernel.Thread, surf *iosurface.Surface) error {
	l.mu.Lock()
	bindings := append([]surfBinding(nil), l.surfBindings[surf.ID]...)
	l.mu.Unlock()
	for _, sb := range bindings {
		if err := sb.uiw.UnbindForCPU(t, sb.tex); err != nil {
			return fmt.Errorf("aegl_bridge_lock_surface: %w", err)
		}
	}
	return nil
}

// unlockSurface implements aegl_bridge_unlock_surface: EGLImages are
// recreated and rebound, transparently to the app's GLES (§6.2).
func (l *Lib) unlockSurface(t *kernel.Thread, surf *iosurface.Surface) error {
	l.mu.Lock()
	bindings := append([]surfBinding(nil), l.surfBindings[surf.ID]...)
	l.mu.Unlock()
	for _, sb := range bindings {
		if err := sb.uiw.RebindAfterCPU(t, sb.tex); err != nil {
			return fmt.Errorf("aegl_bridge_unlock_surface: %w", err)
		}
	}
	return nil
}

// adoptSurface implements aegl_bridge_adopt_surface — the IOSurfaceCreate
// indirect diplomat's domestic half (§6.1): it connects the new surface to
// its Android GraphicBuffer backing.
func (l *Lib) adoptSurface(t *kernel.Thread, surf *iosurface.Surface) error {
	buf, ok := l.mod.Buffer(surf.ID)
	if !ok {
		return fmt.Errorf("aegl_bridge_adopt_surface: surface %d unknown to LinuxCoreSurface", surf.ID)
	}
	surf.Compat = buf
	return nil
}

// releaseSurface implements aegl_bridge_release_surface: bindings are
// dropped before the kernel frees the backing buffer.
func (l *Lib) releaseSurface(t *kernel.Thread, surf *iosurface.Surface) error {
	l.mu.Lock()
	bindings := l.surfBindings[surf.ID]
	delete(l.surfBindings, surf.ID)
	l.mu.Unlock()
	for _, sb := range bindings {
		sb.uiw.ReleaseTexture(t, sb.tex)
	}
	return nil
}

func (l *Lib) recordBinding(surfID uint64, uiw *uiwrapper.Lib, tex uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.surfBindings[surfID] = append(l.surfBindings[surfID], surfBinding{uiw: uiw, tex: tex})
}

func (l *Lib) dropBinding(uiw *uiwrapper.Lib, tex uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for surfID, list := range l.surfBindings {
		out := list[:0]
		for _, sb := range list {
			if sb.uiw != uiw || sb.tex != tex {
				out = append(out, sb)
			}
		}
		if len(out) == 0 {
			delete(l.surfBindings, surfID)
		} else {
			l.surfBindings[surfID] = out
		}
	}
}

// Symbols implements linker.Instance: the aegl_bridge_* custom Android API.
func (l *Lib) Symbols() map[string]linker.Fn {
	return map[string]linker.Fn{
		"aegl_bridge_create_context": func(t *kernel.Thread, args ...any) any {
			sh, _ := args[1].(*shared)
			b, err := l.createContext(t, args[0].(int), sh)
			if err != nil {
				return err
			}
			return b
		},
		"aegl_bridge_destroy_context": func(t *kernel.Thread, args ...any) any {
			return l.destroyContext(t, args[0].(*bctx))
		},
		"aegl_bridge_set_tls": func(t *kernel.Thread, args ...any) any {
			b, _ := args[0].(*bctx)
			return l.setTLS(t, b)
		},
		"aegl_bridge_make_current": func(t *kernel.Thread, args ...any) any {
			b, _ := args[0].(*bctx)
			return l.makeCurrent(t, b)
		},
		"aegl_bridge_storage_from_drawable": func(t *kernel.Thread, args ...any) any {
			return l.storageFromDrawable(t, args[0].(*bctx), args[1].(eagl.Drawable))
		},
		"aegl_bridge_draw_fbo_tex": func(t *kernel.Thread, args ...any) any {
			return l.drawFBOTex(t, args[0].(*bctx))
		},
		"aegl_bridge_copy_tex_buf": func(t *kernel.Thread, args ...any) any {
			_, err := l.copyTexBuf(t, args)
			if err != nil {
				return err
			}
			return nil
		},
		"aegl_bridge_delete_textures": func(t *kernel.Thread, args ...any) any {
			if err := l.deleteTextures(t, args[0].([]uint32)); err != nil {
				return err
			}
			return nil
		},
		"aegl_bridge_bind_surface_tex": func(t *kernel.Thread, args ...any) any {
			if err := l.bindSurfaceTex(t, args[0].(*iosurface.Surface)); err != nil {
				return err
			}
			return nil
		},
		"aegl_bridge_lock_surface": func(t *kernel.Thread, args ...any) any {
			return l.lockSurface(t, args[0].(*iosurface.Surface))
		},
		"aegl_bridge_unlock_surface": func(t *kernel.Thread, args ...any) any {
			return l.unlockSurface(t, args[0].(*iosurface.Surface))
		},
		"aegl_bridge_adopt_surface": func(t *kernel.Thread, args ...any) any {
			return l.adoptSurface(t, args[0].(*iosurface.Surface))
		},
		"aegl_bridge_release_surface": func(t *kernel.Thread, args ...any) any {
			return l.releaseSurface(t, args[0].(*iosurface.Surface))
		},
	}
}
