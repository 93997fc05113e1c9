package eglbridge

import (
	"fmt"

	"cycada/internal/core/diplomat"
	"cycada/internal/ios/eagl"
	"cycada/internal/ios/iosurface"
	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
)

// Backend is the foreign (iOS-side) half of §8.2's split: it implements the
// EAGL backend and the IOSurface interposition purely through diplomats into
// libEGLbridge — "the first piece contains all the diplomats used by the iOS
// code, and avoids linking against [Android] libraries."
type Backend struct {
	lib *diplomat.Library
}

// aeglFunctions is the multi-diplomat surface of libEGLbridge, plus
// eglSwapBuffers (the standardized EGL call Figure 7/8 profile alongside
// them).
var aeglFunctions = []string{
	"aegl_bridge_create_context",
	"aegl_bridge_destroy_context",
	"aegl_bridge_set_tls",
	"aegl_bridge_make_current",
	"aegl_bridge_storage_from_drawable",
	"aegl_bridge_draw_fbo_tex",
	"aegl_bridge_copy_tex_buf",
	"aegl_bridge_delete_textures",
	"aegl_bridge_bind_surface_tex",
	"aegl_bridge_lock_surface",
	"aegl_bridge_unlock_surface",
	"aegl_bridge_adopt_surface",
	"aegl_bridge_release_surface",
	"eglSwapBuffers",
}

// NewBackend builds the foreign half over a diplomat configuration whose
// Library handle points at the loaded libEGLbridge.
func NewBackend(cfg diplomat.Config) (*Backend, error) {
	lib, err := diplomat.NewLibrary(cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range aeglFunctions {
		if _, err := lib.Add(name, diplomat.Multi, nil); err != nil {
			return nil, err
		}
	}
	return &Backend{lib: lib}, nil
}

// call invokes a diplomat and normalizes its error return.
func (bk *Backend) call(t *kernel.Thread, name string, args ...any) (any, error) {
	d, _ := bk.lib.Get(name)
	ret := d.Call(t, args...)
	if err, ok := ret.(error); ok {
		return nil, err
	}
	return ret, nil
}

// --- eagl.Backend ---

// Name implements eagl.Backend.
func (bk *Backend) Name() string { return "cycada-eglbridge" }

// NewContext implements eagl.Backend via the create_context multi diplomat.
func (bk *Backend) NewContext(t *kernel.Thread, api int, shareData any) (eagl.BackendContext, any, error) {
	sh, _ := shareData.(*shared)
	ret, err := bk.call(t, "aegl_bridge_create_context", api, sh)
	if err != nil {
		return nil, nil, err
	}
	b, ok := ret.(*bctx)
	if !ok {
		return nil, nil, fmt.Errorf("eglbridge: unexpected create_context result %T", ret)
	}
	return b, b.sh, nil
}

// DestroyContext implements eagl.Backend.
func (bk *Backend) DestroyContext(t *kernel.Thread, bc eagl.BackendContext) error {
	b, err := asBctx(bc)
	if err != nil {
		return err
	}
	_, err = bk.call(t, "aegl_bridge_destroy_context", b)
	return err
}

// MakeCurrent implements eagl.Backend: set_tls performs replica selection
// and thread impersonation; make_current binds the replica's GLES context.
func (bk *Backend) MakeCurrent(t *kernel.Thread, bc eagl.BackendContext) error {
	if bc == nil {
		if _, err := bk.call(t, "aegl_bridge_make_current", (*bctx)(nil)); err != nil {
			return err
		}
		_, err := bk.call(t, "aegl_bridge_set_tls", (*bctx)(nil))
		return err
	}
	b, err := asBctx(bc)
	if err != nil {
		return err
	}
	if _, err := bk.call(t, "aegl_bridge_set_tls", b); err != nil {
		return err
	}
	_, err = bk.call(t, "aegl_bridge_make_current", b)
	return err
}

// RenderbufferStorageFromDrawable implements eagl.Backend.
func (bk *Backend) RenderbufferStorageFromDrawable(t *kernel.Thread, bc eagl.BackendContext, d eagl.Drawable) error {
	b, err := asBctx(bc)
	if err != nil {
		return err
	}
	_, err = bk.call(t, "aegl_bridge_storage_from_drawable", b, d)
	return err
}

// PresentRenderbuffer implements eagl.Backend: GLES 2 contexts present
// through the shader blit (draw_fbo_tex), GLES 1 contexts through the copy
// path, and both finish with eglSwapBuffers — exactly the function trio the
// paper's profiles show. By the time this runs, EAGL's flush hook has
// drained the command encoder, so the blit reads a framebuffer that already
// holds every logically-preceding GLES call, and eglSwapBuffers posts the
// frame to SurfaceFlinger before it returns.
func (bk *Backend) PresentRenderbuffer(t *kernel.Thread, bc eagl.BackendContext) error {
	sp := t.TraceBegin(obs.CatEGL, "egl:present")
	defer t.TraceEnd(sp)
	b, err := asBctx(bc)
	if err != nil {
		return err
	}
	if b.api == eagl.APIGLES2 {
		if _, err := bk.call(t, "aegl_bridge_draw_fbo_tex", b); err != nil {
			return err
		}
	} else {
		if _, err := bk.call(t, "aegl_bridge_copy_tex_buf", b); err != nil {
			return err
		}
	}
	b.mu.Lock()
	win := b.winSurf
	b.mu.Unlock()
	if win == nil {
		return fmt.Errorf("eglbridge: present before renderbufferStorage:fromDrawable:")
	}
	_, err = bk.call(t, "eglSwapBuffers", win)
	return err
}

// --- iosurface.Interposer ---

// OnCreate implements iosurface.Interposer: the IOSurfaceCreate indirect
// diplomat of §6.1.
func (bk *Backend) OnCreate(t *kernel.Thread, s *iosurface.Surface) error {
	_, err := bk.call(t, "aegl_bridge_adopt_surface", s)
	return err
}

// BeforeLock implements iosurface.Interposer: the IOSurfaceLock multi
// diplomat of §6.2.
func (bk *Backend) BeforeLock(t *kernel.Thread, s *iosurface.Surface) error {
	_, err := bk.call(t, "aegl_bridge_lock_surface", s)
	return err
}

// AfterUnlock implements iosurface.Interposer: the IOSurfaceUnlock multi
// diplomat of §6.2.
func (bk *Backend) AfterUnlock(t *kernel.Thread, s *iosurface.Surface) error {
	_, err := bk.call(t, "aegl_bridge_unlock_surface", s)
	return err
}

// OnRelease implements iosurface.Interposer.
func (bk *Backend) OnRelease(t *kernel.Thread, s *iosurface.Surface) error {
	_, err := bk.call(t, "aegl_bridge_release_surface", s)
	return err
}

func asBctx(bc eagl.BackendContext) (*bctx, error) {
	b, ok := bc.(*bctx)
	if !ok || b == nil {
		return nil, fmt.Errorf("eglbridge: foreign backend context %T", bc)
	}
	return b, nil
}
