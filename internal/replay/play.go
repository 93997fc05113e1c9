package replay

import (
	"bytes"
	"fmt"

	"cycada/internal/core/callconv"
	"cycada/internal/core/system"
	"cycada/internal/fault"
	"cycada/internal/gles/glesapi"
	"cycada/internal/ios/eagl"
	"cycada/internal/ios/iosurface"
	"cycada/internal/obs"
	"cycada/internal/sim/gpu"
	"cycada/internal/sim/kernel"
)

// Options parameterizes a replay.
type Options struct {
	// Verify compares per-present screen checksums and the final frame
	// against the values captured at record time.
	Verify bool
	// Tracer receives replay-phase spans; nil means obs.Default.
	Tracer *obs.Tracer
	// Faults, when set, is installed on the replay kernel after boot, so the
	// schedule's deterministic decision sequences cover exactly the replayed
	// events (boot is always fault-free). Each Play gets its own kernel, so
	// one injector must not be shared between concurrent replays.
	Faults *fault.Injector
	// BatchCap, when > 0, re-drives GLES events through the command-encoder
	// batch path: runs of batchable calls accumulate into a pooled callconv
	// batch and cross the persona boundary in one impersonation window per
	// run, flushed by an observing call, the cap, a thread switch, or any
	// EAGL/IOSurface event. The logical call stream — and therefore every
	// present checksum — is identical to the serial path. 0 replays serially.
	BatchCap int
	// System, when set, replays onto this already-booted Cycada stack
	// instead of booting a fresh one: the device farm's session body. The
	// stack's screen geometry must match the trace, the screen must be in
	// its boot state (see sflinger.Flinger.Reset), and the caller must not
	// run anything else on the stack during the replay — checksum
	// verification reads the shared scan-out image. The replay still creates
	// its own app process and closes it when done.
	System *system.Cycada
}

// Mismatch is one present whose replayed screen checksum differs from the
// recorded one.
type Mismatch struct {
	Event     int // index into Trace.Events
	Present   int // 0-based present ordinal
	Want, Got uint32
}

// Result summarizes one replay.
type Result struct {
	Events   int
	Presents int

	// Crossings is how many persona-boundary crossings the bridge performed
	// (one per serial call, one per batch window); BatchedCalls is how many
	// GLES calls travelled inside batch windows. With batching off,
	// BatchedCalls is 0 and Crossings equals the GLES call count.
	Crossings    uint64
	BatchedCalls uint64

	// Verification outcome (zero unless Options.Verify was set).
	Mismatches   []Mismatch
	FinalChecked bool
	FinalOK      bool
	FinalWant    uint32
	FinalGot     uint32
}

// VerifyOK reports whether every differential check passed.
func (r *Result) VerifyOK() bool {
	return len(r.Mismatches) == 0 && (!r.FinalChecked || r.FinalOK)
}

// Play boots a fresh Cycada system — Android stack, LinuxCoreSurface, and one
// dual-persona process with the diplomatic iOS userland, but no iOS app code
// — and re-drives the trace against it. Events execute sequentially in
// recorded order from a single goroutine, but each on its recorded thread, so
// thread identity (and with it impersonation, TLS migration, and per-thread
// replica selection) is reproduced exactly.
//
// Replays are fully independent: each Play gets its own kernel, clock, and
// process, so any number can run concurrently.
func Play(tr *Trace, opts Options) (*Result, error) {
	p, err := boot(tr, opts)
	if err != nil {
		return nil, err
	}
	defer p.app.Close()
	if opts.System != nil && opts.Faults != nil {
		// On a caller-owned stack the injector must not outlive the replay.
		defer opts.System.Android.Kernel.SetFaultInjector(nil)
	}
	if err := p.run(tr); err != nil {
		return nil, err
	}
	return p.res, nil
}

// boot validates the trace and boots the fresh Cycada system the replay runs
// against. The fault injector (if any) is installed only after the boot
// succeeds, so a schedule's decision sequences cover exactly the replayed
// events.
func boot(tr *Trace, opts Options) (*player, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	sys := opts.System
	if sys == nil {
		sys = system.New(system.Config{
			ScreenW: tr.ScreenW,
			ScreenH: tr.ScreenH,
			Tracer:  opts.Tracer,
		})
	} else if w, h := sys.Android.Flinger.Size(); w != tr.ScreenW || h != tr.ScreenH {
		return nil, fmt.Errorf("replay: stack screen %dx%d does not match trace %dx%d", w, h, tr.ScreenW, tr.ScreenH)
	}
	app, err := sys.NewIOSApp(system.AppConfig{Name: "replay-" + tr.Label})
	if err != nil {
		return nil, fmt.Errorf("replay: boot: %w", err)
	}
	if opts.Faults != nil {
		sys.Android.Kernel.SetFaultInjector(opts.Faults)
	}
	return &player{
		sys:      sys,
		app:      app,
		verify:   opts.Verify,
		batchCap: opts.BatchCap,
		threads:  map[int]*kernel.Thread{},
		ctxs:     map[CtxRef]*eagl.Context{},
		groups:   map[GroupRef]*eagl.Sharegroup{},
		surfs:    map[SurfRef]*iosurface.Surface{},
		res:      &Result{Events: len(tr.Events)},
	}, nil
}

// run re-drives the trace against the booted system and performs the final
// frame comparison when verification is on.
func (p *player) run(tr *Trace) error {
	main := p.app.Main()
	sp := main.TraceBegin(obs.CatReplay, "replay:play:"+tr.Label)
	for i := range tr.Events {
		if err := p.step(i, &tr.Events[i]); err != nil {
			p.dropBatch()
			main.TraceEnd(sp)
			return fmt.Errorf("replay: event %d (%s %q): %w", i, tr.Events[i].Kind, tr.Events[i].Name, err)
		}
	}
	if err := p.flushBatch(); err != nil {
		main.TraceEnd(sp)
		return fmt.Errorf("replay: final batch flush: %w", err)
	}
	main.TraceEnd(sp)
	p.res.Crossings = p.app.Bridge.Crossings()
	p.res.BatchedCalls = p.app.Bridge.BatchedCalls()

	if p.verify && tr.Final != nil {
		vsp := main.TraceBegin(obs.CatReplay, "replay:verify-final")
		got := p.sys.Android.Flinger.Screen()
		p.res.FinalChecked = true
		p.res.FinalWant = tr.Final.Checksum()
		p.res.FinalGot = got.Checksum()
		p.res.FinalOK = got.W == tr.Final.W && got.H == tr.Final.H &&
			bytes.Equal(got.Pix, tr.Final.Pix)
		main.TraceEnd(vsp)
	}
	return nil
}

// Verify replays tr with differential checking and returns an error
// describing the first divergence, if any.
func Verify(tr *Trace) (*Result, error) {
	res, err := Play(tr, Options{Verify: true})
	if err != nil {
		return nil, err
	}
	return res, res.VerifyError()
}

// VerifyError returns nil when every differential check passed, otherwise an
// error describing the first divergence (the same rendering Verify returns).
func (r *Result) VerifyError() error {
	if len(r.Mismatches) > 0 {
		m := r.Mismatches[0]
		return fmt.Errorf("replay: %d/%d present checksums diverged; first at present %d (event %d): recorded %08x, replayed %08x",
			len(r.Mismatches), r.Presents, m.Present, m.Event, m.Want, m.Got)
	}
	if r.FinalChecked && !r.FinalOK {
		return fmt.Errorf("replay: final frame diverged: recorded %08x, replayed %08x", r.FinalWant, r.FinalGot)
	}
	return nil
}

type player struct {
	sys      *system.Cycada
	app      *system.IOSApp
	verify   bool
	batchCap int
	batch    *callconv.Batch // pending run, nil when empty or batching off

	threads map[int]*kernel.Thread
	ctxs    map[CtxRef]*eagl.Context
	groups  map[GroupRef]*eagl.Sharegroup
	surfs   map[SurfRef]*iosurface.Surface

	res *Result
}

func (p *player) step(idx int, ev *Event) error {
	if ev.Kind == KThread {
		return p.declareThread(ev)
	}
	t, ok := p.threads[ev.TID]
	if !ok {
		return fmt.Errorf("undeclared thread %d", ev.TID)
	}
	switch ev.Kind {
	case KGLES:
		args, err := p.resolveArgs(ev.Args)
		if err != nil {
			return err
		}
		if p.batchCap > 0 {
			if encoded, err := p.encodeGLES(t, ev.Name, args); encoded || err != nil {
				return err
			}
			// Not batchable: the pending run has been flushed ahead of it;
			// fall through to the serial call.
		}
		if ret := p.app.Bridge.Call(t, ev.Name, args...); ret != nil {
			if err, failed := ret.(error); failed && err != nil {
				return err
			}
		}
		return nil
	case KEAGL:
		// Presents, context switches, and teardown all observe GLES state:
		// drain the pending run first, exactly as the EAGL flush hook does on
		// the live facade path.
		if err := p.flushBatch(); err != nil {
			return err
		}
		return p.stepEAGL(idx, ev, t)
	case KSurface:
		// IOSurface lock/unlock reads and writes pixels GLES calls may
		// produce or consume; keep the logical order by flushing first.
		if err := p.flushBatch(); err != nil {
			return err
		}
		return p.stepSurface(ev, t)
	default:
		return fmt.Errorf("unknown event kind %d", ev.Kind)
	}
}

// encodeGLES appends a batchable GLES event to the pending batch, flushing
// first when a trigger fires (observing call, thread switch, cap). It reports
// false when the event must go down the serial path.
func (p *player) encodeGLES(t *kernel.Thread, name string, args []any) (bool, error) {
	id, ok := callconv.LookupID(name)
	if !ok || !glesapi.Batchable(id) {
		return false, p.flushBatch()
	}
	fr, framed, err := callconv.BuildFrame(id, args)
	if err != nil || !framed {
		// Unframeable shapes ride the serial boxed path, as on the facade.
		return false, p.flushBatch()
	}
	if p.batch != nil && p.batch.Owner() != t {
		if ferr := p.flushBatch(); ferr != nil {
			fr.Release()
			return false, ferr
		}
	}
	if p.batch == nil {
		p.batch = callconv.AcquireBatch()
		p.batch.SetOwner(t)
	}
	p.batch.Append(fr)
	if p.batch.Len() >= p.batchCap {
		return true, p.flushBatch()
	}
	return true, nil
}

// flushBatch dispatches the pending run (if any) across the boundary on its
// owner thread. Errors surface to the replay loop exactly as a failing serial
// call would.
func (p *player) flushBatch() error {
	b := p.batch
	if b == nil {
		return nil
	}
	p.batch = nil
	err := p.app.Bridge.CallBatch(b.Owner(), b)
	b.Release()
	return err
}

// dropBatch releases the pending run without dispatching it (abort path).
func (p *player) dropBatch() {
	if b := p.batch; b != nil {
		p.batch = nil
		b.Release()
	}
}

func (p *player) declareThread(ev *Event) error {
	if _, dup := p.threads[ev.TID]; dup {
		return fmt.Errorf("thread %d declared twice", ev.TID)
	}
	isMain := len(ev.Args) == 1 && ev.Args[0] == true
	if isMain {
		p.threads[ev.TID] = p.app.Main()
		return nil
	}
	p.threads[ev.TID] = p.app.Proc.NewThread(ev.Name)
	return nil
}

func (p *player) stepEAGL(idx int, ev *Event, t *kernel.Thread) error {
	switch ev.Name {
	case "initWithAPI:", "initWithAPI:sharegroup:":
		api, ok := ev.Args[0].(int)
		if !ok {
			return fmt.Errorf("bad API arg %T", ev.Args[0])
		}
		var (
			c   *eagl.Context
			err error
		)
		if ev.Name == "initWithAPI:" {
			c, err = p.app.EAGL.NewContext(t, api)
		} else {
			gref, ok := ev.Args[1].(GroupRef)
			if !ok {
				return fmt.Errorf("bad sharegroup arg %T", ev.Args[1])
			}
			g := p.groups[gref]
			if g == nil {
				g = &eagl.Sharegroup{}
				p.groups[gref] = g
			}
			c, err = p.app.EAGL.NewContextShared(t, api, g)
		}
		if err != nil {
			return err
		}
		ref, ok := ev.Ret.(CtxRef)
		if !ok {
			return fmt.Errorf("creation event without context ref")
		}
		p.ctxs[ref] = c
		return nil
	case "setCurrentContext:":
		if ev.Args[0] == nil {
			return p.app.EAGL.SetCurrentContext(t, nil)
		}
		c, err := p.ctx(ev.Args[0])
		if err != nil {
			return err
		}
		return p.app.EAGL.SetCurrentContext(t, c)
	case "renderbufferStorage:fromDrawable:":
		c, err := p.ctx(ev.Args[0])
		if err != nil {
			return err
		}
		lv, ok := ev.Args[1].(LayerVal)
		if !ok {
			return fmt.Errorf("bad drawable arg %T", ev.Args[1])
		}
		surf, ok := p.surfs[lv.Surf]
		if !ok {
			return fmt.Errorf("drawable references unknown surface %d", lv.Surf)
		}
		layer := &eagl.CAEAGLLayer{W: lv.W, H: lv.H, X: lv.X, Y: lv.Y, Surf: surf}
		return c.RenderbufferStorageFromDrawable(t, layer)
	case "presentRenderbuffer:":
		c, err := p.ctx(ev.Args[0])
		if err != nil {
			return err
		}
		if err := c.PresentRenderbuffer(t); err != nil {
			return err
		}
		present := p.res.Presents
		p.res.Presents++
		if p.verify && ev.HasSum {
			got := p.sys.Android.Flinger.ScreenChecksum()
			if got != ev.Sum {
				p.res.Mismatches = append(p.res.Mismatches, Mismatch{
					Event: idx, Present: present, Want: ev.Sum, Got: got,
				})
			}
		}
		return nil
	case "release":
		c, err := p.ctx(ev.Args[0])
		if err != nil {
			return err
		}
		return c.Release(t)
	default:
		return fmt.Errorf("unsupported EAGL method")
	}
}

func (p *player) stepSurface(ev *Event, t *kernel.Thread) error {
	switch ev.Name {
	case "IOSurfaceCreate":
		w, _ := ev.Args[0].(int)
		h, _ := ev.Args[1].(int)
		format, ok := ev.Args[2].(gpu.Format)
		if !ok {
			return fmt.Errorf("bad format arg %T", ev.Args[2])
		}
		s, err := p.app.Surfaces.Create(t, w, h, format)
		if err != nil {
			return err
		}
		ref, ok := ev.Ret.(SurfRef)
		if !ok {
			return fmt.Errorf("creation event without surface ref")
		}
		p.surfs[ref] = s
		return nil
	case "IOSurfaceLock":
		s, err := p.surf(ev.Args[0])
		if err != nil {
			return err
		}
		return p.app.Surfaces.Lock(t, s)
	case "IOSurfaceUnlock":
		s, err := p.surf(ev.Args[0])
		if err != nil {
			return err
		}
		if ev.Pixels != nil {
			// Reproduce the CPU paint that happened while locked.
			img := s.BaseAddress()
			if len(ev.Pixels) != len(img.Pix) {
				return fmt.Errorf("recorded %d pixel bytes for a %dx%d surface", len(ev.Pixels), s.W, s.H)
			}
			copy(img.Pix, ev.Pixels)
		}
		return p.app.Surfaces.Unlock(t, s)
	case "IOSurfaceRelease":
		s, err := p.surf(ev.Args[0])
		if err != nil {
			return err
		}
		if err := p.app.Surfaces.Release(t, s); err != nil {
			return err
		}
		for ref, live := range p.surfs {
			if live == s {
				delete(p.surfs, ref)
				break
			}
		}
		return nil
	default:
		return fmt.Errorf("unsupported IOSurface op")
	}
}

func (p *player) ctx(arg any) (*eagl.Context, error) {
	ref, ok := arg.(CtxRef)
	if !ok {
		return nil, fmt.Errorf("bad context arg %T", arg)
	}
	c, ok := p.ctxs[ref]
	if !ok {
		return nil, fmt.Errorf("unknown context %d", ref)
	}
	return c, nil
}

func (p *player) surf(arg any) (*iosurface.Surface, error) {
	ref, ok := arg.(SurfRef)
	if !ok {
		return nil, fmt.Errorf("bad surface arg %T", arg)
	}
	s, ok := p.surfs[ref]
	if !ok {
		return nil, fmt.Errorf("unknown surface %d", ref)
	}
	return s, nil
}

// resolveArgs maps trace references back to live handles for a GLES call.
func (p *player) resolveArgs(args []any) ([]any, error) {
	out := make([]any, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case SurfRef:
			s, ok := p.surfs[v]
			if !ok {
				return nil, fmt.Errorf("arg %d: unknown surface %d", i, v)
			}
			out[i] = s
		case CtxRef, GroupRef, LayerVal:
			return nil, fmt.Errorf("arg %d: unexpected %T in a GLES call", i, v)
		default:
			out[i] = a
		}
	}
	return out, nil
}
