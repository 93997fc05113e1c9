// Reference model of the diplomatic call (§3). A fuzzed operation string
// drives the real library and a small state machine side by side, and every
// observable is compared after every operation: the returned values, the
// isolated panic and its call index, the persona, the foreign errno, the
// poison hook, the prelude/postlude balance and the fault points' counters.
// The model is the serial path: a batch returns what its frames return as
// serial calls, except that one window isolates a panic at its call index.
package diplomat

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"cycada/internal/core/callconv"
	"cycada/internal/fault"
	"cycada/internal/linker"
	"cycada/internal/obs"
	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

// modelDomestic is the domestic library the model drives: glEcho and its
// coalesced twin aegl_echo return their first argument and set errno to
// their second; glBoom crashes before touching anything.
type modelDomestic struct{}

func (modelDomestic) Symbols() map[string]linker.Fn {
	echo := func(t *kernel.Thread, args ...any) any {
		t.SetErrno(args[1].(int))
		return args[0]
	}
	return map[string]linker.Fn{
		"glEcho":    echo,
		"aegl_echo": echo,
		"glBoom":    func(*kernel.Thread, ...any) any { panic("vendor library crashed") },
	}
}

// windowEnv is one diplomatic library over modelDomestic with GL hooks and
// a poison hook, plus the counters the model checks.
type windowEnv struct {
	k   *kernel.Kernel
	th  *kernel.Thread
	dip map[string]*Diplomat
	// dispatch runs a batch on th as the GLES bridge does: one window, or
	// one serial call per frame when the window cannot open. tap sees each
	// frame that returned no error.
	dispatch func(batch *callconv.Batch, tap func(fr *callconv.Frame, ret any)) error

	preludes, postludes, poisons int
	hookOutsideForeign           bool
}

func newWindowEnv(tb testing.TB) *windowEnv {
	tb.Helper()
	// A flight recorder of its own keeps the dumps of isolated panics quiet.
	fl := obs.NewFlightRecorder()
	fl.SetOutput(io.Discard)
	k := kernel.New(kernel.Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada, Flight: fl})
	p, err := k.NewProcess("app", kernel.PersonaIOS, kernel.PersonaAndroid)
	if err != nil {
		tb.Fatal(err)
	}
	l := linker.New(p)
	l.MustRegister(&linker.Blueprint{
		Name: "libmodel.so",
		New:  func(ctx *linker.LoadContext) (linker.Instance, error) { return modelDomestic{}, nil },
	})
	h, err := l.Dlopen(p.Main(), "libmodel.so")
	if err != nil {
		tb.Fatal(err)
	}
	e := &windowEnv{k: k, th: p.Main()}
	hook := func(n *int) func(*kernel.Thread) {
		return func(t *kernel.Thread) {
			*n++
			e.hookOutsideForeign = e.hookOutsideForeign || t.Persona() != kernel.PersonaIOS
		}
	}
	cfg := Config{
		Foreign:  kernel.PersonaIOS,
		Domestic: kernel.PersonaAndroid,
		Linker:   l,
		Library:  h,
		Hooks:    &Hooks{GL: true, Prelude: hook(&e.preludes), Postlude: hook(&e.postludes)},
		Poison:   func(*kernel.Thread) { e.poisons++ },
	}

	// The library under test: only these lines follow its API.
	lib, err := NewLibrary(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e.dip = map[string]*Diplomat{}
	add := func(d *Diplomat, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		e.dip[d.Name] = d
	}
	add(lib.Add("glEcho", Direct, nil))
	add(lib.Add("glBoom", Direct, nil))
	add(lib.Add("glEchoAPPLE", Indirect, echoTimes))
	add(lib.Add("glQueryAPPLE", DataDependent, echoUnlessZero))
	add(lib.AddMulti("glMultiEcho", "aegl_echo", nil))
	add(lib.Add("glNeverCalledAPPLE", Unimplemented, nil))
	e.dispatch = func(batch *callconv.Batch, tap func(fr *callconv.Frame, ret any)) error {
		_, err := lib.Dispatch(e.th, batch, tap)
		return err
	}
	return e
}

// echoTimes is an indirect wrapper: (n, v, e) calls glEcho(v, e) n times
// and returns the last result, or "none" when n is 0.
func echoTimes(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
	var ret any = "none"
	for i := 0; i < args[0].(int); i++ {
		ret = domestic("glEcho", args[1], args[2])
	}
	return ret
}

// echoUnlessZero is a data-dependent wrapper: (q, v, e) answers foreign-side
// when q is 0 and calls glEcho(v, e) otherwise.
func echoUnlessZero(t *kernel.Thread, domestic func(string, ...any) any, args []any) any {
	if args[0].(int) == 0 {
		return "foreign"
	}
	return domestic("glEcho", args[1], args[2])
}

// arm installs a fresh injector for the next operation. An armed point
// fires at its first check; checks are counted at every point either way.
func (e *windowEnv) arm(panicking, flush bool) *fault.Injector {
	s := fault.Schedule{Times: 1}
	if panicking {
		s.Points = append(s.Points, fault.PointDiplomatPanic)
	}
	if flush {
		s.Points = append(s.Points, fault.PointBatchFlush)
	}
	if len(s.Points) > 0 {
		s.Rate = 1
	}
	inj := fault.NewInjector(s)
	e.k.SetFaultInjector(inj)
	return inj
}

// frame builds a typed frame for glEcho(v, errno) or, when boom, glBoom().
func frame(boom bool, v, errno int) *callconv.Frame {
	if boom {
		return callconv.Acquire(callconv.Intern("glBoom"))
	}
	fr := callconv.Acquire(callconv.Intern("glEcho"))
	fr.PushInt(v)
	fr.PushInt(errno)
	return fr
}

// modelState is what the model tracks across operations.
type modelState struct {
	errno int // the foreign errno
	hooks int // preludes run, and postludes run
}

// wantPanic describes an isolated panic the model expects.
type wantPanic struct {
	diplomat string
	index    int // PanicError.CallIndex
	injected bool
}

// modelOp is one operation's expected outcome.
type modelOp struct {
	panicked *wantPanic // a serial call's panic, or a batch's first error
	taps     []int      // a batch's frames that succeeded, by position
	tapRets  []any
	isolated bool      // a panic was isolated (the poison hook ran)
	stats    [2][2]int // {diplomat_panic, batch_flush} x {checks, injected}
}

// call is the model of one serial call, the reference for everything else.
// armed reports (and clears) an armed diplomat_panic.
func (st *modelState) call(op *modelOp, name string, args []int, armed *bool) (any, *wantPanic) {
	if name == "glNeverCalledAPPLE" {
		return ErrUnimplemented, nil
	}
	st.hooks++
	op.stats[0][0]++
	if *armed {
		*armed = false
		op.stats[0][1]++
		st.errno = int(kernel.ENOMEM)
		op.isolated = true
		return nil, &wantPanic{diplomat: name, index: -1, injected: true}
	}
	echo := func() any {
		st.errno = args[1]
		return args[0]
	}
	switch name {
	case "glBoom":
		st.errno = int(kernel.ENOMEM)
		op.isolated = true
		return nil, &wantPanic{diplomat: name, index: -1}
	case "glEchoAPPLE":
		var ret any = "none"
		for i := 0; i < args[2]; i++ {
			ret = echo()
		}
		return ret, nil
	case "glQueryAPPLE":
		if args[2] == 0 {
			return "foreign", nil
		}
	}
	return echo(), nil
}

// batch is the model of a batch of glEcho/glBoom frames: one window, or the
// serial calls when batch_flush fires.
func (st *modelState) batch(op *modelOp, frames [][3]int, armPanic, armFlush bool) {
	st.hooks++ // the window's prelude and postlude, or their rebalancing
	op.stats[1][0]++
	first := func(p *wantPanic) {
		if op.panicked == nil {
			op.panicked = p
		}
	}
	for i, f := range frames {
		name := "glEcho"
		if f[0] == 1 {
			name = "glBoom"
		}
		if armFlush {
			ret, p := st.call(op, name, f[1:], &armPanic)
			if p != nil {
				first(p)
				continue
			}
			op.taps, op.tapRets = append(op.taps, i), append(op.tapRets, ret)
			continue
		}
		op.stats[0][0]++
		switch {
		case armPanic:
			armPanic = false
			op.stats[0][1]++
			first(&wantPanic{diplomat: name, index: i, injected: true})
		case name == "glBoom":
			first(&wantPanic{diplomat: name, index: i})
		default:
			st.errno = f[2]
			op.taps, op.tapRets = append(op.taps, i), append(op.tapRets, f[1])
			continue
		}
		st.errno = int(kernel.ENOMEM)
		op.isolated = true
	}
	if armFlush {
		op.stats[1][1]++
	}
}

// checkPanic compares a returned error with the expected panic.
func checkPanic(got error, want *wantPanic) error {
	if want == nil {
		if got != nil {
			return fmt.Errorf("error %v, want none", got)
		}
		return nil
	}
	var pe *PanicError
	if !errors.As(got, &pe) {
		return fmt.Errorf("error %v, want an isolated panic in %s", got, want.diplomat)
	}
	if pe.Diplomat != want.diplomat || pe.CallIndex != want.index || fault.Injected(pe) != want.injected {
		return fmt.Errorf("panic %s at %d (injected %v), want %s at %d (injected %v)",
			pe.Diplomat, pe.CallIndex, fault.Injected(pe), want.diplomat, want.index, want.injected)
	}
	return nil
}

// serialNames are the diplomats a serial operation calls, by operation code.
var serialNames = [...]string{"glEcho", "glBoom", "glEchoAPPLE", "glQueryAPPLE", "glMultiEcho", "glNeverCalledAPPLE"}

// runModel decodes ops and runs them against the library and the model.
// Each operation is one byte: the low bits pick a serial diplomat or a
// batch (op%7), bits 4-5 arm diplomat_panic and batch_flush. A serial
// call reads v and errno bytes (and a count or query byte for the wrapper
// kinds); a batch reads its length and one byte per frame.
func runModel(t *testing.T, ops []byte) {
	e := newWindowEnv(t)
	var st modelState
	pos := 0
	next := func() int {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return int(ops[pos-1])
	}
	for n := 0; pos < len(ops) && n < 64; n++ {
		code := next()
		armPanic, armFlush := code&0x10 != 0, code&0x20 != 0
		inj := e.arm(armPanic, armFlush)
		poisons := e.poisons
		var op modelOp
		var what string
		if kind := code % 7; kind < len(serialNames) {
			name := serialNames[kind]
			// args: v, errno, then the wrapper's count or query.
			args := []int{next(), next() % 4, next() % 3}
			what = fmt.Sprintf("op %d: %s%v (arm panic %v)", n, name, args, armPanic)
			var callArgs []any
			switch name {
			case "glEcho", "glMultiEcho":
				callArgs = []any{args[0], args[1]}
			case "glEchoAPPLE", "glQueryAPPLE":
				callArgs = []any{args[2], args[0], args[1]}
			}
			armed := armPanic
			wantRet, wantP := st.call(&op, name, args, &armed)
			got := e.dip[name].Call(e.th, callArgs...)
			if wantP != nil {
				gerr, _ := got.(error)
				if err := checkPanic(gerr, wantP); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			} else if got != wantRet {
				t.Fatalf("%s: returned %v, want %v", what, got, wantRet)
			}
		} else {
			frames := make([][3]int, next()%8+1)
			batch := callconv.AcquireBatch()
			batch.SetOwner(e.th)
			for i := range frames {
				b := next()
				frames[i] = [3]int{0, b, b >> 6}
				if b%4 == 3 {
					frames[i][0] = 1
				}
				batch.Append(frame(frames[i][0] == 1, frames[i][1], frames[i][2]))
			}
			what = fmt.Sprintf("op %d: batch %v (arm panic %v, flush %v)", n, frames, armPanic, armFlush)
			st.batch(&op, frames, armPanic, armFlush)
			var taps []int
			var tapRets []any
			err := e.dispatch(batch, func(fr *callconv.Frame, ret any) {
				for i := 0; i < batch.Len(); i++ {
					if batch.Frame(i) == fr {
						taps, tapRets = append(taps, i), append(tapRets, ret)
					}
				}
			})
			batch.Release()
			if cerr := checkPanic(err, op.panicked); cerr != nil {
				t.Fatalf("%s: %v", what, cerr)
			}
			if fmt.Sprint(taps, tapRets) != fmt.Sprint(op.taps, op.tapRets) {
				t.Fatalf("%s: tapped frames %v returning %v, want %v returning %v", what, taps, tapRets, op.taps, op.tapRets)
			}
		}

		if got := e.th.Persona(); got != kernel.PersonaIOS {
			t.Fatalf("%s: persona %v after the operation, want ios", what, got)
		}
		if got := e.th.ErrnoIn(kernel.PersonaIOS); got != st.errno {
			t.Fatalf("%s: foreign errno %d, want %d", what, got, st.errno)
		}
		if e.preludes != st.hooks || e.postludes != st.hooks || e.hookOutsideForeign {
			t.Fatalf("%s: %d preludes and %d postludes (foreign only: %v), want %d each",
				what, e.preludes, e.postludes, !e.hookOutsideForeign, st.hooks)
		}
		// Poisoning marks the context lost, which is idempotent: the model
		// holds the hook to running in exactly the operations that
		// isolated a panic.
		if ran := e.poisons > poisons; ran != op.isolated {
			t.Fatalf("%s: poison hook ran %d times, want it to run: %v", what, e.poisons-poisons, op.isolated)
		}
		stats := inj.Stats()
		for i, p := range []fault.Point{fault.PointDiplomatPanic, fault.PointBatchFlush} {
			got := stats[p]
			if got.Checks != uint64(op.stats[i][0]) || got.Injected != uint64(op.stats[i][1]) {
				t.Fatalf("%s: %s fired %d of %d checks, want %d of %d",
					what, p, got.Injected, got.Checks, op.stats[i][1], op.stats[i][0])
			}
		}
	}
}

// FuzzDiplomatWindows holds serial calls of all four kinds and batches of
// direct frames, under armed diplomat_panic and batch_flush, to the model.
func FuzzDiplomatWindows(f *testing.F) {
	for _, seed := range []string{
		"\x00\x07\x01\x00",                         // glEcho(7) errno 1
		"\x10\x07\x01\x00",                         // glEcho with diplomat_panic armed
		"\x01\x00\x00\x00\x00\x05\x02\x00",         // glBoom, then glEcho
		"\x02\x09\x02\x02\x02\x09\x02\x00",         // indirect: two domestic calls, then none
		"\x03\x04\x03\x00\x03\x04\x03\x01",         // data-dependent: foreign answer, then domestic
		"\x04\x05\x01\x00\x05\x00\x00\x00",         // multi, then unimplemented
		"\x06\x02\x04\x07\x08",                     // batch of three, middle frame panics
		"\x16\x02\x04\x08\x0c",                     // batch with diplomat_panic armed
		"\x26\x02\x04\x07\x08",                     // batch with batch_flush armed
		"\x36\x07\x03\x04\x07\x08\x0b\x0c\x41\x82", // both armed, eight frames
		"\x06\x00\x03\x00\x01\x02",                 // one panicking frame, then serial calls
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(runModel)
}

// TestWindowChargesPinned pins the virtual nanoseconds the serial call and
// the batch window charge under the default costs with GL hooks: a refactor
// of either path must leave every shape's charge where it is.
func TestWindowChargesPinned(t *testing.T) {
	threeFrames := func(e *windowEnv) {
		batch := callconv.AcquireBatch()
		batch.SetOwner(e.th)
		batch.Append(frame(false, 1, 0))
		batch.Append(frame(true, 0, 0))
		batch.Append(frame(false, 2, 0))
		if err := e.dispatch(batch, nil); err == nil {
			t.Fatal("the middle frame's panic was not reported")
		}
		batch.Release()
	}
	for _, c := range []struct {
		name      string
		panicking bool
		flush     bool
		run       func(e *windowEnv)
		want      vclock.Duration
		poisons   int
	}{
		{"serial direct", false, false, func(e *windowEnv) { e.dip["glEcho"].Call(e.th, 1, 0) }, 921, 0},
		{"serial isolated diplomat_panic", true, false, func(e *windowEnv) { e.dip["glEcho"].Call(e.th, 1, 0) }, 450, 1},
		{"batch of three, middle frame panics", false, false, threeFrames, 1241, 1},
		{"batch of three, batch_flush fired", false, true, threeFrames, 2769, 1},
	} {
		e := newWindowEnv(t)
		e.arm(c.panicking, c.flush)
		start := e.th.VTime()
		c.run(e)
		if got := e.th.VTime() - start; got != c.want || e.poisons != c.poisons {
			t.Errorf("%s: charged %d ns and poisoned %d times, want %d ns and %d", c.name, int64(got), e.poisons, int64(c.want), c.poisons)
		}
	}
}
