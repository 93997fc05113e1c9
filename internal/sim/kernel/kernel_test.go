package kernel

import (
	"errors"
	"strings"
	"testing"

	"cycada/internal/obs"
	"cycada/internal/sim/mem"
	"cycada/internal/sim/vclock"
)

func newCycadaKernel(t *testing.T) *Kernel {
	t.Helper()
	return New(Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada})
}

func newDualProc(t *testing.T, k *Kernel) *Process {
	t.Helper()
	p, err := k.NewProcess("app", PersonaIOS, PersonaAndroid)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTracePIDsStayInTheirSpace creates more processes on one kernel than
// a PID space holds, next to a second kernel sharing its tracer: every
// process's spans must carry a PID of its own in a space of its own
// kernel, so a consumer that groups spans by PID/obs.PIDSpace never mixes
// the two.
func TestTracePIDsStayInTheirSpace(t *testing.T) {
	tr := obs.New()
	tr.SetEnabled(true)
	kernels := map[string]*Kernel{}
	for _, name := range []string{"a", "b"} {
		kernels[name] = New(Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada, Tracer: tr})
	}
	const n = 2*obs.PIDSpace + 10
	for i := range n {
		name := "a"
		if i%100 == 0 {
			name = "b"
		}
		k := kernels[name]
		p, err := k.NewProcess("app", PersonaAndroid)
		if err != nil {
			t.Fatal(err)
		}
		th := p.NewThread("worker")
		th.TraceEnd(th.TraceBegin(obs.CatSyscall, name))
		k.ExitProcess(p)
	}
	seen, owner := map[int]bool{}, map[int]string{}
	for _, ev := range tr.Events() {
		if seen[ev.PID] {
			t.Fatalf("PID %d exported for two processes", ev.PID)
		}
		seen[ev.PID] = true
		space := ev.PID / obs.PIDSpace
		if k, ok := owner[space]; ok && k != ev.Name {
			t.Fatalf("PID %d: space %d holds processes of kernels %s and %s", ev.PID, space, k, ev.Name)
		}
		owner[space] = ev.Name
	}
	if len(seen) != n {
		t.Fatalf("%d distinct traced PIDs, want %d", len(seen), n)
	}
}

// TestExitedProcessesLeaveNoTraceNames reaps processes on a kernel whose
// tracer is off and empty: the tracer must keep no name of any of them, so
// a kernel's tracer, shared by every stack a long run boots, does not grow
// by a few hundred bytes per session. Processes reaped while the tracer
// records keep their names, which their spans are exported with.
func TestExitedProcessesLeaveNoTraceNames(t *testing.T) {
	tr := obs.New()
	k := New(Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada, Tracer: tr})
	spawn := func() {
		p, err := k.NewProcess("app", PersonaAndroid)
		if err != nil {
			t.Fatal(err)
		}
		th := p.NewThread("worker")
		th.TraceEnd(th.TraceBegin(obs.CatSyscall, "call"))
		k.ExitProcess(p)
	}
	names := func() int {
		var buf strings.Builder
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), `"thread_name"`)
	}
	for range 100 {
		spawn()
	}
	if n := names(); n != 0 {
		t.Fatalf("%d thread names kept after 100 reaped processes", n)
	}
	tr.SetEnabled(true)
	spawn()
	tr.SetEnabled(false)
	if n := names(); n != 2 {
		t.Fatalf("%d thread names kept for a process reaped while tracing; want its 2", n)
	}
}

func TestNewProcessValidation(t *testing.T) {
	k := newCycadaKernel(t)
	if _, err := k.NewProcess("p"); err == nil {
		t.Fatal("process with no personas created")
	}
	if _, err := k.NewProcess("p", Persona(9)); err == nil {
		t.Fatal("process with invalid persona created")
	}
	if _, err := k.NewProcess("p", PersonaIOS, PersonaIOS); err == nil {
		t.Fatal("process with duplicate personas created")
	}
}

func TestProcessStartsWithMainThread(t *testing.T) {
	k := newCycadaKernel(t)
	p := newDualProc(t, k)
	main := p.Main()
	if main == nil {
		t.Fatal("no main thread")
	}
	if !main.IsGroupLeader() {
		t.Fatal("main thread is not group leader")
	}
	if got := main.Persona(); got != PersonaIOS {
		t.Fatalf("initial persona = %v, want ios (first listed)", got)
	}
	w := p.NewThread("worker")
	if w.IsGroupLeader() {
		t.Fatal("worker reported as group leader")
	}
	if w.TID() == main.TID() {
		t.Fatal("duplicate TIDs")
	}
}

func TestSetPersonaSwitchesAndCharges(t *testing.T) {
	k := newCycadaKernel(t)
	p := newDualProc(t, k)
	th := p.Main()
	before := th.VTime()
	if err := th.SetPersona(PersonaAndroid); err != nil {
		t.Fatal(err)
	}
	if got := th.Persona(); got != PersonaAndroid {
		t.Fatalf("persona = %v, want android", got)
	}
	cost := th.VTime() - before
	want := k.Costs().SyscallEntryCycadaIOS + k.Costs().PersonaSwitch
	if cost != want {
		t.Fatalf("set_persona charged %v, want %v", cost, want)
	}
}

func TestSetPersonaRejectsUnavailable(t *testing.T) {
	k := newCycadaKernel(t)
	p, err := k.NewProcess("android-only", PersonaAndroid)
	if err != nil {
		t.Fatal(err)
	}
	th := p.Main()
	if err := th.SetPersona(PersonaIOS); !errors.Is(err, ErrBadPersona) {
		t.Fatalf("err = %v, want ErrBadPersona", err)
	}
	if th.Errno() != int(EINVAL) {
		t.Fatalf("errno = %d, want EINVAL", th.Errno())
	}
}

func TestNullSyscallCostsByFlavorAndPersona(t *testing.T) {
	costs := vclock.DefaultCosts()
	cases := []struct {
		name    string
		flavor  vclock.KernelFlavor
		persona Persona
		want    vclock.Duration
	}{
		{"stock-android", vclock.KernelLinuxStock, PersonaAndroid, costs.SyscallEntryLinux},
		{"cycada-android", vclock.KernelCycada, PersonaAndroid, costs.SyscallEntryCycada},
		{"cycada-ios", vclock.KernelCycada, PersonaIOS, costs.SyscallEntryCycadaIOS},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := New(Config{Platform: vclock.Nexus7(), Flavor: tc.flavor})
			p, err := k.NewProcess("p", tc.persona)
			if err != nil {
				t.Fatal(err)
			}
			th := p.Main()
			before := th.VTime()
			th.Null()
			if got := th.VTime() - before; got != tc.want {
				t.Fatalf("null syscall = %v, want %v", got, tc.want)
			}
		})
	}
	t.Run("ipad-xnu", func(t *testing.T) {
		k := New(Config{Platform: vclock.IPadMini()})
		p, err := k.NewProcess("p", PersonaIOS)
		if err != nil {
			t.Fatal(err)
		}
		th := p.Main()
		before := th.VTime()
		th.Null()
		got := th.VTime() - before
		want := vclock.IPadMini().CPU(costs.SyscallEntryXNU)
		if got != want {
			t.Fatalf("xnu null syscall = %v, want %v", got, want)
		}
		if got <= costs.SyscallEntryCycadaIOS {
			t.Fatal("iPad trap should be the most expensive (Table 3)")
		}
	})
}

func TestTLSAreasArePerPersona(t *testing.T) {
	k := newCycadaKernel(t)
	th := newDualProc(t, k).Main()
	if err := th.TLSSet(PersonaIOS, 5, "apple"); err != nil {
		t.Fatal(err)
	}
	if err := th.TLSSet(PersonaAndroid, 5, "tegra"); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.TLSGet(PersonaIOS, 5); v != "apple" {
		t.Fatalf("iOS slot 5 = %v, want apple", v)
	}
	if v, _ := th.TLSGet(PersonaAndroid, 5); v != "tegra" {
		t.Fatalf("android slot 5 = %v, want tegra", v)
	}
	th.TLSDelete(PersonaIOS, 5)
	if _, ok := th.TLSGet(PersonaIOS, 5); ok {
		t.Fatal("iOS slot survived delete")
	}
	if v, _ := th.TLSGet(PersonaAndroid, 5); v != "tegra" {
		t.Fatal("android slot affected by iOS delete")
	}
}

func TestErrnoIsPerPersona(t *testing.T) {
	k := newCycadaKernel(t)
	th := newDualProc(t, k).Main()
	th.SetErrno(7) // current persona is iOS
	if err := th.SetPersona(PersonaAndroid); err != nil {
		t.Fatal(err)
	}
	if got := th.Errno(); got != 0 {
		t.Fatalf("android errno = %d, want 0", got)
	}
	th.SetErrno(9)
	if err := th.SetPersona(PersonaIOS); err != nil {
		t.Fatal(err)
	}
	if got := th.Errno(); got != 7 {
		t.Fatalf("iOS errno = %d, want 7 (preserved)", got)
	}
}

func TestLocateAndPropagateTLS(t *testing.T) {
	k := newCycadaKernel(t)
	p := newDualProc(t, k)
	target := p.Main()
	runner := p.NewThread("runner")

	target.TLSSet(PersonaAndroid, 3, "ctx")
	target.TLSSet(PersonaAndroid, 4, 42)
	target.TLSSet(PersonaAndroid, 9, "other")

	vals, err := runner.LocateTLS(target.TID(), PersonaAndroid, []int{3, 4, 99})
	if err != nil {
		t.Fatal(err)
	}
	if vals[3] != "ctx" || vals[4] != 42 {
		t.Fatalf("locate_tls = %v, want slots 3,4", vals)
	}
	if _, ok := vals[99]; ok {
		t.Fatal("locate_tls returned an unset slot")
	}

	if err := runner.PropagateTLS(target.TID(), PersonaIOS, map[int]any{7: "eagl"}); err != nil {
		t.Fatal(err)
	}
	if v, _ := target.TLSGet(PersonaIOS, 7); v != "eagl" {
		t.Fatalf("propagate_tls did not store: %v", v)
	}
	// nil value deletes.
	if err := runner.PropagateTLS(target.TID(), PersonaIOS, map[int]any{7: nil}); err != nil {
		t.Fatal(err)
	}
	if _, ok := target.TLSGet(PersonaIOS, 7); ok {
		t.Fatal("propagate_tls(nil) did not delete")
	}
}

func TestLocateTLSErrors(t *testing.T) {
	k := newCycadaKernel(t)
	p := newDualProc(t, k)
	th := p.Main()
	if _, err := th.LocateTLS(9999, PersonaIOS, nil); !errors.Is(err, ErrNoThread) {
		t.Fatalf("err = %v, want ErrNoThread", err)
	}
	if err := th.PropagateTLS(9999, PersonaIOS, nil); !errors.Is(err, ErrNoThread) {
		t.Fatalf("err = %v, want ErrNoThread", err)
	}
}

type echoDevice struct{ lastCmd uint32 }

func (d *echoDevice) Ioctl(_ *Thread, cmd uint32, arg any) (any, error) {
	d.lastCmd = cmd
	return arg, nil
}

func TestIoctlDispatch(t *testing.T) {
	k := newCycadaKernel(t)
	dev := &echoDevice{}
	k.RegisterDevice("/dev/gr3d", dev)
	th := newDualProc(t, k).Main()
	got, err := th.Ioctl("/dev/gr3d", 0xC0DE, "payload")
	if err != nil {
		t.Fatal(err)
	}
	if got != "payload" || dev.lastCmd != 0xC0DE {
		t.Fatalf("ioctl round trip failed: %v %x", got, dev.lastCmd)
	}
	if _, err := th.Ioctl("/dev/nope", 1, nil); err == nil {
		t.Fatal("ioctl on missing device succeeded")
	}
	if th.Errno() != int(ENODEV) {
		t.Fatalf("errno = %d, want ENODEV", th.Errno())
	}
}

type echoMach struct{}

func (echoMach) MachCall(_ *Thread, msgID uint32, body any) (any, error) {
	return []any{msgID, body}, nil
}

type echoBinder struct{}

func (echoBinder) Transact(_ *Thread, code uint32, data any) (any, error) {
	return code, nil
}

func TestMachAndBinderDispatch(t *testing.T) {
	k := newCycadaKernel(t)
	k.RegisterMachService("IOCoreSurface", echoMach{})
	k.RegisterBinderService("SurfaceFlinger", echoBinder{})
	th := newDualProc(t, k).Main()

	r, err := th.MachCall("IOCoreSurface", 7, "surf")
	if err != nil {
		t.Fatal(err)
	}
	if pair := r.([]any); pair[0] != uint32(7) || pair[1] != "surf" {
		t.Fatalf("mach reply = %v", pair)
	}
	if _, err := th.MachCall("nope", 1, nil); err == nil || !strings.Contains(err.Error(), "no mach service") {
		t.Fatalf("err = %v, want missing-service", err)
	}

	if _, err := th.BinderCall("SurfaceFlinger", 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := th.BinderCall("nope", 3, nil); err == nil {
		t.Fatal("binder to missing service succeeded")
	}
}

func TestMmapChargesAndDeniesExec(t *testing.T) {
	k := newCycadaKernel(t)
	p := newDualProc(t, k)
	th := p.Main()
	m, err := th.Mmap(3*mem.PageSize, mem.ProtRead|mem.ProtWrite, "heap")
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Munmap(m); err != nil {
		t.Fatal(err)
	}
	p.Mem().DenyExecutable(true)
	if _, err := th.Mmap(mem.PageSize, mem.ProtRead|mem.ProtWrite|mem.ProtExec, "jit"); !errors.Is(err, mem.ErrExecDenied) {
		t.Fatalf("err = %v, want ErrExecDenied", err)
	}
	if th.Errno() != int(ENOMEM) {
		t.Fatalf("errno = %d, want ENOMEM", th.Errno())
	}
}

func TestSyscallCountAndClock(t *testing.T) {
	k := newCycadaKernel(t)
	th := newDualProc(t, k).Main()
	n0 := k.SyscallCount()
	th.Null()
	th.Null()
	if got := k.SyscallCount() - n0; got != 2 {
		t.Fatalf("syscall count delta = %d, want 2", got)
	}
	if k.Clock().Now() == 0 {
		t.Fatal("system clock did not advance")
	}
	if th.VTime() != k.Clock().Now() {
		t.Fatalf("thread time %v != clock %v for single-thread run", th.VTime(), k.Clock().Now())
	}
}

func TestThreadStringAndLookup(t *testing.T) {
	k := newCycadaKernel(t)
	p := newDualProc(t, k)
	th := p.NewThread("render")
	if s := th.String(); !strings.Contains(s, "render") || !strings.Contains(s, "app") {
		t.Fatalf("String() = %q", s)
	}
	got, ok := p.Thread(th.TID())
	if !ok || got != th {
		t.Fatal("thread lookup failed")
	}
	p.ExitThread(th)
	if _, ok := p.Thread(th.TID()); ok {
		t.Fatal("exited thread still present")
	}
	if len(p.Threads()) != 1 { // only main remains after render exits
		t.Fatalf("Threads() = %d entries, want 1", len(p.Threads()))
	}
}

func TestPersonaString(t *testing.T) {
	if PersonaAndroid.String() != "android" || PersonaIOS.String() != "ios" || PersonaNone.String() != "none" {
		t.Fatal("Persona.String mismatch")
	}
}
