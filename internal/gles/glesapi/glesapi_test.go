package glesapi_test

import (
	"errors"
	"testing"

	"cycada/internal/core/callconv"
	"cycada/internal/core/system"
	"cycada/internal/ios/iosys"
	"cycada/internal/sim/kernel"
)

// boot returns a native-iOS userspace: the lightest configuration with a real
// linker-bound GL facade, so the tests exercise the same resolution and
// dispatch paths every backend shares.
func boot(t *testing.T) (*iosys.Userspace, *kernel.Thread) {
	t.Helper()
	sys := iosys.New(iosys.Config{})
	us, err := sys.NewUserspace("glesapi-test")
	if err != nil {
		t.Fatalf("NewUserspace: %v", err)
	}
	return us, us.Proc.Main()
}

func TestCallTooManyArgsReturnsEINVAL(t *testing.T) {
	us, th := boot(t)
	args := make([]any, callconv.MaxArgs+1)
	for i := range args {
		args[i] = i
	}
	ret := us.GL.Call(th, "glViewport", args...)
	err, ok := ret.(error)
	if !ok {
		t.Fatalf("Call with %d args returned %T %v, want error", len(args), ret, ret)
	}
	if !errors.Is(err, callconv.ErrTooManyArgs) {
		t.Fatalf("err = %v, want ErrTooManyArgs", err)
	}
	if th.Errno() != int(kernel.EINVAL) {
		t.Fatalf("errno = %d, want EINVAL", th.Errno())
	}
}

func TestCallUnknownSymbolReturnsError(t *testing.T) {
	us, th := boot(t)
	ret := us.GL.Call(th, "glDefinitelyNotAnEntryPoint")
	if _, ok := ret.(error); !ok {
		t.Fatalf("Call of unknown symbol returned %T %v, want error", ret, ret)
	}
}

func TestCallFramedMatchesTypedWrapper(t *testing.T) {
	us, th := boot(t)
	// A framable argument list takes the typed fast path and must behave
	// exactly like the compiled wrapper: no error, no GL error raised.
	if ret := us.GL.Call(th, "glViewport", 0, 0, 64, 48); ret != nil {
		t.Fatalf("framed glViewport returned %v", ret)
	}
	us.GL.Viewport(th, 0, 0, 64, 48)
	if e := us.GL.GetError(th); e != 0 {
		t.Fatalf("glGetError = %#x after viewport calls", e)
	}
}

func TestCallUnframeableArgsReturnEINVAL(t *testing.T) {
	// Every GLES entry point is implemented once, as a typed frame: a boxed
	// argument list no frame can carry has no fallback and must come back
	// as an error with errno EINVAL — never a panic — on the facade (native
	// and Cycada bindings) and on the bridge's by-name entry.
	us, nth := boot(t)
	sys := system.New(system.Config{})
	app, err := sys.NewIOSApp(system.AppConfig{Name: "glesapi-test"})
	if err != nil {
		t.Fatalf("NewIOSApp: %v", err)
	}
	cth := app.Main()
	nineInts := make([]any, 9)
	for i := range nineInts {
		nineInts[i] = 0
	}
	callers := []struct {
		name string
		th   *kernel.Thread
		call func(th *kernel.Thread, name string, args ...any) any
	}{
		{"native GL.Call", nth, us.GL.Call},
		{"cycada GL.Call", cth, app.GL.Call},
		{"Bridge.Call", cth, app.Bridge.Call},
	}
	cases := []struct {
		name string
		args []any
		want error
	}{
		{"nine ints", nineInts, callconv.ErrUnframeable},
		{"two untyped nils", []any{nil, nil}, callconv.ErrUnframeable},
		{"13 args", make([]any, callconv.MaxArgs+1), callconv.ErrTooManyArgs},
	}
	for _, c := range callers {
		for _, tc := range cases {
			c.th.SetErrno(0)
			ret := c.call(c.th, "glViewport", tc.args...)
			err, ok := ret.(error)
			if !ok || !errors.Is(err, tc.want) {
				t.Errorf("%s(glViewport, %s) = %T %v, want error wrapping %v", c.name, tc.name, ret, ret, tc.want)
			}
			if c.th.Errno() != int(kernel.EINVAL) {
				t.Errorf("%s(glViewport, %s): errno = %d, want EINVAL", c.name, tc.name, c.th.Errno())
			}
		}
	}
}
