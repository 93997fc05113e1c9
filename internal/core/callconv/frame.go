package callconv

import (
	"errors"
	"fmt"
	"sync"

	"cycada/internal/sim/kernel"
)

// FrameFn is the typed ABI every GLES entry point is implemented in: a
// symbol implementation that reads its arguments from a Frame's typed slots
// instead of a boxed []any, so it is invoked with zero per-call heap
// allocations.
type FrameFn func(t *kernel.Thread, fr *Frame) any

// Slot capacities. The widest real GLES entry points are glOrthof/glFrustumf
// (six float32s) and glTexSubImage2D (four ints + a format handle + pixels),
// so these limits leave headroom without bloating the pooled struct.
const (
	// MaxArgs is the maximum number of arguments a frame can carry.
	MaxArgs = 12
	maxInts = 8
	maxU32s = 8
	maxF32s = 8
)

// argKind tags one pushed argument so Args can rebuild the boxed view in the
// exact order and with the exact Go types the arguments were pushed with —
// record/replay byte-identity depends on it.
type argKind uint8

const (
	argInt argKind = iota
	argU32
	argF32
	argBytes
	argFloats
	argStr
	argHandle
)

// Frame is a pooled, typed argument frame. Producers Acquire one, push
// arguments, hand it down the call chain, and Release it when the call
// returns. The []byte, []float32, string and handle slots each hold at most
// one value per frame; repeated scalar kinds go to the fixed arrays.
//
// Frames are single-threaded by construction (one call, one goroutine) and
// must not be retained past Release.
type Frame struct {
	id   FuncID
	nArg uint8
	nInt uint8
	nU32 uint8
	nF32 uint8

	order [MaxArgs]argKind
	ints  [maxInts]int
	u32s  [maxU32s]uint32
	f32s  [maxF32s]float32

	bytes  []byte
	floats []float32
	str    string
	handle any

	args []any // lazily materialized boxed view; cleared on Release
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Acquire returns a reset frame for the given function from the pool.
func Acquire(id FuncID) *Frame {
	fr := framePool.Get().(*Frame)
	fr.id = id
	return fr
}

// Release returns the frame to the pool, dropping every reference it holds
// so pooled frames never pin caller memory.
func (fr *Frame) Release() {
	fr.id = NoFunc
	fr.nArg, fr.nInt, fr.nU32, fr.nF32 = 0, 0, 0, 0
	fr.bytes = nil
	fr.floats = nil
	fr.str = ""
	fr.handle = nil
	fr.args = nil
	framePool.Put(fr)
}

// ID returns the function the frame was acquired for.
func (fr *Frame) ID() FuncID { return fr.id }

// NArgs returns the number of pushed arguments.
func (fr *Frame) NArgs() int { return int(fr.nArg) }

func (fr *Frame) push(k argKind) {
	if fr.nArg >= MaxArgs {
		panic(fmt.Sprintf("callconv: frame for %q overflows %d args", Name(fr.id), MaxArgs))
	}
	fr.order[fr.nArg] = k
	fr.nArg++
}

// PushInt appends an int argument.
func (fr *Frame) PushInt(v int) {
	if fr.nInt >= maxInts {
		panic("callconv: too many int args")
	}
	fr.ints[fr.nInt] = v
	fr.nInt++
	fr.push(argInt)
}

// PushU32 appends a uint32 argument.
func (fr *Frame) PushU32(v uint32) {
	if fr.nU32 >= maxU32s {
		panic("callconv: too many uint32 args")
	}
	fr.u32s[fr.nU32] = v
	fr.nU32++
	fr.push(argU32)
}

// PushF32 appends a float32 argument.
func (fr *Frame) PushF32(v float32) {
	if fr.nF32 >= maxF32s {
		panic("callconv: too many float32 args")
	}
	fr.f32s[fr.nF32] = v
	fr.nF32++
	fr.push(argF32)
}

// PushBytes appends the frame's single []byte argument (pixel data). A nil
// slice is a valid argument and materializes as a typed-nil []byte, exactly
// as a boxed caller passes it.
func (fr *Frame) PushBytes(v []byte) {
	if fr.hasKind(argBytes) {
		panic("callconv: frame carries at most one []byte arg")
	}
	fr.bytes = v
	fr.push(argBytes)
}

// PushFloats appends the frame's single []float32 argument (vertex data).
func (fr *Frame) PushFloats(v []float32) {
	if fr.hasKind(argFloats) {
		panic("callconv: frame carries at most one []float32 arg")
	}
	fr.floats = v
	fr.push(argFloats)
}

// PushStr appends the frame's single string argument (shader source, names).
func (fr *Frame) PushStr(v string) {
	if fr.hasKind(argStr) {
		panic("callconv: frame carries at most one string arg")
	}
	fr.str = v
	fr.push(argStr)
}

// PushHandle appends the frame's single opaque argument — anything the typed
// slots don't cover (gpu.Format, gpu.Mat4, []uint32 ID lists, EGL images).
// The value is stored as-is, so callers pay the boxing cost only for the
// types that always needed it.
func (fr *Frame) PushHandle(v any) {
	if fr.hasKind(argHandle) {
		panic("callconv: frame carries at most one handle arg")
	}
	fr.handle = v
	fr.push(argHandle)
}

func (fr *Frame) hasKind(k argKind) bool {
	for i := 0; i < int(fr.nArg); i++ {
		if fr.order[i] == k {
			return true
		}
	}
	return false
}

// Typed accessors, indexed per kind in push order: Int(0) is the first int
// pushed regardless of what surrounded it. Out-of-range reads return zero
// values, so a short argument list reads as zeros, never a panic.

// Int returns the i-th int argument.
func (fr *Frame) Int(i int) int {
	if i < 0 || i >= int(fr.nInt) {
		return 0
	}
	return fr.ints[i]
}

// U32 returns the i-th uint32 argument.
func (fr *Frame) U32(i int) uint32 {
	if i < 0 || i >= int(fr.nU32) {
		return 0
	}
	return fr.u32s[i]
}

// F32 returns the i-th float32 argument.
func (fr *Frame) F32(i int) float32 {
	if i < 0 || i >= int(fr.nF32) {
		return 0
	}
	return fr.f32s[i]
}

// Bytes returns the []byte argument, nil if absent.
func (fr *Frame) Bytes() []byte { return fr.bytes }

// Floats returns the []float32 argument, nil if absent.
func (fr *Frame) Floats() []float32 { return fr.floats }

// Str returns the string argument, "" if absent.
func (fr *Frame) Str() string { return fr.str }

// Handle returns the opaque argument, nil if absent.
func (fr *Frame) Handle() any { return fr.handle }

// ErrTooManyArgs is returned by BuildFrame when a boxed call carries more
// arguments than any frame (or real GLES entry point) can: the API facades
// surface it as an EINVAL-style error, while the internal Push builders —
// whose arities are fixed at compile time — keep panicking on misuse.
var ErrTooManyArgs = errors.New("callconv: too many arguments")

// ErrUnframeable is returned by FrameArgs for a legal-length argument list
// whose shape no frame can hold: more scalars of one kind than the fixed
// arrays carry, or several arguments of a singleton kind. No real GLES
// entry point has such a shape.
var ErrUnframeable = errors.New("callconv: argument list does not fit a frame")

// BuildFrame converts a boxed argument list into a typed frame without ever
// panicking. It returns (frame, true, nil) when every argument fits the
// typed slots, (nil, false, nil) when the shape is legal but unframeable —
// more scalars of one kind than the fixed arrays hold, or several arguments
// of a singleton kind — and (nil, false, ErrTooManyArgs) when the list
// overflows MaxArgs. The built frame's Args() view is the input list itself,
// so observers (record/replay taps, wrapper diplomats) see the same values,
// in the same order and Go types, without a second boxing. Like the slices
// it carries, args is borrowed: the caller must not modify it until the
// frame is released.
func BuildFrame(id FuncID, args []any) (*Frame, bool, error) {
	if len(args) > MaxArgs {
		return nil, false, fmt.Errorf("%w: %d args for %q (max %d)", ErrTooManyArgs, len(args), Name(id), MaxArgs)
	}
	fr := Acquire(id)
	var nInt, nU32, nF32, nBytes, nFloats, nStr, nHandle int
	for _, a := range args {
		unframeable := false
		switch v := a.(type) {
		case int:
			if nInt++; nInt > maxInts {
				unframeable = true
			} else {
				fr.PushInt(v)
			}
		case uint32:
			if nU32++; nU32 > maxU32s {
				unframeable = true
			} else {
				fr.PushU32(v)
			}
		case float32:
			if nF32++; nF32 > maxF32s {
				unframeable = true
			} else {
				fr.PushF32(v)
			}
		case []byte:
			if nBytes++; nBytes > 1 {
				unframeable = true
			} else {
				fr.PushBytes(v)
			}
		case []float32:
			if nFloats++; nFloats > 1 {
				unframeable = true
			} else {
				fr.PushFloats(v)
			}
		case string:
			if nStr++; nStr > 1 {
				unframeable = true
			} else {
				fr.PushStr(v)
			}
		default:
			if nHandle++; nHandle > 1 {
				unframeable = true
			} else {
				fr.PushHandle(v)
			}
		}
		if unframeable {
			fr.Release()
			return nil, false, nil
		}
	}
	if len(args) > 0 {
		fr.args = args
	}
	return fr, true, nil
}

// FrameArgs frames a boxed argument list at an API boundary, where there is
// no boxed implementation to fall back to: an unframeable or over-long list
// sets errno EINVAL on t and returns an error wrapping ErrUnframeable or
// ErrTooManyArgs. The caller releases the returned frame.
func FrameArgs(t *kernel.Thread, id FuncID, args []any) (*Frame, error) {
	fr, framed, err := BuildFrame(id, args)
	if err == nil && !framed {
		err = fmt.Errorf("%w: %q", ErrUnframeable, Name(id))
	}
	if err != nil {
		t.SetErrno(int(kernel.EINVAL))
		return nil, err
	}
	return fr, nil
}

// Args materializes the boxed []any view of the frame, preserving the exact
// push order and Go types of every argument. This is the lazy path observers
// and foreign-side logic use: replay taps, trace spans, the wrappers of
// indirect and data-dependent diplomats, and the boxed libraries (EGL,
// libEGLbridge) a frame can reach. It allocates for a pushed frame, so the
// hot path must only reach it when such a consumer is active. The view
// is cached until Release, so multiple observers of one call share it.
func (fr *Frame) Args() []any {
	if fr.nArg == 0 {
		return nil
	}
	if fr.args != nil {
		return fr.args
	}
	out := make([]any, fr.nArg)
	var iInt, iU32, iF32 int
	for i := 0; i < int(fr.nArg); i++ {
		switch fr.order[i] {
		case argInt:
			out[i] = fr.ints[iInt]
			iInt++
		case argU32:
			out[i] = fr.u32s[iU32]
			iU32++
		case argF32:
			out[i] = fr.f32s[iF32]
			iF32++
		case argBytes:
			out[i] = fr.bytes
		case argFloats:
			out[i] = fr.floats
		case argStr:
			out[i] = fr.str
		case argHandle:
			out[i] = fr.handle
		}
	}
	fr.args = out
	return out
}
