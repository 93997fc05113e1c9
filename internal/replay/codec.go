package replay

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"cycada/internal/sim/gpu"
)

// Trace container format
//
//	magic   "CYTR" (4 bytes)
//	version uvarint (currently 1)
//	body    flate-compressed stream:
//	  label      string (raw)
//	  screenW,H  uvarint
//	  strtab     uvarint count, then raw strings (first-use order)
//	  events     uvarint count, then per event:
//	    kind     byte
//	    tid      uvarint
//	    name     uvarint string-table index
//	    args     uvarint count, tagged values
//	    ret      tagged value (vNil when absent)
//	    flags    byte (bit0 checksum, bit1 pixels)
//	    [sum]    4 bytes LE
//	    [pixels] uvarint len + raw
//	  final      byte presence; if 1: uvarint w,h + raw pixels
//
// Every value carries a tag, so the stream is self-describing: a reader that
// understands the tag set can walk a trace without the GLES registry.

const (
	traceMagic   = "CYTR"
	traceVersion = 1
)

// Value tags. The closed set of types that cross the bridge boundary
// (see internal/gles/glesapi plus the EAGL/IOSurface signatures).
const (
	vNil uint8 = iota
	vFalse
	vTrue
	vInt // zigzag varint
	vUint32
	vUint64
	vFloat32
	vFloat64
	vString // string-table index
	vBytes
	vF32Slice
	vU16Slice
	vU32Slice
	vFormat // gpu.Format, one byte
	vMat4   // 16 x float32
	vCtxRef
	vGroupRef
	vSurfRef
	vLayer // x,y,w,h zigzag + surf ref
)

// Encode serializes a trace. It fails on argument types outside the closed
// set — extend the tag list (and bump traceVersion if the layout changes)
// rather than silently dropping data.
func Encode(tr *Trace) ([]byte, error) {
	e := &encoder{strIdx: map[string]uint64{}}
	// First pass: intern names and string args in first-use order so the
	// output is deterministic for a given event stream.
	for i := range tr.Events {
		ev := &tr.Events[i]
		e.intern(ev.Name)
		for _, a := range ev.Args {
			if s, ok := a.(string); ok {
				e.intern(s)
			}
		}
	}

	var body bytes.Buffer
	e.w = &body
	e.str(tr.Label)
	e.uvarint(uint64(tr.ScreenW))
	e.uvarint(uint64(tr.ScreenH))
	e.uvarint(uint64(len(e.strs)))
	for _, s := range e.strs {
		e.str(s)
	}
	e.uvarint(uint64(len(tr.Events)))
	for i := range tr.Events {
		if err := e.event(&tr.Events[i]); err != nil {
			return nil, fmt.Errorf("replay: encode event %d (%s): %w", i, tr.Events[i].Name, err)
		}
	}
	if tr.Final != nil {
		e.byte(1)
		e.uvarint(uint64(tr.Final.W))
		e.uvarint(uint64(tr.Final.H))
		body.Write(tr.Final.Pix)
	} else {
		e.byte(0)
	}

	var out bytes.Buffer
	out.WriteString(traceMagic)
	out.Write(binary.AppendUvarint(nil, traceVersion))
	fw, err := flate.NewWriter(&out, flate.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := fw.Write(body.Bytes()); err != nil {
		return nil, err
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

type encoder struct {
	w      *bytes.Buffer
	strs   []string
	strIdx map[string]uint64
}

func (e *encoder) intern(s string) uint64 {
	if i, ok := e.strIdx[s]; ok {
		return i
	}
	i := uint64(len(e.strs))
	e.strs = append(e.strs, s)
	e.strIdx[s] = i
	return i
}

func (e *encoder) byte(b uint8)      { e.w.WriteByte(b) }
func (e *encoder) uvarint(v uint64)  { e.w.Write(binary.AppendUvarint(nil, v)) }
func (e *encoder) varint(v int64)    { e.w.Write(binary.AppendVarint(nil, v)) }
func (e *encoder) u32(v uint32)      { e.w.Write(binary.LittleEndian.AppendUint32(nil, v)) }
func (e *encoder) f32(v float32)     { e.u32(math.Float32bits(v)) }
func (e *encoder) str(s string)      { e.uvarint(uint64(len(s))); e.w.WriteString(s) }
func (e *encoder) bytesVal(b []byte) { e.uvarint(uint64(len(b))); e.w.Write(b) }

func (e *encoder) event(ev *Event) error {
	e.byte(uint8(ev.Kind))
	e.uvarint(uint64(ev.TID))
	e.uvarint(e.strIdx[ev.Name])
	e.uvarint(uint64(len(ev.Args)))
	for _, a := range ev.Args {
		if err := e.value(a); err != nil {
			return err
		}
	}
	if err := e.value(ev.Ret); err != nil {
		return err
	}
	var flags uint8
	if ev.HasSum {
		flags |= 1
	}
	if ev.Pixels != nil {
		flags |= 2
	}
	e.byte(flags)
	if ev.HasSum {
		e.u32(ev.Sum)
	}
	if ev.Pixels != nil {
		e.bytesVal(ev.Pixels)
	}
	return nil
}

func (e *encoder) value(a any) error {
	switch v := a.(type) {
	case nil:
		e.byte(vNil)
	case bool:
		if v {
			e.byte(vTrue)
		} else {
			e.byte(vFalse)
		}
	case int:
		e.byte(vInt)
		e.varint(int64(v))
	case uint32:
		e.byte(vUint32)
		e.uvarint(uint64(v))
	case uint64:
		e.byte(vUint64)
		e.uvarint(v)
	case float32:
		e.byte(vFloat32)
		e.f32(v)
	case float64:
		e.byte(vFloat64)
		e.w.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	case string:
		e.byte(vString)
		e.uvarint(e.strIdx[v])
	case []byte:
		e.byte(vBytes)
		e.bytesVal(v)
	case []float32:
		e.byte(vF32Slice)
		e.uvarint(uint64(len(v)))
		for _, f := range v {
			e.f32(f)
		}
	case []uint16:
		e.byte(vU16Slice)
		e.uvarint(uint64(len(v)))
		for _, u := range v {
			e.uvarint(uint64(u))
		}
	case []uint32:
		e.byte(vU32Slice)
		e.uvarint(uint64(len(v)))
		for _, u := range v {
			e.uvarint(uint64(u))
		}
	case gpu.Format:
		e.byte(vFormat)
		e.byte(uint8(v))
	case gpu.Mat4:
		e.byte(vMat4)
		for _, f := range v {
			e.f32(f)
		}
	case CtxRef:
		e.byte(vCtxRef)
		e.uvarint(uint64(v))
	case GroupRef:
		e.byte(vGroupRef)
		e.uvarint(uint64(v))
	case SurfRef:
		e.byte(vSurfRef)
		e.uvarint(uint64(v))
	case LayerVal:
		e.byte(vLayer)
		e.varint(int64(v.X))
		e.varint(int64(v.Y))
		e.varint(int64(v.W))
		e.varint(int64(v.H))
		e.uvarint(uint64(v.Surf))
	default:
		return fmt.Errorf("unsupported value type %T", a)
	}
	return nil
}

// Decode parses a trace produced by Encode.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(traceMagic) || string(data[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("replay: not a trace file (bad magic)")
	}
	rest := data[len(traceMagic):]
	version, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("replay: truncated header")
	}
	if version != traceVersion {
		return nil, fmt.Errorf("replay: trace version %d, want %d", version, traceVersion)
	}
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(rest[n:])))
	if err != nil {
		return nil, fmt.Errorf("replay: decompress: %w", err)
	}
	d := &decoder{r: bytes.NewReader(body)}
	tr := &Trace{}
	tr.Label = d.rawStr()
	sw, sh := d.uvarint(), d.uvarint()
	if err := checkFrame(sw, sh); d.err == nil && err != nil {
		return nil, fmt.Errorf("replay: screen: %w", err)
	}
	tr.ScreenW, tr.ScreenH = int(sw), int(sh)
	// Counts are bounded by the bytes left (every string and event takes at
	// least one), and capacity beyond preallocCap grows only with the
	// elements actually decoded, so no header can size a large allocation.
	nstr := d.count()
	d.strs = make([]string, 0, min(nstr, preallocCap))
	for i := uint64(0); i < nstr; i++ {
		d.strs = append(d.strs, d.rawStr())
	}
	nev := d.count()
	if d.err != nil {
		return nil, fmt.Errorf("replay: corrupt header: %w", d.err)
	}
	tr.Events = make([]Event, 0, min(nev, preallocCap))
	for i := uint64(0); i < nev; i++ {
		ev, err := d.event()
		if err != nil {
			return nil, fmt.Errorf("replay: decode event %d: %w", i, err)
		}
		tr.Events = append(tr.Events, ev)
	}
	if d.byteVal() == 1 {
		w, h := d.uvarint(), d.uvarint()
		if err := checkFrame(w, h); err != nil {
			return nil, fmt.Errorf("replay: final frame: %w", err)
		}
		if w*h*4 > uint64(d.r.Len()) {
			return nil, fmt.Errorf("replay: final frame %dx%d: only %d pixel bytes left", w, h, d.r.Len())
		}
		img := gpu.NewImage(int(w), int(h))
		if _, err := io.ReadFull(d.r, img.Pix); err != nil {
			return nil, fmt.Errorf("replay: final frame pixels: %w", err)
		}
		tr.Final = img
	}
	if d.err != nil {
		return nil, fmt.Errorf("replay: corrupt trace: %w", d.err)
	}
	return tr, nil
}

// preallocCap bounds the capacity Decode reserves from a count it read.
const preallocCap = 1 << 12

// checkFrame rejects image geometry no recording produces. Each side is
// checked on its own first, so the product cannot wrap.
func checkFrame(w, h uint64) error {
	const maxPixels = 1 << 26
	if w == 0 || h == 0 || w > maxPixels || h > maxPixels || w*h > maxPixels {
		return fmt.Errorf("implausible geometry %dx%d", w, h)
	}
	return nil
}

type decoder struct {
	r    *bytes.Reader
	strs []string
	err  error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) byteVal() uint8 {
	b, err := d.r.ReadByte()
	if err != nil {
		d.fail(err)
		return 0
	}
	return b
}

func (d *decoder) uvarint() uint64 {
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.fail(err)
		return 0
	}
	return v
}

// count reads an element count and fails when it exceeds the bytes left.
func (d *decoder) count() uint64 {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.r.Len()) {
		d.fail(fmt.Errorf("implausible count %d with %d bytes left", n, d.r.Len()))
		return 0
	}
	return n
}

func (d *decoder) varint() int64 {
	v, err := binary.ReadVarint(d.r)
	if err != nil {
		d.fail(err)
		return 0
	}
	return v
}

func (d *decoder) u32() uint32 {
	var buf [4]byte
	if _, err := io.ReadFull(d.r, buf[:]); err != nil {
		d.fail(err)
		return 0
	}
	return binary.LittleEndian.Uint32(buf[:])
}

func (d *decoder) f32() float32 { return math.Float32frombits(d.u32()) }

func (d *decoder) rawStr() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.fail(err)
		return ""
	}
	return string(buf)
}

func (d *decoder) tableStr() string {
	i := d.uvarint()
	if d.err != nil {
		return ""
	}
	if i >= uint64(len(d.strs)) {
		d.fail(fmt.Errorf("string index %d out of range", i))
		return ""
	}
	return d.strs[i]
}

// bytesVal decodes a byte slice. Zero length decodes to nil: the GLES layer
// distinguishes "no data" (nil) from data, and zero-length non-nil slices do
// not occur at the boundary, so collapsing the two preserves semantics.
func (d *decoder) bytesVal() []byte {
	n := d.count()
	if d.err != nil || n == 0 {
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.fail(err)
		return nil
	}
	return buf
}

func (d *decoder) event() (Event, error) {
	ev := Event{
		Kind: EventKind(d.byteVal()),
		TID:  int(d.uvarint()),
		Name: d.tableStr(),
	}
	nargs := d.count()
	if d.err != nil {
		return ev, d.err
	}
	ev.Args = make([]any, 0, min(nargs, preallocCap))
	for i := uint64(0); i < nargs; i++ {
		ev.Args = append(ev.Args, d.value())
	}
	ev.Ret = d.value()
	flags := d.byteVal()
	if flags&1 != 0 {
		ev.HasSum = true
		ev.Sum = d.u32()
	}
	if flags&2 != 0 {
		ev.Pixels = d.bytesVal()
	}
	return ev, d.err
}

func (d *decoder) value() any {
	switch tag := d.byteVal(); tag {
	case vNil:
		return nil
	case vFalse:
		return false
	case vTrue:
		return true
	case vInt:
		return int(d.varint())
	case vUint32:
		return uint32(d.uvarint())
	case vUint64:
		return d.uvarint()
	case vFloat32:
		return d.f32()
	case vFloat64:
		var buf [8]byte
		if _, err := io.ReadFull(d.r, buf[:]); err != nil {
			d.fail(err)
			return nil
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	case vString:
		return d.tableStr()
	case vBytes:
		return d.bytesVal()
	case vF32Slice:
		n := d.count()
		if d.err != nil || n == 0 {
			return []float32(nil)
		}
		out := make([]float32, n)
		for i := range out {
			out[i] = d.f32()
		}
		return out
	case vU16Slice:
		n := d.count()
		if d.err != nil || n == 0 {
			return []uint16(nil)
		}
		out := make([]uint16, n)
		for i := range out {
			out[i] = uint16(d.uvarint())
		}
		return out
	case vU32Slice:
		n := d.count()
		if d.err != nil || n == 0 {
			return []uint32(nil)
		}
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(d.uvarint())
		}
		return out
	case vFormat:
		return gpu.Format(d.byteVal())
	case vMat4:
		var m gpu.Mat4
		for i := range m {
			m[i] = d.f32()
		}
		return m
	case vCtxRef:
		return CtxRef(d.uvarint())
	case vGroupRef:
		return GroupRef(d.uvarint())
	case vSurfRef:
		return SurfRef(d.uvarint())
	case vLayer:
		return LayerVal{
			X:    int(d.varint()),
			Y:    int(d.varint()),
			W:    int(d.varint()),
			H:    int(d.varint()),
			Surf: SurfRef(d.uvarint()),
		}
	default:
		d.fail(fmt.Errorf("unknown value tag %d", tag))
		return nil
	}
}

// WriteFile encodes tr to path.
func WriteFile(path string, tr *Trace) error {
	data, err := Encode(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile decodes the trace at path.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
