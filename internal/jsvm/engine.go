package jsvm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cycada/internal/sim/kernel"
	"cycada/internal/sim/mem"
	"cycada/internal/sim/vclock"
)

// Engine is a JavaScript engine instance bound to a simulated thread.
type Engine struct {
	t   *kernel.Thread
	jit bool

	jitRegion *mem.Mapping
	global    *scope
	output    []string

	opsRun     int64
	regexSteps int64
	maxSteps   int64
}

// Option configures an engine.
type Option func(*Engine)

// WithoutJIT forces the interpreter even when executable memory is
// available (the "iOS with JavaScript JIT disabled" series of Figure 5).
func WithoutJIT() Option {
	return func(e *Engine) { e.jit = false }
}

// WithStepBudget bounds execution (safety for conformance tests).
func WithStepBudget(n int64) Option {
	return func(e *Engine) { e.maxSteps = n }
}

// New creates an engine for the given thread. Like JavaScriptCore it
// requests writable executable memory for its JIT; if the kernel denies the
// mapping — the Cycada Mach VM bug (§9) — it silently falls back to the
// interpreter.
func New(t *kernel.Thread, opts ...Option) *Engine {
	e := &Engine{t: t}
	if m, err := t.Mmap(256<<10, mem.ProtRead|mem.ProtWrite|mem.ProtExec, "jsc-jit"); err == nil {
		e.jit = true
		e.jitRegion = m
	}
	for _, o := range opts {
		o(e)
	}
	e.global = newScope(nil)
	e.installGlobals()
	return e
}

// JITEnabled reports whether the baseline JIT is active.
func (e *Engine) JITEnabled() bool { return e.jit }

// OpsRun reports the number of VM operations executed (tests, calibration).
func (e *Engine) OpsRun() int64 { return e.opsRun }

// RegexSteps reports backtracking steps taken (tests, calibration).
func (e *Engine) RegexSteps() int64 { return e.regexSteps }

// Output returns the lines print() produced.
func (e *Engine) Output() []string { return append([]string(nil), e.output...) }

// Run parses and executes a script in the engine's persistent global scope,
// returning the value of the last statement. In JIT mode parsing also pays
// the baseline compilation cost per AST node.
func (e *Engine) Run(src string) (Value, error) {
	prog, nodes, err := parse(src)
	if err != nil {
		return nil, err
	}
	if e.jit {
		e.t.ChargeCPU(vclock.Duration(nodes) * e.t.Costs().JSCompilePerOp)
	}
	ip := &interp{e: e, global: e.global, maxSteps: e.maxSteps}
	v, _, err := ip.execBlock(prog, e.global)
	ip.flushOps()
	if err != nil {
		return nil, err
	}
	return v, nil
}

// Call invokes a global function by name (the DOM event plumbing uses it).
func (e *Engine) Call(name string, args ...Value) (Value, error) {
	fn, ok := e.global.lookup(name)
	if !ok {
		return nil, &RuntimeError{Msg: name + " is not defined"}
	}
	ip := &interp{e: e, global: e.global, maxSteps: e.maxSteps}
	v, err := ip.callValue(fn, Undefined{}, args, 0)
	ip.flushOps()
	return v, err
}

// SetGlobal installs a host value (e.g. the DOM document object).
func (e *Engine) SetGlobal(name string, v Value) { e.global.vars[name] = v }

// Global reads a global.
func (e *Engine) Global(name string) (Value, bool) { return e.global.lookup(name) }

// GoFunc wraps a Go function as a JS builtin.
func GoFunc(name string, fn func(args []Value) (Value, error)) *Builtin {
	return &Builtin{Name: name, Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		return fn(args)
	}}
}

func (e *Engine) installGlobals() {
	g := e.global.vars

	g["print"] = &Builtin{Name: "print", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = ToString(a)
		}
		e.output = append(e.output, strings.Join(parts, " "))
		return Undefined{}, nil
	}}

	g["parseInt"] = &Builtin{Name: "parseInt", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		radix := 10
		if len(args) > 1 {
			if r := int(toNumber(args[1])); r >= 2 && r <= 36 {
				radix = r
			}
		}
		neg := false
		if strings.HasPrefix(s, "-") {
			neg = true
			s = s[1:]
		} else {
			s = strings.TrimPrefix(s, "+")
		}
		if radix == 16 || strings.HasPrefix(strings.ToLower(s), "0x") {
			s = strings.TrimPrefix(strings.TrimPrefix(s, "0x"), "0X")
			radix = 16
		}
		end := 0
		for end < len(s) {
			d := digitVal(s[end])
			if d < 0 || d >= radix {
				break
			}
			end++
		}
		if end == 0 {
			return math.NaN(), nil
		}
		n, err := strconv.ParseInt(s[:end], radix, 64)
		if err != nil {
			return math.NaN(), nil
		}
		if neg {
			n = -n
		}
		return float64(n), nil
	}}

	g["parseFloat"] = &Builtin{Name: "parseFloat", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return math.NaN(), nil
		}
		s := strings.TrimSpace(ToString(args[0]))
		end := len(s)
		for end > 0 {
			if _, err := strconv.ParseFloat(s[:end], 64); err == nil {
				break
			}
			end--
		}
		if end == 0 {
			return math.NaN(), nil
		}
		f, _ := strconv.ParseFloat(s[:end], 64)
		return f, nil
	}}

	g["isNaN"] = &Builtin{Name: "isNaN", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return true, nil
		}
		return math.IsNaN(toNumber(args[0])), nil
	}}

	g["NaN"] = math.NaN()
	g["Infinity"] = math.Inf(1)

	// Math.
	mathObj := NewObject()
	mathObj.Set("PI", math.Pi)
	mathObj.Set("E", math.E)
	m1 := func(name string, f func(float64) float64) {
		mathObj.Set(name, &Builtin{Name: "Math." + name, Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return math.NaN(), nil
			}
			return f(toNumber(args[0])), nil
		}})
	}
	m1("abs", math.Abs)
	m1("floor", math.Floor)
	m1("ceil", math.Ceil)
	m1("sqrt", math.Sqrt)
	m1("sin", math.Sin)
	m1("cos", math.Cos)
	m1("tan", math.Tan)
	m1("atan", math.Atan)
	m1("asin", math.Asin)
	m1("acos", math.Acos)
	m1("exp", math.Exp)
	m1("log", math.Log)
	m1("round", func(f float64) float64 { return math.Floor(f + 0.5) })
	mathObj.Set("pow", &Builtin{Name: "Math.pow", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return math.NaN(), nil
		}
		return math.Pow(toNumber(args[0]), toNumber(args[1])), nil
	}})
	mathObj.Set("atan2", &Builtin{Name: "Math.atan2", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return math.NaN(), nil
		}
		return math.Atan2(toNumber(args[0]), toNumber(args[1])), nil
	}})
	mathObj.Set("max", &Builtin{Name: "Math.max", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, toNumber(a))
		}
		return out, nil
	}})
	mathObj.Set("min", &Builtin{Name: "Math.min", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, toNumber(a))
		}
		return out, nil
	}})
	// Deterministic "random": an LCG so benchmark runs are reproducible.
	seed := uint64(88172645463325252)
	mathObj.Set("random", &Builtin{Name: "Math.random", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53), nil
	}})
	g["Math"] = mathObj

	// String namespace.
	strObj := NewObject()
	strObj.Set("fromCharCode", &Builtin{Name: "String.fromCharCode", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		var b strings.Builder
		for _, a := range args {
			b.WriteByte(byte(uint32(toNumber(a)) & 0xff))
		}
		return b.String(), nil
	}})
	g["String"] = strObj

	// Array constructor.
	g["Array"] = &Builtin{Name: "Array", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		if len(args) == 1 {
			if n, ok := args[0].(float64); ok {
				if !(n >= 0 && n <= maxArrayLen && n == math.Trunc(n)) {
					return nil, &RuntimeError{Msg: "invalid array length"}
				}
				elems := make([]Value, int(n))
				for i := range elems {
					elems[i] = Undefined{}
				}
				return &Array{Elems: elems}, nil
			}
		}
		return &Array{Elems: append([]Value(nil), args...)}, nil
	}}

	// Date: virtual-clock backed, so scripts that self-time are
	// deterministic.
	now := func() float64 {
		return float64(e.t.VTime().AsTime().Milliseconds())
	}
	dateCtor := &Builtin{Name: "Date", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		obj := NewObject()
		t0 := now()
		obj.Set("getTime", &Builtin{Name: "getTime", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			return t0, nil
		}})
		obj.Set("valueOf", &Builtin{Name: "valueOf", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			return t0, nil
		}})
		return obj, nil
	}}
	g["Date"] = dateCtor

	// RegExp constructor.
	g["RegExp"] = &Builtin{Name: "RegExp", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return nil, &RuntimeError{Msg: "RegExp needs a pattern"}
		}
		flags := ""
		if len(args) > 1 {
			flags = ToString(args[1])
		}
		return e.compileRegex(ToString(args[0]), flags)
	}}

	// Object keys helper (subset of the real Object namespace).
	objObj := NewObject()
	objObj.Set("keys", &Builtin{Name: "Object.keys", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
		out := &Array{}
		if len(args) == 1 {
			if o, ok := args[0].(*Object); ok {
				for _, k := range o.Keys() {
					out.Elems = append(out.Elems, k)
				}
			}
		}
		return out, nil
	}})
	g["Object"] = objObj
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	default:
		return -1
	}
}

// Errorf builds a runtime error (host integrations).
func Errorf(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}
