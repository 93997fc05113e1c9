package jsvm

import (
	"math"
	"strconv"
	"strings"
)

// getMember resolves obj.name, including the method surfaces of strings,
// arrays and numbers that the workloads use.
func (ip *interp) getMember(obj Value, name string, line int) (Value, error) {
	switch o := obj.(type) {
	case *Object:
		if v, ok := o.Get(name); ok {
			return v, nil
		}
		return Undefined{}, nil
	case *Array:
		if name == "length" {
			return float64(len(o.Elems)), nil
		}
		if m := arrayMethod(o, name); m != nil {
			return m, nil
		}
		return Undefined{}, nil
	case string:
		if name == "length" {
			return float64(len(o)), nil
		}
		if m := stringMethod(o, name); m != nil {
			return m, nil
		}
		return Undefined{}, nil
	case float64:
		if m := numberMethod(o, name); m != nil {
			return m, nil
		}
		return Undefined{}, nil
	case *Regexp:
		switch name {
		case "source":
			return o.Source, nil
		case "global":
			return o.Global(), nil
		case "test":
			return &Builtin{Name: "test", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
				s := ""
				if len(args) > 0 {
					s = ToString(args[0])
				}
				m, _, err := ip.e.regexSearch(o, s, 0)
				return m >= 0, err
			}}, nil
		case "exec":
			return &Builtin{Name: "exec", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
				s := ""
				if len(args) > 0 {
					s = ToString(args[0])
				}
				start, end, err := ip.e.regexSearch(o, s, 0)
				if err != nil || start < 0 {
					return Null{}, err
				}
				return &Array{Elems: []Value{s[start:end]}}, nil
			}}, nil
		}
		return Undefined{}, nil
	case Undefined, Null, nil:
		return nil, &RuntimeError{Line: line, Msg: "cannot read property " + name + " of " + ToString(obj)}
	default:
		return Undefined{}, nil
	}
}

func (ip *interp) setMember(obj Value, name string, v Value, line int) error {
	switch o := obj.(type) {
	case *Object:
		o.Set(name, v)
		return nil
	case *Array:
		if name == "length" {
			if toNumber(v) > maxArrayLen {
				return &RuntimeError{Line: line, Msg: "invalid array length"}
			}
			n := int(toNumber(v))
			if n < 0 {
				n = 0
			}
			for len(o.Elems) < n {
				o.Elems = append(o.Elems, Undefined{})
			}
			o.Elems = o.Elems[:n]
			return nil
		}
		return nil
	case Undefined, Null, nil:
		return &RuntimeError{Line: line, Msg: "cannot set property " + name + " of " + ToString(obj)}
	default:
		return nil // writes to primitives silently vanish, like sloppy JS
	}
}

func (ip *interp) getIndex(obj, idx Value, line int) (Value, error) {
	switch o := obj.(type) {
	case *Array:
		i := int(toNumber(idx))
		if i < 0 || i >= len(o.Elems) {
			return Undefined{}, nil
		}
		return o.Elems[i], nil
	case string:
		if f, ok := idx.(float64); ok {
			i := int(f)
			if i < 0 || i >= len(o) {
				return Undefined{}, nil
			}
			return string(o[i]), nil
		}
		return ip.getMember(obj, ToString(idx), line)
	case *Object:
		return ip.getMember(obj, ToString(idx), line)
	case Undefined, Null, nil:
		return nil, &RuntimeError{Line: line, Msg: "cannot index " + ToString(obj)}
	default:
		return Undefined{}, nil
	}
}

func (ip *interp) setIndex(obj, idx, v Value, line int) error {
	switch o := obj.(type) {
	case *Array:
		if toNumber(idx) >= maxArrayLen {
			return &RuntimeError{Line: line, Msg: "array index too large"}
		}
		i := int(toNumber(idx))
		if i < 0 {
			return &RuntimeError{Line: line, Msg: "negative array index"}
		}
		for len(o.Elems) <= i {
			o.Elems = append(o.Elems, Undefined{})
		}
		o.Elems[i] = v
		return nil
	case *Object:
		o.Set(ToString(idx), v)
		return nil
	default:
		return ip.setMember(obj, ToString(idx), v, line)
	}
}

func arrayMethod(a *Array, name string) *Builtin {
	switch name {
	case "push":
		return &Builtin{Name: "push", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			a.Elems = append(a.Elems, args...)
			return float64(len(a.Elems)), nil
		}}
	case "pop":
		return &Builtin{Name: "pop", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(a.Elems) == 0 {
				return Undefined{}, nil
			}
			v := a.Elems[len(a.Elems)-1]
			a.Elems = a.Elems[:len(a.Elems)-1]
			return v, nil
		}}
	case "shift":
		return &Builtin{Name: "shift", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(a.Elems) == 0 {
				return Undefined{}, nil
			}
			v := a.Elems[0]
			a.Elems = a.Elems[1:]
			return v, nil
		}}
	case "join":
		return &Builtin{Name: "join", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = ToString(args[0])
			}
			return join(a, sep, nil), nil
		}}
	case "concat":
		return &Builtin{Name: "concat", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			out := append([]Value(nil), a.Elems...)
			for _, arg := range args {
				if arr, ok := arg.(*Array); ok {
					out = append(out, arr.Elems...)
				} else {
					out = append(out, arg)
				}
			}
			return &Array{Elems: out}, nil
		}}
	case "slice":
		return &Builtin{Name: "slice", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			start, end := sliceRange(len(a.Elems), args)
			return &Array{Elems: append([]Value(nil), a.Elems[start:end]...)}, nil
		}}
	case "indexOf":
		return &Builtin{Name: "indexOf", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return float64(-1), nil
			}
			for i, e := range a.Elems {
				if strictEquals(e, args[0]) {
					return float64(i), nil
				}
			}
			return float64(-1), nil
		}}
	case "reverse":
		return &Builtin{Name: "reverse", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			for i, j := 0, len(a.Elems)-1; i < j; i, j = i+1, j-1 {
				a.Elems[i], a.Elems[j] = a.Elems[j], a.Elems[i]
			}
			return a, nil
		}}
	case "sort":
		return &Builtin{Name: "sort", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			var cmp Value
			if len(args) > 0 {
				cmp = args[0]
			}
			if err := sortValues(ip, a.Elems, cmp); err != nil {
				return nil, err
			}
			return a, nil
		}}
	default:
		return nil
	}
}

func sliceRange(n int, args []Value) (int, int) {
	start, end := 0, n
	if len(args) > 0 {
		start = relIndex(n, toNumber(args[0]))
	}
	if len(args) > 1 {
		if _, u := args[1].(Undefined); !u {
			end = relIndex(n, toNumber(args[1]))
		}
	}
	if end < start {
		end = start
	}
	return start, end
}

func relIndex(n int, f float64) int {
	i := int(f)
	if i < 0 {
		i += n
	}
	if i < 0 {
		i = 0
	}
	if i > n {
		i = n
	}
	return i
}

func stringMethod(s string, name string) *Builtin {
	switch name {
	case "charAt":
		return &Builtin{Name: "charAt", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = int(toNumber(args[0]))
			}
			if i < 0 || i >= len(s) {
				return "", nil
			}
			return string(s[i]), nil
		}}
	case "charCodeAt":
		return &Builtin{Name: "charCodeAt", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = int(toNumber(args[0]))
			}
			if i < 0 || i >= len(s) {
				return math.NaN(), nil
			}
			return float64(s[i]), nil
		}}
	case "indexOf":
		return &Builtin{Name: "indexOf", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return float64(-1), nil
			}
			return float64(strings.Index(s, ToString(args[0]))), nil
		}}
	case "lastIndexOf":
		return &Builtin{Name: "lastIndexOf", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return float64(-1), nil
			}
			return float64(strings.LastIndex(s, ToString(args[0]))), nil
		}}
	case "substring", "slice":
		return &Builtin{Name: name, Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if name == "substring" && len(args) > 1 {
				// substring swaps its arguments when start > end (and clamps
				// negatives to zero) before slicing.
				a, b := toNumber(args[0]), toNumber(args[1])
				if a > b {
					args = []Value{b, a}
				}
				if toNumber(args[0]) < 0 {
					args[0] = float64(0)
				}
				if toNumber(args[1]) < 0 {
					args[1] = float64(0)
				}
			}
			start, end := sliceRange(len(s), args)
			return s[start:end], nil
		}}
	case "split":
		return &Builtin{Name: "split", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return &Array{Elems: []Value{s}}, nil
			}
			if re, ok := args[0].(*Regexp); ok {
				parts, err := ip.e.regexSplit(re, s)
				if err != nil {
					return nil, err
				}
				out := make([]Value, len(parts))
				for i, p := range parts {
					out[i] = p
				}
				return &Array{Elems: out}, nil
			}
			sep := ToString(args[0])
			var parts []string
			if sep == "" {
				for _, c := range []byte(s) {
					parts = append(parts, string(c))
				}
			} else {
				parts = strings.Split(s, sep)
			}
			out := make([]Value, len(parts))
			for i, p := range parts {
				out[i] = p
			}
			return &Array{Elems: out}, nil
		}}
	case "toUpperCase":
		return &Builtin{Name: "toUpperCase", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			return strings.ToUpper(s), nil
		}}
	case "toLowerCase":
		return &Builtin{Name: "toLowerCase", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			return strings.ToLower(s), nil
		}}
	case "concat":
		return &Builtin{Name: "concat", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			out := s
			for _, a := range args {
				out += ToString(a)
			}
			return out, nil
		}}
	case "replace":
		return &Builtin{Name: "replace", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) < 2 {
				return s, nil
			}
			repl := ToString(args[1])
			if re, ok := args[0].(*Regexp); ok {
				return ip.e.regexReplace(re, s, repl)
			}
			pat := ToString(args[0])
			return strings.Replace(s, pat, repl, 1), nil
		}}
	case "match":
		return &Builtin{Name: "match", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Null{}, nil
			}
			re, ok := args[0].(*Regexp)
			if !ok {
				var err error
				re, err = ip.e.compileRegex(ToString(args[0]), "")
				if err != nil {
					return nil, err
				}
			}
			matches, err := ip.e.regexMatchAll(re, s)
			if err != nil {
				return nil, err
			}
			if len(matches) == 0 {
				return Null{}, nil
			}
			out := make([]Value, len(matches))
			for i, m := range matches {
				out[i] = m
			}
			return &Array{Elems: out}, nil
		}}
	case "search":
		return &Builtin{Name: "search", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return float64(-1), nil
			}
			re, ok := args[0].(*Regexp)
			if !ok {
				var err error
				re, err = ip.e.compileRegex(ToString(args[0]), "")
				if err != nil {
					return nil, err
				}
			}
			start, _, err := ip.e.regexSearch(re, s, 0)
			return float64(start), err
		}}
	default:
		return nil
	}
}

func numberMethod(f float64, name string) *Builtin {
	switch name {
	case "toString":
		return &Builtin{Name: "toString", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			if len(args) > 0 {
				radix := int(toNumber(args[0]))
				if radix >= 2 && radix <= 36 && f == math.Trunc(f) {
					return strconv.FormatInt(int64(f), radix), nil
				}
			}
			return formatNumber(f), nil
		}}
	case "toFixed":
		return &Builtin{Name: "toFixed", Fn: func(ip *interp, this Value, args []Value) (Value, error) {
			digits := 0
			if len(args) > 0 {
				digits = int(toNumber(args[0]))
			}
			return strconv.FormatFloat(f, 'f', digits, 64), nil
		}}
	default:
		return nil
	}
}
