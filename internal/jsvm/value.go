package jsvm

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Value is a JavaScript value: float64, string, bool, Undefined, Null,
// *Object, *Array, *Function, *Builtin or *Regexp.
type Value any

// Undefined is the JS undefined value.
type Undefined struct{}

// Null is the JS null value.
type Null struct{}

// Object is a JS object with insertion-ordered keys.
type Object struct {
	props map[string]Value
	keys  []string
}

// NewObject creates an empty object.
func NewObject() *Object {
	return &Object{props: map[string]Value{}}
}

// Get reads a property.
func (o *Object) Get(k string) (Value, bool) {
	v, ok := o.props[k]
	return v, ok
}

// Set writes a property.
func (o *Object) Set(k string, v Value) {
	if _, ok := o.props[k]; !ok {
		o.keys = append(o.keys, k)
	}
	o.props[k] = v
}

// Delete removes a property.
func (o *Object) Delete(k string) {
	if _, ok := o.props[k]; !ok {
		return
	}
	delete(o.props, k)
	for i, key := range o.keys {
		if key == k {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
}

// Keys returns the insertion-ordered property names.
func (o *Object) Keys() []string { return o.keys }

// Array is a JS array.
type Array struct {
	Elems []Value
}

// Function is a JS closure.
type Function struct {
	lit *funcLit
	env *scope
}

// Builtin is a native function.
type Builtin struct {
	Name string
	Fn   func(ip *interp, this Value, args []Value) (Value, error)
}

// Regexp is a compiled regular expression literal.
type Regexp struct {
	Source string
	Flags  string
	prog   *reProg
}

// Global reports whether the regex has the g flag.
func (r *Regexp) Global() bool { return strings.Contains(r.Flags, "g") }

// --- Conversions (ECMAScript-ish) ---

func truthy(v Value) bool {
	switch x := v.(type) {
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	case Undefined, Null, nil:
		return false
	default:
		return true
	}
}

func toNumber(v Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case string:
		s := strings.TrimSpace(x)
		if s == "" {
			return 0
		}
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			if n, err := strconv.ParseUint(s[2:], 16, 64); err == nil {
				return float64(n)
			}
			return math.NaN()
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case Null:
		return 0
	case *Array:
		if len(x.Elems) == 1 {
			return toNumber(x.Elems[0])
		}
		if len(x.Elems) == 0 {
			return 0
		}
		return math.NaN()
	default:
		return math.NaN()
	}
}

func toInt32(v Value) int32 {
	f := toNumber(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(uint32(int64(f)))
}

func toUint32(v Value) uint32 {
	f := toNumber(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return uint32(int64(f))
}

func formatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// ToString renders a value as JS string conversion would.
func ToString(v Value) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		return formatNumber(x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case Undefined, nil:
		return "undefined"
	case Null:
		return "null"
	case *Array:
		return join(x, ",", nil)
	case *Object:
		return "[object Object]"
	case *Function:
		name := x.lit.name
		if name == "" {
			name = "anonymous"
		}
		return "function " + name + "() { [code] }"
	case *Builtin:
		return "function " + x.Name + "() { [native code] }"
	case *Regexp:
		return "/" + x.Source + "/" + x.Flags
	default:
		return fmt.Sprintf("%v", v)
	}
}

// join renders an array's elements separated by sep, as
// Array.prototype.join does: null and undefined render empty, and so does an
// array that outer is already joining, so a cycle renders empty as in
// browsers instead of recursing without end.
func join(a *Array, sep string, outer []*Array) string {
	if slices.Contains(outer, a) {
		return ""
	}
	outer = append(outer, a)
	parts := make([]string, len(a.Elems))
	for i, e := range a.Elems {
		if inner, ok := e.(*Array); ok {
			parts[i] = join(inner, ",", outer)
		} else if !isNullish(e) {
			parts[i] = ToString(e)
		}
	}
	return strings.Join(parts, sep)
}

// Script limits: a length, index or concatenation past them is a
// RuntimeError, as an invalid length is a RangeError in a browser, rather
// than an allocation that can take the host process down.
const (
	maxArrayLen  = 1 << 20
	maxStringLen = 1 << 20
)

func isNullish(v Value) bool {
	switch v.(type) {
	case Undefined, Null, nil:
		return true
	}
	return false
}

func typeOf(v Value) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	case Undefined, nil:
		return "undefined"
	case *Function, *Builtin:
		return "function"
	default:
		return "object"
	}
}

// looseEquals implements the == operator for the types the subset supports.
func looseEquals(a, b Value) bool {
	if isNullish(a) && isNullish(b) {
		return true
	}
	if isNullish(a) != isNullish(b) {
		return false
	}
	switch x := a.(type) {
	case float64:
		return x == toNumber(b)
	case string:
		if y, ok := b.(string); ok {
			return x == y
		}
		return toNumber(x) == toNumber(b)
	case bool:
		return toNumber(x) == toNumber(b)
	default:
		switch b.(type) {
		case float64, string, bool:
			return looseEquals(b, a)
		}
		return a == b
	}
}

// strictEquals implements ===.
func strictEquals(a, b Value) bool {
	if typeOf(a) != typeOf(b) {
		return false
	}
	switch x := a.(type) {
	case float64:
		return x == b.(float64)
	case string:
		return x == b.(string)
	case bool:
		return x == b.(bool)
	case Undefined, nil:
		return true
	case Null:
		return true
	default:
		return a == b
	}
}

// sortValues sorts like Array.prototype.sort (string comparison by default,
// comparator otherwise).
func sortValues(ip *interp, elems []Value, cmp Value) error {
	var sortErr error
	if cmp == nil {
		sort.SliceStable(elems, func(i, j int) bool {
			return ToString(elems[i]) < ToString(elems[j])
		})
		return nil
	}
	sort.SliceStable(elems, func(i, j int) bool {
		if sortErr != nil {
			return false
		}
		r, err := ip.callValue(cmp, Undefined{}, []Value{elems[i], elems[j]}, 0)
		if err != nil {
			sortErr = err
			return false
		}
		return toNumber(r) < 0
	})
	return sortErr
}
