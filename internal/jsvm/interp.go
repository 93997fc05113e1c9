package jsvm

import (
	"fmt"
	"math"

	"cycada/internal/sim/vclock"
)

// RuntimeError is a JS execution failure.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("TypeError: line %d: %s", e.Line, e.Msg)
	}
	return "TypeError: " + e.Msg
}

// scope is a lexical environment record.
type scope struct {
	vars   map[string]Value
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{vars: map[string]Value{}, parent: parent}
}

func (s *scope) lookup(name string) (Value, bool) {
	for e := s; e != nil; e = e.parent {
		if v, ok := e.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

func (s *scope) assign(name string, v Value) bool {
	for e := s; e != nil; e = e.parent {
		if _, ok := e.vars[name]; ok {
			e.vars[name] = v
			return true
		}
	}
	return false
}

type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

// interp executes the AST, charging virtual time per operation according to
// the engine's execution mode (interpreter vs baseline JIT).
type interp struct {
	e      *Engine
	global *scope

	pendingOps int
	steps      int64
	maxSteps   int64
	callDepth  int
}

const (
	chargeBatch  = 1 << 10
	maxCallDepth = 200
)

func (ip *interp) op() error {
	ip.pendingOps++
	ip.steps++
	if ip.pendingOps >= chargeBatch {
		ip.flushOps()
	}
	if ip.maxSteps > 0 && ip.steps > ip.maxSteps {
		return &RuntimeError{Msg: "script exceeded step budget"}
	}
	return nil
}

func (ip *interp) flushOps() {
	if ip.pendingOps == 0 {
		return
	}
	c := ip.e.t.Costs()
	per := c.JSOpInterp
	if ip.e.jit {
		per = c.JSOpJIT
	}
	ip.e.t.ChargeCPU(vclock.Duration(ip.pendingOps) * per)
	ip.e.opsRun += int64(ip.pendingOps)
	ip.pendingOps = 0
}

// hoist declares the function declarations of a statement list.
func (ip *interp) hoist(list []stmt, env *scope) {
	for _, s := range list {
		if fd, ok := s.(funcDeclStmt); ok {
			env.vars[fd.name] = &Function{lit: fd.fn, env: env}
		}
	}
}

func (ip *interp) execBlock(list []stmt, env *scope) (Value, ctrl, error) {
	ip.hoist(list, env)
	var last Value = Undefined{}
	for _, s := range list {
		v, c, err := ip.exec(s, env)
		if err != nil || c != ctrlNone {
			return v, c, err
		}
		last = v
	}
	return last, ctrlNone, nil
}

func (ip *interp) exec(s stmt, env *scope) (Value, ctrl, error) {
	if err := ip.op(); err != nil {
		return nil, ctrlNone, err
	}
	switch st := s.(type) {
	case blockStmt:
		return ip.execBlock(st.list, env)
	case varStmt:
		for _, d := range st.decls {
			var v Value = Undefined{}
			if d.init != nil {
				x, err := ip.eval(d.init, env)
				if err != nil {
					return nil, ctrlNone, err
				}
				v = x
			}
			env.vars[d.name] = v
		}
		return Undefined{}, ctrlNone, nil
	case funcDeclStmt:
		env.vars[st.name] = &Function{lit: st.fn, env: env}
		return Undefined{}, ctrlNone, nil
	case exprStmt:
		v, err := ip.eval(st.x, env)
		return v, ctrlNone, err
	case returnStmt:
		if st.x == nil {
			return Undefined{}, ctrlReturn, nil
		}
		v, err := ip.eval(st.x, env)
		if err != nil {
			return nil, ctrlNone, err
		}
		return v, ctrlReturn, nil
	case ifStmt:
		c, err := ip.eval(st.cond, env)
		if err != nil {
			return nil, ctrlNone, err
		}
		if truthy(c) {
			return ip.exec(st.then, env)
		}
		if st.els != nil {
			return ip.exec(st.els, env)
		}
		return Undefined{}, ctrlNone, nil
	case whileStmt:
		first := st.post // do/while runs the body once before testing
		for {
			if !first {
				c, err := ip.eval(st.cond, env)
				if err != nil {
					return nil, ctrlNone, err
				}
				if !truthy(c) {
					return Undefined{}, ctrlNone, nil
				}
			}
			first = false
			v, c, err := ip.exec(st.body, env)
			if err != nil {
				return nil, ctrlNone, err
			}
			if c == ctrlBreak {
				return Undefined{}, ctrlNone, nil
			}
			if c == ctrlReturn {
				return v, c, nil
			}
			if st.post {
				cv, err := ip.eval(st.cond, env)
				if err != nil {
					return nil, ctrlNone, err
				}
				if !truthy(cv) {
					return Undefined{}, ctrlNone, nil
				}
			}
		}
	case forStmt:
		if st.init != nil {
			if _, _, err := ip.exec(st.init, env); err != nil {
				return nil, ctrlNone, err
			}
		}
		for {
			if st.cond != nil {
				c, err := ip.eval(st.cond, env)
				if err != nil {
					return nil, ctrlNone, err
				}
				if !truthy(c) {
					return Undefined{}, ctrlNone, nil
				}
			}
			v, c, err := ip.exec(st.body, env)
			if err != nil {
				return nil, ctrlNone, err
			}
			if c == ctrlBreak {
				return Undefined{}, ctrlNone, nil
			}
			if c == ctrlReturn {
				return v, c, nil
			}
			if st.post != nil {
				if _, err := ip.eval(st.post, env); err != nil {
					return nil, ctrlNone, err
				}
			}
		}
	case forInStmt:
		obj, err := ip.eval(st.obj, env)
		if err != nil {
			return nil, ctrlNone, err
		}
		var keys []string
		switch o := obj.(type) {
		case *Object:
			keys = append(keys, o.Keys()...)
		case *Array:
			for i := range o.Elems {
				keys = append(keys, formatNumber(float64(i)))
			}
		}
		for _, k := range keys {
			if !env.assign(st.varName, k) {
				env.vars[st.varName] = k
			}
			v, c, err := ip.exec(st.body, env)
			if err != nil {
				return nil, ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return v, c, nil
			}
		}
		return Undefined{}, ctrlNone, nil
	case breakStmt:
		return Undefined{}, ctrlBreak, nil
	case continueStmt:
		return Undefined{}, ctrlContinue, nil
	case switchStmt:
		tag, err := ip.eval(st.tag, env)
		if err != nil {
			return nil, ctrlNone, err
		}
		start := -1
		for i, c := range st.cases {
			if c.match == nil {
				continue
			}
			m, err := ip.eval(c.match, env)
			if err != nil {
				return nil, ctrlNone, err
			}
			if strictEquals(tag, m) {
				start = i
				break
			}
		}
		if start == -1 {
			start = st.defIdx
		}
		if start == -1 {
			return Undefined{}, ctrlNone, nil
		}
		for i := start; i < len(st.cases); i++ {
			for _, s2 := range st.cases[i].body {
				v, c, err := ip.exec(s2, env)
				if err != nil {
					return nil, ctrlNone, err
				}
				if c == ctrlBreak {
					return Undefined{}, ctrlNone, nil
				}
				if c == ctrlReturn || c == ctrlContinue {
					return v, c, nil
				}
			}
		}
		return Undefined{}, ctrlNone, nil
	default:
		return nil, ctrlNone, &RuntimeError{Msg: fmt.Sprintf("unknown statement %T", s)}
	}
}

func (ip *interp) eval(x expr, env *scope) (Value, error) {
	if err := ip.op(); err != nil {
		return nil, err
	}
	switch ex := x.(type) {
	case numLit:
		return ex.v, nil
	case strLit:
		return ex.v, nil
	case boolLit:
		return ex.v, nil
	case nullLit:
		return Null{}, nil
	case undefinedLit:
		return Undefined{}, nil
	case regexLit:
		return ip.e.compileRegex(ex.pattern, ex.flags)
	case identExpr:
		if v, ok := env.lookup(ex.name); ok {
			return v, nil
		}
		return nil, &RuntimeError{Line: ex.line, Msg: ex.name + " is not defined"}
	case thisExpr:
		if v, ok := env.lookup("this"); ok {
			return v, nil
		}
		return Undefined{}, nil
	case arrayLit:
		arr := &Array{Elems: make([]Value, len(ex.elems))}
		for i, e := range ex.elems {
			v, err := ip.eval(e, env)
			if err != nil {
				return nil, err
			}
			arr.Elems[i] = v
		}
		return arr, nil
	case objectLit:
		obj := NewObject()
		for i, k := range ex.keys {
			v, err := ip.eval(ex.vals[i], env)
			if err != nil {
				return nil, err
			}
			obj.Set(k, v)
		}
		return obj, nil
	case funcLit:
		return &Function{lit: &ex, env: env}, nil
	case condExpr:
		c, err := ip.eval(ex.cond, env)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			return ip.eval(ex.then, env)
		}
		return ip.eval(ex.els, env)
	case logicalExpr:
		l, err := ip.eval(ex.l, env)
		if err != nil {
			return nil, err
		}
		if ex.op == "&&" {
			if !truthy(l) {
				return l, nil
			}
		} else if truthy(l) {
			return l, nil
		}
		return ip.eval(ex.r, env)
	case unaryExpr:
		if ex.op == "delete" {
			return ip.evalDelete(ex.x, env)
		}
		if ex.op == "typeof" {
			if id, ok := ex.x.(identExpr); ok {
				if v, found := env.lookup(id.name); found {
					return typeOf(v), nil
				}
				return "undefined", nil
			}
		}
		v, err := ip.eval(ex.x, env)
		if err != nil {
			return nil, err
		}
		switch ex.op {
		case "-":
			return -toNumber(v), nil
		case "+":
			return toNumber(v), nil
		case "!":
			return !truthy(v), nil
		case "~":
			return float64(^toInt32(v)), nil
		case "typeof":
			return typeOf(v), nil
		}
		return nil, &RuntimeError{Msg: "unknown unary " + ex.op}
	case updateExpr:
		old, err := ip.eval(ex.target, env)
		if err != nil {
			return nil, err
		}
		n := toNumber(old)
		var nv float64
		if ex.op == "++" {
			nv = n + 1
		} else {
			nv = n - 1
		}
		if err := ip.store(ex.target, env, nv); err != nil {
			return nil, err
		}
		if ex.prefix {
			return nv, nil
		}
		return n, nil
	case assignExpr:
		var v Value
		var err error
		if ex.op == "=" {
			v, err = ip.eval(ex.value, env)
		} else {
			var cur Value
			cur, err = ip.eval(ex.target, env)
			if err != nil {
				return nil, err
			}
			var rhs Value
			rhs, err = ip.eval(ex.value, env)
			if err != nil {
				return nil, err
			}
			v, err = ip.binop(ex.op[:len(ex.op)-1], cur, rhs, ex.line)
		}
		if err != nil {
			return nil, err
		}
		if err := ip.store(ex.target, env, v); err != nil {
			return nil, err
		}
		return v, nil
	case binExpr:
		l, err := ip.eval(ex.l, env)
		if err != nil {
			return nil, err
		}
		r, err := ip.eval(ex.r, env)
		if err != nil {
			return nil, err
		}
		return ip.binop(ex.op, l, r, ex.line)
	case memberExpr:
		obj, err := ip.eval(ex.obj, env)
		if err != nil {
			return nil, err
		}
		return ip.getMember(obj, ex.name, ex.line)
	case indexExpr:
		obj, err := ip.eval(ex.obj, env)
		if err != nil {
			return nil, err
		}
		idx, err := ip.eval(ex.idx, env)
		if err != nil {
			return nil, err
		}
		return ip.getIndex(obj, idx, ex.line)
	case callExpr:
		return ip.evalCall(ex, env)
	case newExpr:
		return ip.evalNew(ex, env)
	default:
		return nil, &RuntimeError{Msg: fmt.Sprintf("unknown expression %T", x)}
	}
}

func (ip *interp) evalDelete(target expr, env *scope) (Value, error) {
	switch tx := target.(type) {
	case memberExpr:
		obj, err := ip.eval(tx.obj, env)
		if err != nil {
			return nil, err
		}
		if o, ok := obj.(*Object); ok {
			o.Delete(tx.name)
		}
		return true, nil
	case indexExpr:
		obj, err := ip.eval(tx.obj, env)
		if err != nil {
			return nil, err
		}
		idx, err := ip.eval(tx.idx, env)
		if err != nil {
			return nil, err
		}
		if o, ok := obj.(*Object); ok {
			o.Delete(ToString(idx))
		}
		return true, nil
	default:
		return true, nil
	}
}

func (ip *interp) store(target expr, env *scope, v Value) error {
	switch tx := target.(type) {
	case identExpr:
		if !env.assign(tx.name, v) {
			// Implicit global, like sloppy-mode JS.
			ip.global.vars[tx.name] = v
		}
		return nil
	case memberExpr:
		obj, err := ip.eval(tx.obj, env)
		if err != nil {
			return err
		}
		return ip.setMember(obj, tx.name, v, tx.line)
	case indexExpr:
		obj, err := ip.eval(tx.obj, env)
		if err != nil {
			return err
		}
		idx, err := ip.eval(tx.idx, env)
		if err != nil {
			return err
		}
		return ip.setIndex(obj, idx, v, tx.line)
	default:
		return &RuntimeError{Msg: "invalid assignment target"}
	}
}

func (ip *interp) binop(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "+":
		_, ls := l.(string)
		_, rs := r.(string)
		if ls || rs || isConcatty(l) || isConcatty(r) {
			a, b := ToString(l), ToString(r)
			if len(a)+len(b) > maxStringLen {
				return nil, &RuntimeError{Line: line, Msg: "invalid string length"}
			}
			return a + b, nil
		}
		return toNumber(l) + toNumber(r), nil
	case "-":
		return toNumber(l) - toNumber(r), nil
	case "*":
		return toNumber(l) * toNumber(r), nil
	case "/":
		return toNumber(l) / toNumber(r), nil
	case "%":
		return math.Mod(toNumber(l), toNumber(r)), nil
	case "<", ">", "<=", ">=":
		if a, ok := l.(string); ok {
			if b, ok := r.(string); ok {
				switch op {
				case "<":
					return a < b, nil
				case ">":
					return a > b, nil
				case "<=":
					return a <= b, nil
				default:
					return a >= b, nil
				}
			}
		}
		a, b := toNumber(l), toNumber(r)
		switch op {
		case "<":
			return a < b, nil
		case ">":
			return a > b, nil
		case "<=":
			return a <= b, nil
		default:
			return a >= b, nil
		}
	case "==":
		return looseEquals(l, r), nil
	case "!=":
		return !looseEquals(l, r), nil
	case "===":
		return strictEquals(l, r), nil
	case "!==":
		return !strictEquals(l, r), nil
	case "&":
		return float64(toInt32(l) & toInt32(r)), nil
	case "|":
		return float64(toInt32(l) | toInt32(r)), nil
	case "^":
		return float64(toInt32(l) ^ toInt32(r)), nil
	case "<<":
		return float64(toInt32(l) << (toUint32(r) & 31)), nil
	case ">>":
		return float64(toInt32(l) >> (toUint32(r) & 31)), nil
	case ">>>":
		return float64(toUint32(l) >> (toUint32(r) & 31)), nil
	case "in":
		switch o := r.(type) {
		case *Object:
			_, ok := o.Get(ToString(l))
			return ok, nil
		case *Array:
			i := int(toNumber(l))
			return i >= 0 && i < len(o.Elems), nil
		}
		return false, nil
	default:
		return nil, &RuntimeError{Line: line, Msg: "unknown operator " + op}
	}
}

func isConcatty(v Value) bool {
	switch v.(type) {
	case *Object, *Array, Undefined, Null, *Function, *Builtin, *Regexp:
		return true
	}
	return false
}

func (ip *interp) evalCall(ex callExpr, env *scope) (Value, error) {
	var this Value = Undefined{}
	var fn Value
	var err error
	switch callee := ex.callee.(type) {
	case memberExpr:
		this, err = ip.eval(callee.obj, env)
		if err != nil {
			return nil, err
		}
		fn, err = ip.getMember(this, callee.name, callee.line)
	case indexExpr:
		this, err = ip.eval(callee.obj, env)
		if err != nil {
			return nil, err
		}
		var idx Value
		idx, err = ip.eval(callee.idx, env)
		if err != nil {
			return nil, err
		}
		fn, err = ip.getIndex(this, idx, callee.line)
	default:
		fn, err = ip.eval(ex.callee, env)
	}
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(ex.args))
	for i, a := range ex.args {
		v, err := ip.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return ip.callValue(fn, this, args, ex.line)
}

func (ip *interp) callValue(fn Value, this Value, args []Value, line int) (Value, error) {
	ip.callDepth++
	defer func() { ip.callDepth-- }()
	if ip.callDepth > maxCallDepth {
		return nil, &RuntimeError{Line: line, Msg: "maximum call stack size exceeded"}
	}
	switch f := fn.(type) {
	case *Function:
		env := newScope(f.env)
		env.vars["this"] = this
		if f.lit.name != "" {
			// Named function expressions see their own name in scope.
			env.vars[f.lit.name] = f
		}
		for i, p := range f.lit.params {
			if i < len(args) {
				env.vars[p] = args[i]
			} else {
				env.vars[p] = Undefined{}
			}
		}
		argsArr := &Array{Elems: append([]Value(nil), args...)}
		env.vars["arguments"] = argsArr
		v, c, err := ip.execBlock(f.lit.body, env)
		if err != nil {
			return nil, err
		}
		if c == ctrlReturn {
			return v, nil
		}
		return Undefined{}, nil
	case *Builtin:
		return f.Fn(ip, this, args)
	default:
		return nil, &RuntimeError{Line: line, Msg: ToString(fn) + " is not a function"}
	}
}

func (ip *interp) evalNew(ex newExpr, env *scope) (Value, error) {
	fn, err := ip.eval(ex.callee, env)
	if err != nil {
		return nil, err
	}
	args := make([]Value, len(ex.args))
	for i, a := range ex.args {
		v, err := ip.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	// Builtin constructors (Array, Date, RegExp) construct directly.
	if b, ok := fn.(*Builtin); ok {
		return b.Fn(ip, NewObject(), args)
	}
	this := NewObject()
	ret, err := ip.callValue(fn, this, args, ex.line)
	if err != nil {
		return nil, err
	}
	switch ret.(type) {
	case *Object, *Array:
		return ret, nil
	default:
		return this, nil
	}
}
