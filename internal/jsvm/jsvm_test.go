package jsvm

import (
	"math"
	"strings"
	"testing"

	"cycada/internal/sim/kernel"
	"cycada/internal/sim/vclock"
)

func newThread(t *testing.T, denyJIT bool) *kernel.Thread {
	t.Helper()
	k := kernel.New(kernel.Config{Platform: vclock.Nexus7(), Flavor: vclock.KernelCycada})
	p, err := k.NewProcess("js", kernel.PersonaIOS, kernel.PersonaAndroid)
	if err != nil {
		t.Fatal(err)
	}
	if denyJIT {
		p.Mem().DenyExecutable(true)
	}
	return p.Main()
}

func run(t *testing.T, src string) Value {
	t.Helper()
	e := New(newThread(t, false))
	v, err := e.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return v
}

func num(t *testing.T, src string) float64 {
	t.Helper()
	v := run(t, src)
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("Run(%q) = %v (%T), want number", src, v, v)
	}
	return f
}

func TestArithmeticAndPrecedence(t *testing.T) {
	cases := map[string]float64{
		"1 + 2 * 3":       7,
		"(1 + 2) * 3":     9,
		"10 % 3":          1,
		"2 * 3 + 4 * 5":   26,
		"-5 + 3":          -2,
		"1 << 4":          16,
		"255 >> 4":        15,
		"-1 >>> 28":       15,
		"5 & 3":           1,
		"5 | 3":           7,
		"5 ^ 3":           6,
		"~0":              -1,
		"1/0":             math.Inf(1),
		"3 < 5 ? 10 : 20": 10,
		"0x10 + 1":        17,
		"1e3 + 0.5":       1000.5,
	}
	for src, want := range cases {
		if got := num(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestStringsAndCoercion(t *testing.T) {
	if got := run(t, `"a" + 1 + 2`); got != "a12" {
		t.Errorf("string concat = %v", got)
	}
	if got := num(t, `"5" * "4"`); got != 20 {
		t.Errorf("numeric coercion = %v", got)
	}
	if got := run(t, `"abc".toUpperCase()`); got != "ABC" {
		t.Errorf("toUpperCase = %v", got)
	}
	if got := num(t, `"hello".length`); got != 5 {
		t.Errorf("length = %v", got)
	}
	if got := run(t, `"hello".substring(1, 3)`); got != "el" {
		t.Errorf("substring = %v", got)
	}
	if got := num(t, `"hello".charCodeAt(0)`); got != 104 {
		t.Errorf("charCodeAt = %v", got)
	}
	if got := run(t, `String.fromCharCode(104, 105)`); got != "hi" {
		t.Errorf("fromCharCode = %v", got)
	}
	if got := run(t, `"a,b,c".split(",").join("-")`); got != "a-b-c" {
		t.Errorf("split/join = %v", got)
	}
}

func TestEqualitySemantics(t *testing.T) {
	cases := map[string]bool{
		`1 == "1"`:           true,
		`1 === "1"`:          false,
		`null == undefined`:  true,
		`null === undefined`: false,
		`"a" != "b"`:         true,
		`1 !== 1`:            false,
		`true == 1`:          true,
	}
	for src, want := range cases {
		if got := run(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
}

func TestFunctionsAndClosures(t *testing.T) {
	got := num(t, `
function makeCounter() {
  var n = 0;
  return function() { n = n + 1; return n; };
}
var c = makeCounter();
c(); c();
c();
`)
	if got != 3 {
		t.Fatalf("closure counter = %v, want 3", got)
	}
}

func TestRecursion(t *testing.T) {
	if got := num(t, `
function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
fib(15);
`); got != 610 {
		t.Fatalf("fib(15) = %v, want 610", got)
	}
}

func TestDeepRecursionBounded(t *testing.T) {
	e := New(newThread(t, false))
	_, err := e.Run(`function f(){ return f(); } f();`)
	if err == nil || !strings.Contains(err.Error(), "call stack") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
}

func TestLoopsAndControlFlow(t *testing.T) {
	if got := num(t, `
var sum = 0;
for (var i = 0; i < 10; i++) {
  if (i == 3) continue;
  if (i == 8) break;
  sum += i;
}
sum;
`); got != 0+1+2+4+5+6+7 {
		t.Fatalf("loop sum = %v", got)
	}
	if got := num(t, `var n = 0; while (n < 5) { n++; } n;`); got != 5 {
		t.Fatalf("while = %v", got)
	}
	if got := num(t, `var n = 0; do { n++; } while (n < 3); n;`); got != 3 {
		t.Fatalf("do/while = %v", got)
	}
}

func TestSwitch(t *testing.T) {
	src := `
function f(x) {
  switch (x) {
  case 1: return "one";
  case 2:
  case 3: return "few";
  default: return "many";
  }
}
f(1) + "," + f(2) + "," + f(3) + "," + f(9);
`
	if got := run(t, src); got != "one,few,few,many" {
		t.Fatalf("switch = %v", got)
	}
}

func TestObjectsAndArrays(t *testing.T) {
	if got := num(t, `var o = {a: 1, b: {c: 2}}; o.a + o.b.c;`); got != 3 {
		t.Fatalf("object access = %v", got)
	}
	if got := num(t, `var a = [1,2,3]; a.push(4); a[0] + a[3] + a.length;`); got != 9 {
		t.Fatalf("array ops = %v", got)
	}
	if got := run(t, `var a = [3,1,2]; a.sort(); a.join("")`); got != "123" {
		t.Fatalf("sort = %v", got)
	}
	if got := run(t, `var a = [3,1,20]; a.sort(function(x,y){return x-y;}); a.join(",")`); got != "1,3,20" {
		t.Fatalf("sort with comparator = %v", got)
	}
	if got := num(t, `
var o = {x: 1, y: 2, z: 3};
var sum = 0;
for (var k in o) { sum += o[k]; }
delete o.y;
var sum2 = 0;
for (var k2 in o) { sum2 += o[k2]; }
sum * 10 + sum2;
`); got != 64 {
		t.Fatalf("for-in/delete = %v", got)
	}
}

func TestThisAndNew(t *testing.T) {
	if got := num(t, `
function Point(x, y) { this.x = x; this.y = y; }
var p = new Point(3, 4);
p.x * 10 + p.y;
`); got != 34 {
		t.Fatalf("constructor = %v", got)
	}
	if got := num(t, `
var obj = { n: 7, get: function() { return this.n; } };
obj.get();
`); got != 7 {
		t.Fatalf("method this = %v", got)
	}
}

func TestTypeofAndUndefined(t *testing.T) {
	if got := run(t, `typeof 1`); got != "number" {
		t.Errorf("typeof 1 = %v", got)
	}
	if got := run(t, `typeof "x"`); got != "string" {
		t.Errorf("typeof string = %v", got)
	}
	if got := run(t, `typeof undeclaredVariable`); got != "undefined" {
		t.Errorf("typeof undeclared = %v", got)
	}
	if got := run(t, `typeof function(){}`); got != "function" {
		t.Errorf("typeof function = %v", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	e := New(newThread(t, false))
	for _, src := range []string{
		`undeclared + 1;`,
		`null.x;`,
		`var a; a.b;`,
		`(5)();`,
	} {
		if _, err := e.Run(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	e := New(newThread(t, false))
	for _, src := range []string{
		`var ;`,
		`function (){}`,
		`if (true {`,
		`"unterminated`,
		`1 = 2;`,
	} {
		if _, err := e.Run(src); err == nil {
			t.Errorf("no syntax error for %q", src)
		}
	}
}

func TestRegexBasics(t *testing.T) {
	cases := []struct {
		src  string
		want Value
	}{
		{`/ab+c/.test("xabbbcx")`, true},
		{`/ab+c/.test("ac")`, false},
		{`/^hello/.test("hello world")`, true},
		{`/^hello/.test("say hello")`, false},
		{`/world$/.test("hello world")`, true},
		{`/[0-9]+/.test("abc123")`, true},
		{`/[^0-9]/.test("123")`, false},
		{`/\d{3}-\d{4}/.test("555-1234")`, true},
		{`/cat|dog/.test("hotdog")`, true},
		{`/(ab)+/.test("ababab")`, true},
		{`/x?y/.test("y")`, true},
		{`/HELLO/i.test("hello")`, true},
		{`"a1b22c333".replace(/\d+/g, "#")`, "a#b#c#"},
		{`"one two  three".split(/\s+/).length`, float64(3)},
		{`"date: 2017-12-11".match(/\d+/g).join("/")`, "2017/12/11"},
		{`"hello world".search(/wor/)`, float64(6)},
	}
	for _, tc := range cases {
		if got := run(t, tc.src); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestRegexErrors(t *testing.T) {
	e := New(newThread(t, false))
	if _, err := e.Run(`/(/ .test("x")`); err == nil {
		t.Error("unbalanced group accepted")
	}
	if _, err := e.Run(`RegExp("[abc")`); err == nil {
		t.Error("unterminated class accepted")
	}
}

func TestJITGating(t *testing.T) {
	// With executable memory: JIT on.
	e := New(newThread(t, false))
	if !e.JITEnabled() {
		t.Fatal("JIT should be enabled when RWX memory is available")
	}
	// Under the Mach VM bug: interpreter fallback.
	e2 := New(newThread(t, true))
	if e2.JITEnabled() {
		t.Fatal("JIT enabled despite executable-memory denial")
	}
	// Explicitly disabled (the Figure 5 purple series).
	e3 := New(newThread(t, false), WithoutJIT())
	if e3.JITEnabled() {
		t.Fatal("WithoutJIT ignored")
	}
}

func TestInterpreterCostsMoreVirtualTime(t *testing.T) {
	src := `
var s = 0;
for (var i = 0; i < 5000; i++) { s += i & 7; }
s;
`
	thJIT := newThread(t, false)
	eJIT := New(thJIT)
	before := thJIT.VTime()
	if _, err := eJIT.Run(src); err != nil {
		t.Fatal(err)
	}
	jitCost := thJIT.VTime() - before

	thInt := newThread(t, true)
	eInt := New(thInt)
	before = thInt.VTime()
	if _, err := eInt.Run(src); err != nil {
		t.Fatal(err)
	}
	intCost := thInt.VTime() - before

	ratio := float64(intCost) / float64(jitCost)
	if ratio < 2.5 {
		t.Fatalf("interpreter/JIT cost ratio = %.2f, want > 2.5 (Figure 5 shape)", ratio)
	}
	if eJIT.OpsRun() != eInt.OpsRun() {
		t.Fatalf("op counts differ: %d vs %d", eJIT.OpsRun(), eInt.OpsRun())
	}
}

func TestRegexInterpreterPenaltyIsLarger(t *testing.T) {
	// The regexp category loses the most without JIT (YARR), Figure 5.
	src := `
var count = 0;
var re = /(a+)+b/;
for (var i = 0; i < 10; i++) {
  if (re.test("aaaaaaaaaaab")) count++;
  re.test("aaaaaaaaaac");
}
count;
`
	thJIT := newThread(t, false)
	eJIT := New(thJIT)
	before := thJIT.VTime()
	if _, err := eJIT.Run(src); err != nil {
		t.Fatal(err)
	}
	jitCost := float64(thJIT.VTime() - before)

	thInt := newThread(t, true)
	eInt := New(thInt)
	before = thInt.VTime()
	if _, err := eInt.Run(src); err != nil {
		t.Fatal(err)
	}
	intCost := float64(thInt.VTime() - before)

	if intCost/jitCost < 5 {
		t.Fatalf("regex interpreter/JIT ratio = %.2f, want > 5", intCost/jitCost)
	}
}

func TestPrintAndGlobals(t *testing.T) {
	e := New(newThread(t, false))
	if _, err := e.Run(`print("hello", 42);`); err != nil {
		t.Fatal(err)
	}
	if out := e.Output(); len(out) != 1 || out[0] != "hello 42" {
		t.Fatalf("output = %v", out)
	}
	e.SetGlobal("hostValue", float64(99))
	v, err := e.Run(`hostValue + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if v != float64(100) {
		t.Fatalf("host global = %v", v)
	}
}

func TestCallFromHost(t *testing.T) {
	e := New(newThread(t, false))
	if _, err := e.Run(`function add(a, b) { return a + b; }`); err != nil {
		t.Fatal(err)
	}
	v, err := e.Call("add", float64(2), float64(3))
	if err != nil {
		t.Fatal(err)
	}
	if v != float64(5) {
		t.Fatalf("Call add = %v", v)
	}
	if _, err := e.Call("missing"); err == nil {
		t.Fatal("calling missing function succeeded")
	}
}

func TestBuiltinLibrary(t *testing.T) {
	cases := map[string]float64{
		`Math.abs(-5)`:                           5,
		`Math.floor(3.7)`:                        3,
		`Math.max(1, 9, 4)`:                      9,
		`Math.min(3, -2, 8)`:                     -2,
		`Math.pow(2, 10)`:                        1024,
		`Math.round(2.5)`:                        3,
		`Math.sqrt(81)`:                          9,
		`parseInt("42")`:                         42,
		`parseInt("ff", 16)`:                     255,
		`parseInt("0x1f")`:                       31,
		`parseFloat("3.5abc")`:                   3.5,
		`(255).toString(16) == "ff" ? 1 : 0`:     1,
		`(3.14159).toFixed(2) == "3.14" ? 1 : 0`: 1,
	}
	for src, want := range cases {
		if got := num(t, src); got != want {
			t.Errorf("%q = %v, want %v", src, got, want)
		}
	}
	if got := run(t, `isNaN(parseInt("zz"))`); got != true {
		t.Error("isNaN(parseInt garbage) != true")
	}
}

func TestMathRandomDeterministic(t *testing.T) {
	e1 := New(newThread(t, false))
	e2 := New(newThread(t, false))
	v1, err := e1.Run(`Math.random() + Math.random();`)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e2.Run(`Math.random() + Math.random();`)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("Math.random not deterministic across engines: %v vs %v", v1, v2)
	}
	r := num(t, `Math.random()`)
	if r < 0 || r >= 1 {
		t.Fatalf("Math.random out of range: %v", r)
	}
}

func TestStepBudget(t *testing.T) {
	e := New(newThread(t, false), WithStepBudget(10000))
	_, err := e.Run(`while (true) {}`)
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("err = %v, want step budget exceeded", err)
	}
}

func TestCompoundAssignAndUpdate(t *testing.T) {
	if got := num(t, `var x = 10; x += 5; x -= 3; x *= 2; x /= 4; x;`); got != 6 {
		t.Fatalf("compound = %v", got)
	}
	if got := num(t, `var i = 5; var a = i++; var b = ++i; a * 100 + b * 10 + i;`); got != 577 {
		t.Fatalf("update = %v", got)
	}
	if got := num(t, `var a = [1]; a[0] <<= 4; a[0];`); got != 16 {
		t.Fatalf("indexed compound = %v", got)
	}
}

func TestVarScopingAndImplicitGlobal(t *testing.T) {
	if got := num(t, `
function f() { implicitG = 7; var local = 1; return local; }
f();
implicitG;
`); got != 7 {
		t.Fatalf("implicit global = %v", got)
	}
}

func TestFunctionHoisting(t *testing.T) {
	if got := num(t, `var r = early(); function early() { return 11; } r;`); got != 11 {
		t.Fatalf("hoisting = %v", got)
	}
}

// A cycle joins as empty, as in browsers, instead of recursing without end.
func TestCyclicArrayJoinsEmpty(t *testing.T) {
	if got := run(t, `var a = [1]; a[1] = a; var b = [2, a]; a[2] = b; a.join("-") + "|" + b`); got != "1--2,|2,1,," {
		t.Fatalf("cyclic join = %q", got)
	}
}

// Lengths, indexes and concatenations past the script limits are errors,
// not allocations that take the host down.
func TestScriptLimits(t *testing.T) {
	for src, want := range map[string]string{
		`Array(NaN)`:                        "invalid array length",
		`new Array(-1)`:                     "invalid array length",
		`Array(1.5)`:                        "invalid array length",
		`Array(2e6)`:                        "invalid array length",
		`var a = []; a.length = 1e15`:       "invalid array length",
		`var a = []; a[1e15] = 1`:           "array index too large",
		`var s = "ab"; while (1) s += s`:    "invalid string length",
		`var s = "ab"; while (1) s = s + s`: "invalid string length",
	} {
		e := New(newThread(t, false))
		if _, err := e.Run(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Run(%q) error = %v, want %q", src, err, want)
		}
	}
	if got := num(t, `var a = Array(1000); a[999] = 1; a.length = 1048576; a.length`); got != 1<<20 {
		t.Fatalf("length at the limit = %v", got)
	}
}
