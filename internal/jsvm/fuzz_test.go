package jsvm

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cycada/internal/workloads/sites"
)

// fuzzSteps bounds every fuzzed run; with fuzzMaxLen it keeps one input to
// milliseconds however it loops.
const (
	fuzzSteps  = 5_000
	fuzzMaxLen = 2048
)

var scriptRE = regexp.MustCompile(`(?s)<script>(.*?)</script>`)

// fuzzSeeds collects every string literal of jsvm_test.go — the programs
// the unit tests run, plus expected values, which make fine near misses —
// and the script of every bundled site page.
func fuzzSeeds(f *testing.F) []string {
	file, err := goparser.ParseFile(gotoken.NewFileSet(), "jsvm_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	var seeds []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				seeds = append(seeds, s)
			}
		}
		return true
	})
	for _, name := range sites.Names() {
		page, _ := sites.Page(name)
		for _, m := range scriptRE.FindAllStringSubmatch(page, -1) {
			seeds = append(seeds, m[1])
		}
	}
	return seeds
}

// runOutcome is what a program shows its host: the lines it printed, its
// completion value and its error.
func runOutcome(e *Engine, src string) string {
	v, err := e.Run(src)
	val := "<none>"
	if err == nil {
		val = fmt.Sprintf("%T %s", v, ToString(v))
	}
	return fmt.Sprintf("printed %q, returned %s, error %v", e.Output(), val, err)
}

// FuzzParse feeds arbitrary source to the front end (lexer and parser) and
// runs whatever it accepts, once with the baseline JIT and once in the
// interpreter, under a step budget. Properties: no panic, bounded time, and
// a program prints and returns the same either way — the JIT changes what a
// script costs on the virtual clock, never what it computes. Programs that
// read the clock (Date) legitimately see different times and are only run.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > fuzzMaxLen {
			return
		}
		if _, _, err := parse(src); err != nil {
			return
		}
		jit := New(newThread(t, false), WithStepBudget(fuzzSteps))
		interp := New(newThread(t, false), WithStepBudget(fuzzSteps), WithoutJIT())
		if !jit.JITEnabled() || interp.JITEnabled() {
			t.Fatalf("JIT enabled: %v and %v, want true and false", jit.JITEnabled(), interp.JITEnabled())
		}
		a, b := runOutcome(jit, src), runOutcome(interp, src)
		if a != b && !strings.Contains(src, "Date") {
			t.Fatalf("JIT and interpreter differ on %q:\njit:    %s\ninterp: %s", src, a, b)
		}
	})
}
