package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("seed=7,rate=0.25,points=binder+egl_present,after=2,times=3")
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || s.Rate != 0.25 || s.After != 2 || s.Times != 3 {
		t.Fatalf("parsed %+v", s)
	}
	if len(s.Points) != 2 || s.Points[0] != PointBinder || s.Points[1] != PointEGLPresent {
		t.Fatalf("points %v", s.Points)
	}
	// Round-trip.
	s2, err := ParseSpec(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if s2.String() != s.String() {
		t.Fatalf("round-trip %q != %q", s2.String(), s.String())
	}
	if _, err := ParseSpec("points=warp_drive"); err == nil {
		t.Fatal("unknown point accepted")
	}
	if _, err := ParseSpec("rate=1.5"); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	for _, rate := range []string{"nan", "NaN", "-1e-300", "inf", "-Inf"} {
		if s, err := ParseSpec("rate=" + rate); err == nil {
			t.Fatalf("rate=%s accepted as %+v", rate, s)
		}
	}
	if _, err := ParseSpec("seed"); err == nil {
		t.Fatal("bare key accepted")
	}
	if s, err := ParseSpec(""); err != nil || s.Rate != 0.1 {
		t.Fatalf("empty spec: %+v %v", s, err)
	}
}

func TestDeterminism(t *testing.T) {
	sched := Schedule{Seed: 42, Rate: 0.3}
	run := func() []bool {
		inj := NewInjector(sched)
		var out []bool
		for i := 0; i < 1000; i++ {
			out = append(out, inj.Fail(PointGralloc) != nil)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	// A different seed should give a different sequence.
	inj := NewInjector(Schedule{Seed: 43, Rate: 0.3})
	same := true
	for i := 0; i < 1000; i++ {
		if (inj.Fail(PointGralloc) != nil) != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical sequences")
	}
}

func TestRateZeroNeverFires(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 1, Rate: 0})
	for p := Point(0); p < NumPoints; p++ {
		for i := 0; i < 200; i++ {
			if err := inj.Fail(p); err != nil {
				t.Fatalf("rate 0 fired at %v", p)
			}
		}
	}
	if got := inj.Stats().TotalInjected(); got != 0 {
		t.Fatalf("injected %d at rate 0", got)
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 1, Rate: 1})
	for i := 0; i < 100; i++ {
		if inj.Fail(PointBinder) == nil {
			t.Fatalf("rate 1 missed at check %d", i+1)
		}
	}
}

func TestRateRoughlyHonored(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 9, Rate: 0.2})
	fired := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if inj.Fail(PointDlopen) != nil {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("rate 0.2 fired %.3f of checks", frac)
	}
}

func TestPointMask(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 3, Rate: 1, Points: []Point{PointDlforce}})
	if inj.Fail(PointDlopen) != nil {
		t.Fatal("masked point fired")
	}
	if inj.Fail(PointDlforce) == nil {
		t.Fatal("enabled point did not fire")
	}
}

func TestAfterAndTimes(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 5, Rate: 1, After: 2, Times: 2})
	var fires []int
	for i := 1; i <= 10; i++ {
		if inj.Fail(PointGralloc) != nil {
			fires = append(fires, i)
		}
	}
	if len(fires) != 2 || fires[0] != 3 || fires[1] != 4 {
		t.Fatalf("after=2,times=2 fired at %v", fires)
	}
	st := inj.Stats()
	if st[PointGralloc].Checks != 10 || st[PointGralloc].Injected != 2 {
		t.Fatalf("stats %+v", st[PointGralloc])
	}
}

func TestDisarm(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 5, Rate: 1})
	if inj.Fail(PointBinder) == nil {
		t.Fatal("armed injector did not fire")
	}
	inj.Disarm()
	if inj.Fail(PointBinder) != nil {
		t.Fatal("disarmed injector fired")
	}
	inj.Arm()
	if inj.Fail(PointBinder) == nil {
		t.Fatal("re-armed injector did not fire")
	}
}

func TestErrorClassification(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 5, Rate: 1})
	err := inj.Fail(PointEGLPresent)
	if err == nil {
		t.Fatal("no error")
	}
	if !Injected(err) {
		t.Fatal("Injected(err) = false")
	}
	wrapped := fmt.Errorf("post: %w", err)
	if !Injected(wrapped) {
		t.Fatal("Injected(wrapped) = false")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != PointEGLPresent || fe.N != 1 {
		t.Fatalf("fault error %+v", fe)
	}
	if Injected(errors.New("organic")) {
		t.Fatal("organic error classified as injected")
	}
}

func TestConcurrentChecks(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 11, Rate: 0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				inj.Fail(Point(i % int(NumPoints)))
				inj.Should(PointDiplomatPanic)
			}
		}()
	}
	wg.Wait()
	st := inj.Stats()
	var checks uint64
	for _, ps := range st {
		checks += ps.Checks
	}
	if want := uint64(8 * 500 * 2); checks != want {
		t.Fatalf("checks %d, want %d", checks, want)
	}
}

func TestPointNames(t *testing.T) {
	for p := Point(0); p < NumPoints; p++ {
		if p.String() == "unknown" || p.String() == "" {
			t.Fatalf("point %d has no name", p)
		}
		got, err := ParsePoint(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePoint(%q) = %v, %v", p.String(), got, err)
		}
	}
	if NumPoints.String() != "unknown" {
		t.Fatal("NumPoints should be unnamed")
	}
}

func TestDefault(t *testing.T) {
	if Default() != nil {
		t.Fatal("default injector set at start")
	}
	inj := NewInjector(Schedule{Rate: 1})
	SetDefault(inj)
	if Default() != inj {
		t.Fatal("SetDefault did not stick")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not clear")
	}
}
