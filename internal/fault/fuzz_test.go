package fault

import (
	"reflect"
	"testing"
)

// FuzzParseSpec parses arbitrary text as a schedule spec and as a point
// name. Neither parser may panic; an accepted schedule's rate lies in
// [0, 1] and the schedule survives a round trip through its String form;
// an accepted point name is that point's name.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"seed=7,rate=0.25,points=binder+egl_present,after=2,times=3",
		"points=warp_drive",
		"rate=1.5",
		"seed",
		"",
		"seed=7,rate=0.05",
		"seed=7,rate=0.1,times=1,points=session_hang",
		Schedule{Seed: 42, Rate: 0.3}.String(),
		Schedule{Seed: 3, Rate: 1, Points: []Point{PointBinder}, After: 1, Times: 2}.String(),
	} {
		f.Add(spec)
	}
	for p := range NumPoints {
		f.Add(p.String())
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if p, err := ParsePoint(spec); err == nil && p.String() != spec {
			t.Fatalf("ParsePoint(%q) = %v, named %q", spec, p, p.String())
		}
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if !(s.Rate >= 0 && s.Rate <= 1) {
			t.Fatalf("ParseSpec(%q) accepted rate %v, outside [0, 1]", spec, s.Rate)
		}
		again, err := ParseSpec(s.String())
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("ParseSpec(%q) = %+v, whose String %q parses to %+v, %v", spec, s, s.String(), again, err)
		}
	})
}
