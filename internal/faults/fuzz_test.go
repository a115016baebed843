package faults

import "testing"

// FuzzParseShape throws arbitrary strings at the shape parser. Two
// properties must hold: the parser never panics, and any spec it accepts
// renders to a canonical string that re-parses to the identical Shape.
func FuzzParseShape(f *testing.F) {
	f.Add("flap")
	f.Add("flap(period=800ms,duty=0.5,jitter=20ms)")
	f.Add("graylink(rxloss=0.3,txloss=0,rxdelay=5ms,txdelay=0s)")
	f.Add("slownode(stall=120ms)")
	f.Add("flap(period=1s,duty=0.999)")
	f.Add("graylink(rxloss=1e-9,txloss=0.5)")
	f.Add("flap(period=1s")
	f.Add("flap(duty=NaN)")
	f.Add("graylink(rxloss=-0)")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := parseShape(spec)
		if err != nil {
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("parseShape(%q) accepted an invalid shape: %v", spec, err)
		}
		canon := s.String()
		back, err := parseShape(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if back != s {
			t.Fatalf("round trip of %q via %q: %+v != %+v", spec, canon, back, s)
		}
	})
}
