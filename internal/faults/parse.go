package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseProgram parses a '+'-joined list of shape specs, e.g.
// "flap(period=800ms,duty=0.5)+graylink(rxloss=0.3,txloss=0,rxdelay=0,txdelay=0)".
func ParseProgram(spec string) ([]Shape, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("faults: empty fault program")
	}
	parts := strings.Split(spec, "+")
	shapes := make([]Shape, 0, len(parts))
	for _, p := range parts {
		s, err := parseShape(p)
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, s)
	}
	return shapes, nil
}

// parseShape parses one shape spec: a kind name optionally followed by a
// parenthesized key=value list. Omitted parameters take the kind's
// defaultShape values; explicitly written zeros stick. The result is
// validated.
func parseShape(spec string) (Shape, error) {
	spec = strings.TrimSpace(spec)
	name, args := spec, ""
	if i := strings.IndexByte(spec, '('); i >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return Shape{}, fmt.Errorf("faults: unterminated parameter list in %q", spec)
		}
		name, args = spec[:i], spec[i+1:len(spec)-1]
	}
	kind, err := parseKind(name)
	if err != nil {
		return Shape{}, err
	}
	s := defaultShape(kind)
	if strings.TrimSpace(args) != "" {
		for _, kv := range strings.Split(args, ",") {
			kv = strings.TrimSpace(kv)
			eq := strings.IndexByte(kv, '=')
			if eq < 0 {
				return Shape{}, fmt.Errorf("faults: %s: parameter %q is not key=value", name, kv)
			}
			key := strings.TrimSpace(kv[:eq])
			val := strings.TrimSpace(kv[eq+1:])
			if err := s.setParam(key, val); err != nil {
				return Shape{}, err
			}
		}
	}
	if err := s.validate(); err != nil {
		return Shape{}, err
	}
	return s, nil
}

// setParam assigns one spec parameter, rejecting keys foreign to the kind.
func (s *Shape) setParam(key, val string) error {
	dur := func(dst *time.Duration) error {
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("faults: %s: bad duration %s=%q: %v", s.Kind, key, val, err)
		}
		*dst = d
		return nil
	}
	flt := func(dst *float64) error {
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("faults: %s: bad number %s=%q: %v", s.Kind, key, val, err)
		}
		*dst = f
		return nil
	}
	switch {
	case s.Kind == Flap && key == "period":
		return dur(&s.Period)
	case s.Kind == Flap && key == "duty":
		return flt(&s.Duty)
	case s.Kind == Flap && key == "jitter":
		return dur(&s.Jitter)
	case s.Kind == grayLink && key == "rxloss":
		return flt(&s.RxLoss)
	case s.Kind == grayLink && key == "txloss":
		return flt(&s.TxLoss)
	case s.Kind == grayLink && key == "rxdelay":
		return dur(&s.RxDelay)
	case s.Kind == grayLink && key == "txdelay":
		return dur(&s.TxDelay)
	case s.Kind == slowNode && key == "stall":
		return dur(&s.Stall)
	}
	return fmt.Errorf("faults: %s has no parameter %q", s.Kind, key)
}
