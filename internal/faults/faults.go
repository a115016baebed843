// Package faults builds deterministic, seed-driven gray-failure shapes on
// top of netsim: flapping interfaces, lossy-but-alive links with
// per-direction asymmetry, and CPU-starved daemons that hold the token
// late. The paper only injects clean crashes and NIC pulls (§6); this
// package supplies the scenario family *The Ghost in the Datacenter*
// argues dominates real outages.
//
// A fault program is a list of Shape values, written in a compact spec
// syntax ("flap(period=800ms,duty=0.5)+graylink(rxloss=0.3,...)") and
// applied to one interface with ApplyProgram. All randomness (flap jitter,
// loss draws) comes from the simulation's shared RNG, so the same seed and
// topology produce bit-identical event sequences, and the steady-state
// flap tick is allocation-free: the ticker reschedules itself through the
// simulator's pooled Post path.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies a fault shape.
type Kind uint8

const (
	// Flap cycles the interface down and up on a configurable period and
	// duty cycle, with optional per-phase jitter — a flapping link.
	Flap Kind = iota + 1
	// grayLink leaves the interface up but impairs it directionally:
	// per-direction loss probability and added delay. The host stays alive
	// and partially reachable — the lossy-but-alive link.
	grayLink
	// slowNode models a CPU-starved daemon: every timer firing and inbound
	// frame on the host is delayed by a uniform draw up to Stall, so the
	// node holds the token late without ever being down.
	slowNode
)

// kindNames maps each Kind to its spec-syntax name.
var kindNames = map[Kind]string{
	Flap:     "flap",
	grayLink: "graylink",
	slowNode: "slownode",
}

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// parseKind resolves a spec-syntax kind name.
func parseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown shape kind %q (want flap, graylink or slownode)", s)
}

// Shape is one parameterized fault shape. Only the fields of the active
// Kind are meaningful; the rest stay zero. The struct is comparable, so
// parse/format round-trips can be checked with ==.
type Shape struct {
	Kind Kind

	// Flap: the interface cycles down for (1-Duty)·Period then up for
	// Duty·Period; Jitter adds an extra uniform draw from [0, Jitter) to
	// each phase.
	Period time.Duration
	Duty   float64
	Jitter time.Duration

	// grayLink: loss probability and added fixed delay per direction.
	// Rx applies to frames the interface receives, Tx to frames it sends.
	RxLoss  float64
	TxLoss  float64
	RxDelay time.Duration
	TxDelay time.Duration

	// slowNode: upper bound of the uniform processing delay applied to the
	// host's timers and inbound frames.
	Stall time.Duration
}

// defaultShape returns the canonical parameterization of a kind — what a
// bare "flap" spec with no arguments means.
func defaultShape(k Kind) Shape {
	switch k {
	case Flap:
		return Shape{Kind: Flap, Period: time.Second, Duty: 0.5}
	case grayLink:
		return Shape{Kind: grayLink, RxLoss: 0.25, TxLoss: 0.25}
	case slowNode:
		return Shape{Kind: slowNode, Stall: 50 * time.Millisecond}
	}
	return Shape{}
}

// validate checks that the shape's parameters are usable.
func (s Shape) validate() error {
	switch s.Kind {
	case Flap:
		if s.Period <= 0 {
			return fmt.Errorf("faults: flap period must be positive, got %v", s.Period)
		}
		if math.IsNaN(s.Duty) || s.Duty <= 0 || s.Duty >= 1 {
			return fmt.Errorf("faults: flap duty must be in (0,1), got %v", s.Duty)
		}
		if s.Jitter < 0 {
			return fmt.Errorf("faults: flap jitter must be non-negative, got %v", s.Jitter)
		}
		up := time.Duration(float64(s.Period) * s.Duty)
		down := s.Period - up
		if up <= 0 || down <= 0 {
			return fmt.Errorf("faults: flap phases degenerate (period %v, duty %v)", s.Period, s.Duty)
		}
	case grayLink:
		for _, p := range []struct {
			name string
			v    float64
		}{{"rxloss", s.RxLoss}, {"txloss", s.TxLoss}} {
			if math.IsNaN(p.v) || p.v < 0 || p.v >= 1 {
				return fmt.Errorf("faults: graylink %s must be in [0,1), got %v", p.name, p.v)
			}
		}
		if s.RxDelay < 0 || s.TxDelay < 0 {
			return fmt.Errorf("faults: graylink delays must be non-negative")
		}
		if s.RxLoss == 0 && s.TxLoss == 0 && s.RxDelay == 0 && s.TxDelay == 0 {
			return fmt.Errorf("faults: graylink needs at least one nonzero impairment")
		}
	case slowNode:
		if s.Stall <= 0 {
			return fmt.Errorf("faults: slownode stall must be positive, got %v", s.Stall)
		}
	default:
		return fmt.Errorf("faults: shape has no kind")
	}
	return nil
}

// String renders the shape in spec syntax. Every parameter of the kind is
// printed, including zeros, so parseShape(s.String()) == s for any valid
// shape — the round-trip the fuzz test pins.
func (s Shape) String() string {
	var b strings.Builder
	b.WriteString(s.Kind.String())
	b.WriteByte('(')
	switch s.Kind {
	case Flap:
		fmt.Fprintf(&b, "period=%s,duty=%s,jitter=%s",
			s.Period, formatFloat(s.Duty), s.Jitter)
	case grayLink:
		fmt.Fprintf(&b, "rxloss=%s,txloss=%s,rxdelay=%s,txdelay=%s",
			formatFloat(s.RxLoss), formatFloat(s.TxLoss), s.RxDelay, s.TxDelay)
	case slowNode:
		fmt.Fprintf(&b, "stall=%s", s.Stall)
	}
	b.WriteByte(')')
	return b.String()
}

func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}
