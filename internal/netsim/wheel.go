package netsim

import (
	"time"

	"wackamole/internal/env"
)

// TimerWheel is what is left of a timing wheel that once held flow's
// retransmission timeouts. It exists only for the benchmark module's
// netsim.wheel_timer_ns rig, which still calls it, and goes with that rig
// (ROADMAP item 1b). Nothing else may use it.
type TimerWheel struct{ h *Host }

// NewTimerWheel returns a scheduler on h. tick and slots are ignored.
func NewTimerWheel(h *Host, tick time.Duration, slots int) *TimerWheel { return &TimerWheel{h} }

// Schedule runs fn once, d from now.
func (w *TimerWheel) Schedule(d time.Duration, fn func()) env.Timer {
	return w.h.net.sim.After(d, fn)
}
