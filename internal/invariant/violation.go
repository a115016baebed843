package invariant

import (
	"encoding/json"
	"fmt"
	"time"
)

// Oracle names, stable across versions because artifacts and shrinking key
// on them.
const (
	oracleExactlyOnce   = "exactly-once"
	OracleConvergence   = "convergence"
	oracleViewOrder     = "view-order"
	oracleDeliveryOrder = "delivery-order"
	oracleForeignClaim  = "foreign-claim"
	// oraclePingPong trips when one VIP group is re-claimed more than a
	// configured bound of times within a sliding window — ownership
	// ping-pong, the livelock a flapping link can induce.
	oraclePingPong = "ping-pong"
	// oracleFalseSuspect trips when attached nodes declare live, reachable
	// peers failed more than a configured bound of times — the
	// false-detection rate a lossy-but-alive link must not exceed.
	oracleFalseSuspect = "false-suspect"
	// oracleChurn trips when one reconfiguration (one view) relocates more
	// VIP groups between live owners than the armed bound — the
	// minimal-move guarantee of the placement plane. A relocation is a
	// group acquired by a node that previously saw it owned by a different
	// node; first-time acquisitions of fresh or orphaned groups are free.
	oracleChurn = "churn"
)

// Oracles lists every oracle name; the monitor pre-registers one labeled
// violation counter per entry and tooling (wackactl status) iterates it.
var Oracles = []string{
	oracleExactlyOnce,
	OracleConvergence,
	oracleViewOrder,
	oracleDeliveryOrder,
	oracleForeignClaim,
	oraclePingPong,
	oracleFalseSuspect,
	oracleChurn,
}

// Violation is the first oracle failure observed during a run.
type Violation struct {
	// Oracle is one of the names in Oracles.
	Oracle string
	// Detail is a human-readable description of the contradiction.
	Detail string
	// Step is how many schedule events had executed when the violation was
	// detected (0 = during initial formation; always 0 outside the checker).
	Step int
	// At is the virtual time offset from the start of the run.
	At time.Duration
}

func (v *Violation) String() string {
	if v == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s at step %d (+%v): %s", v.Oracle, v.Step, v.At, v.Detail)
}

// violationJSON keeps the serialized violation shape explicit and stable.
type violationJSON struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
	Step   int    `json:"step"`
	AtNS   int64  `json:"at_ns"`
}

// MarshalJSON implements json.Marshaler.
func (v *Violation) MarshalJSON() ([]byte, error) {
	return json.Marshal(violationJSON{
		Oracle: v.Oracle, Detail: v.Detail, Step: v.Step, AtNS: v.At.Nanoseconds(),
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (v *Violation) UnmarshalJSON(b []byte) error {
	var in violationJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*v = Violation{Oracle: in.Oracle, Detail: in.Detail, Step: in.Step,
		At: time.Duration(in.AtNS)}
	return nil
}

// Equal reports whether two violations match exactly (same oracle, same
// detail, same step, same virtual time). Replays key on it.
func (v *Violation) Equal(o *Violation) bool {
	if (v == nil) != (o == nil) {
		return false
	}
	if v == nil {
		return true
	}
	return v.Oracle == o.Oracle && v.Detail == o.Detail && v.Step == o.Step && v.At == o.At
}
