package gcs

// PoisonFreedRecords makes the daemon overwrite every stored-message record,
// and its whole payload buffer, the moment install hands it back to the free
// list. Tests turn it on to prove that nothing reads a retired ring's
// messages.
func (d *Daemon) PoisonFreedRecords() { d.poison = true }

// Operational reports whether the daemon sits on an installed ring with its
// token circulating, rather than reconfiguring behind its last ring.
func (d *Daemon) Operational() bool { return d.state == stOperational }

// The external tests' names for unexported parts of the API.
const (
	MaxPayload = maxPayload
)

func (d *Daemon) Stop()                       { d.stop() }
func (m GroupMember) Less(o GroupMember) bool { return m.less(o) }
