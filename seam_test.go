package wackamole

import (
	"testing"

	"wackamole/internal/core"
	"wackamole/internal/gcs"
)

// TestMemberSeamDoesNotAllocate pins the seam between the group layer's
// (daemon, client) pairs and the engine's member IDs: for a member of the
// current view — the sender of every message the engine is handed — the ID is
// the string built when the view arrived, not a new one per message.
func TestMemberSeamDoesNotAllocate(t *testing.T) {
	c, err := NewCluster(ClusterOptions{Seed: 3, Servers: 3, VIPs: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Settle()
	n := c.Servers[0].Node
	if len(n.members) != 3 {
		t.Fatalf("node 0 holds a view of %d members, want 3", len(n.members))
	}
	peer := gcs.GroupMember{Daemon: c.Servers[2].Node.Daemon().ID(), Client: ClientName}
	var id core.MemberID
	if avg := testing.AllocsPerRun(1000, func() { id = n.memberID(peer) }); avg != 0 {
		t.Fatalf("naming a member of the current view allocates %.0f, want 0", avg)
	}
	if id != c.Servers[2].Node.Member() {
		t.Fatalf("memberID = %q, want %q", id, c.Servers[2].Node.Member())
	}
	// Anybody else is formatted, as every sender used to be.
	stranger := gcs.GroupMember{Daemon: "10.9.9.9:4803", Client: ClientName}
	if got := n.memberID(stranger); got != core.MemberID(stranger.String()) {
		t.Fatalf("memberID of a stranger = %q, want %q", got, stranger.String())
	}
}
