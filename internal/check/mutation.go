package check

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"wackamole/internal/ipmgr"
)

// Mutation deliberately breaks one node's behaviour so the oracles can be
// validated against known-bad implementations (the checker's own mutation
// tests). Mutations live entirely in the checker: the production path is
// untouched, only the simulated cluster wiring is decorated.
type Mutation interface {
	// String returns the parseable form ("keep-on-release:2"); artifacts
	// record it so replays reproduce the mutated run.
	String() string
	// wrap decorates server i's address backend.
	wrap(i int, b ipmgr.Backend) ipmgr.Backend
}

// keepOnRelease is a mutation under which the given server silently
// ignores every address release: the engine believes the balance or
// conflict-resolution release succeeded, but the interface keeps answering
// for the address. This breaks the paper's balance rule in exactly the way
// a buggy per-OS ifconfig layer would, and must be caught by the
// exactly-once oracle.
type keepOnRelease struct{ server int }

func (m keepOnRelease) String() string { return fmt.Sprintf("keep-on-release:%d", m.server) }

func (m keepOnRelease) wrap(i int, b ipmgr.Backend) ipmgr.Backend {
	if i != m.server {
		return b
	}
	return keepBackend{inner: b}
}

type keepBackend struct{ inner ipmgr.Backend }

func (k keepBackend) Acquire(a netip.Addr) error { return k.inner.Acquire(a) }
func (k keepBackend) Release(netip.Addr) error   { return nil }

// ParseMutation parses the String form of a mutation; the empty string
// parses to nil (no mutation).
func ParseMutation(s string) (Mutation, error) {
	if s == "" {
		return nil, nil
	}
	name, arg, _ := strings.Cut(s, ":")
	switch name {
	case "keep-on-release":
		i, err := strconv.Atoi(arg)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("check: mutation %q needs a server index", s)
		}
		return keepOnRelease{server: i}, nil
	default:
		return nil, fmt.Errorf("check: unknown mutation %q", s)
	}
}
