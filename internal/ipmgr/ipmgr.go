// Package ipmgr implements the IP-address control mechanism of the
// Wackamole architecture (Figure 1 of the paper): acquiring and releasing
// virtual IP addresses on the local machine, behind a platform-specific
// backend. The paper's implementation carries per-OS code for FreeBSD,
// Linux and Solaris; here the backends are a simulated NIC (for the
// deterministic testbed), an exec backend that shells out to `ip addr`
// (dry-run by default), and a fake for tests.
package ipmgr

import (
	"fmt"
	"net/netip"

	"wackamole/internal/env"
)

// Backend performs the platform-specific address manipulation.
type Backend interface {
	// Acquire configures a on the local machine.
	Acquire(a netip.Addr) error
	// Release removes a from the local machine.
	Release(a netip.Addr) error
}

// Manager tracks the set of virtual addresses this node holds and makes
// acquire/release idempotent over a Backend.
type Manager struct {
	backend Backend
	held    map[netip.Addr]bool
}

// New returns a Manager over backend.
func New(backend Backend) *Manager {
	return &Manager{backend: backend, held: map[netip.Addr]bool{}}
}

// Acquire configures a locally. Acquiring an address already held is a
// no-op.
func (m *Manager) Acquire(a netip.Addr) error {
	if m.held[a] {
		return nil
	}
	if err := m.backend.Acquire(a); err != nil {
		return fmt.Errorf("ipmgr: acquire %v: %w", a, err)
	}
	m.held[a] = true
	return nil
}

// Release removes a locally. Releasing an address not held is a no-op.
func (m *Manager) Release(a netip.Addr) error {
	if !m.held[a] {
		return nil
	}
	if err := m.backend.Release(a); err != nil {
		return fmt.Errorf("ipmgr: release %v: %w", a, err)
	}
	delete(m.held, a)
	return nil
}

// LoggingBackend wraps another backend, logging every operation. Useful for
// observing a dry run of the real daemon.
type LoggingBackend struct {
	Inner Backend
	Log   env.Logger
}

// Acquire implements Backend.
func (b *LoggingBackend) Acquire(a netip.Addr) error {
	err := b.Inner.Acquire(a)
	if err != nil {
		b.Log.Logf("ipmgr: acquire %v failed: %v", a, err)
	} else {
		b.Log.Logf("ipmgr: acquired %v", a)
	}
	return err
}

// Release implements Backend.
func (b *LoggingBackend) Release(a netip.Addr) error {
	err := b.Inner.Release(a)
	if err != nil {
		b.Log.Logf("ipmgr: release %v failed: %v", a, err)
	} else {
		b.Log.Logf("ipmgr: released %v", a)
	}
	return err
}

var _ Backend = (*LoggingBackend)(nil)
