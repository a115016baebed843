package env

import (
	"strings"
	"testing"
	"time"
)

type fixedClock struct {
	now time.Time
}

func (c *fixedClock) Now() time.Time { return c.now }

func (c *fixedClock) NewTimer(func()) Timer { return nopTimer{} }

func (c *fixedClock) AfterFunc(time.Duration, func()) Timer { return nopTimer{} }

type nopTimer struct{}

func (nopTimer) Stop() bool { return false }

func (nopTimer) Reset(time.Duration) {}

func TestNopLoggerDiscards(t *testing.T) {
	NopLogger{}.Logf("anything %d", 42) // must not panic
}

func TestPrefixLoggerStampsElapsedTime(t *testing.T) {
	clock := &fixedClock{now: time.Unix(1000, 0)}
	var buf strings.Builder
	l := NewPrefixLogger(&buf, clock, "node-a")
	clock.now = clock.now.Add(1500 * time.Millisecond)
	l.Logf("hello %s", "world")
	out := buf.String()
	if !strings.Contains(out, "1.5s") {
		t.Fatalf("missing elapsed stamp: %q", out)
	}
	if !strings.Contains(out, "node-a") || !strings.Contains(out, "hello world") {
		t.Fatalf("log line = %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("log line not newline-terminated")
	}
}

func TestPrefixLoggerMultipleLines(t *testing.T) {
	clock := &fixedClock{now: time.Unix(0, 0)}
	var buf strings.Builder
	l := NewPrefixLogger(&buf, clock, "x")
	l.Logf("one")
	l.Logf("two")
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("%d lines, want 2", got)
	}
}
