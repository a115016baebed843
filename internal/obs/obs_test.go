package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedNow returns a deterministic, strictly increasing clock for tests.
func fixedNow() func() time.Time {
	t := time.Date(2003, 6, 22, 0, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestEmitAssignsSequenceAndTimestamp(t *testing.T) {
	tr := New(8, fixedNow())
	tr.Emit(Event{Source: SourceGCS, Kind: KindInstall, Node: "d1"})
	tr.Emit(Event{Source: SourceCore, Kind: KindAcquire, Node: "d2", Addr: "10.0.0.1"})
	got := tr.Snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot length = %d, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("seqs = %d,%d, want 1,2", got[0].Seq, got[1].Seq)
	}
	if got[0].At.IsZero() || !got[1].At.After(got[0].At) {
		t.Fatalf("timestamps not stamped monotonically: %v, %v", got[0].At, got[1].At)
	}
	// A pre-stamped timestamp is preserved.
	at := time.Date(2003, 6, 22, 1, 0, 0, 0, time.UTC)
	tr.Emit(Event{Kind: KindFault, At: at})
	if got := tr.Snapshot(); !got[2].At.Equal(at) {
		t.Fatalf("explicit At overwritten: %v", got[2].At)
	}
}

func TestRingWraparoundKeepsNewestInOrder(t *testing.T) {
	const capacity, emitted = 4, 10
	tr := New(capacity, fixedNow())
	for i := 0; i < emitted; i++ {
		tr.Emit(Event{Kind: KindHeartbeatMiss, Detail: fmt.Sprintf("e%d", i)})
	}
	if tr.Len() != capacity {
		t.Fatalf("Len = %d, want %d", tr.Len(), capacity)
	}
	if tr.Emitted() != emitted {
		t.Fatalf("Emitted = %d, want %d", tr.Emitted(), emitted)
	}
	if tr.Dropped() != emitted-capacity {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped(), emitted-capacity)
	}
	got := tr.Snapshot()
	for i, e := range got {
		wantSeq := uint64(emitted - capacity + i + 1)
		if e.Seq != wantSeq {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first after wrap)", i, e.Seq, wantSeq)
		}
	}
}

func TestNilTracerIsDisabledNoop(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetNow(time.Now) // must not panic
	tr.Emit(Event{Kind: KindFault})
	if tr.Snapshot() != nil || tr.Len() != 0 || tr.Emitted() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer recorded something")
	}
	// The disabled hot path must not allocate: protocol code calls Emit
	// unconditionally on every protocol step and frame drop.
	ev := Event{Source: SourceGCS, Kind: KindHeartbeatMiss, Node: "d1"}
	if allocs := testing.AllocsPerRun(100, func() { tr.Emit(ev) }); allocs != 0 {
		t.Fatalf("disabled Emit allocates %v per call, want 0", allocs)
	}
}

func TestConcurrentEmitAndSnapshot(t *testing.T) {
	const goroutines, perG = 8, 500
	tr := New(goroutines*perG, nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{Kind: KindHeartbeatMiss, Node: fmt.Sprintf("d%d", g)})
			}
		}(g)
	}
	// Snapshot and counter reads race with the emitters; -race checks them.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = tr.Snapshot()
			_ = tr.Len()
			_ = tr.Dropped()
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Emitted(); got != goroutines*perG {
		t.Fatalf("Emitted = %d, want %d", got, goroutines*perG)
	}
	seen := map[uint64]bool{}
	for _, e := range tr.Snapshot() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("snapshot holds %d distinct seqs, want %d", len(seen), goroutines*perG)
	}
}

func TestDefaultCapacityAndClock(t *testing.T) {
	tr := New(0, nil)
	tr.Emit(Event{Kind: KindFault})
	got := tr.Snapshot()
	if len(got) != 1 || got[0].At.IsZero() {
		t.Fatalf("defaulted tracer did not stamp wall time: %+v", got)
	}
	for i := 0; i < defaultCapacity; i++ {
		tr.Emit(Event{Kind: KindHeartbeatMiss})
	}
	if tr.Len() != defaultCapacity || tr.Dropped() != 1 {
		t.Fatalf("default capacity ring: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	events := []Event{
		{Seq: 1, At: time.Date(2003, 6, 22, 0, 0, 1, 500, time.UTC),
			Source: SourceNet, Kind: KindFault, Node: "server2", Detail: "nic0"},
		{Seq: 2, At: time.Date(2003, 6, 22, 0, 0, 2, 0, time.UTC),
			Source: SourceCore, Kind: KindAcquire, Node: "d3/wackd", Group: "web1", Addr: "10.0.0.100"},
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got != events[i] {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, events[i])
		}
	}
	// Empty optional fields are elided from the wire shape.
	if strings.Contains(lines[0], "addr") || strings.Contains(lines[0], "group") {
		t.Fatalf("empty fields not elided: %s", lines[0])
	}
}

func TestUnmarshalUnknownEnumsDecodeToZero(t *testing.T) {
	var e Event
	line := `{"seq":9,"at":"2003-06-22T00:00:00Z","source":"quantum","kind":"teleport","node":"d1"}`
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatal(err)
	}
	if e.Source != 0 || e.Kind != 0 {
		t.Fatalf("unknown enums decoded to %v/%v, want zero values", e.Source, e.Kind)
	}
	if e.Seq != 9 || e.Node != "d1" {
		t.Fatalf("known fields lost: %+v", e)
	}
	if err := json.Unmarshal([]byte(`{"seq":1,"at":"not-a-time"}`), &e); err == nil {
		t.Fatal("bad timestamp accepted")
	}
}

func TestEnumStringsAreDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindHeartbeatMiss; k <= KindPhiClear; k++ {
		s := k.String()
		if strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, s)
		}
		seen[s] = k
	}
	if Source(99).String() == SourceGCS.String() {
		t.Fatal("out-of-range source collides with a named one")
	}
}

// seqs lists the sequence numbers of evs.
func seqs(evs []Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

// span returns the sequence numbers from..to inclusive.
func span(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s <= to; s++ {
		out = append(out, s)
	}
	return out
}

func TestSnapshotIsUnchangedByLaterWrappingEmits(t *testing.T) {
	const capacity = 8
	for _, before := range []int{capacity, capacity + 3, 3*capacity - 1} {
		tr := New(capacity, fixedNow())
		for i := 0; i < before; i++ {
			tr.Emit(Event{Kind: KindHeartbeatMiss})
		}
		snap := tr.Snapshot()
		want := span(uint64(before-capacity+1), uint64(before))
		if got := seqs(snap); !slices.Equal(got, want) {
			t.Fatalf("%d emitted: snapshot seqs %v, want %v (oldest first)", before, got, want)
		}
		// Wrap the ring twice more: every slot the snapshot holds is written.
		for i := 0; i < 2*capacity+1; i++ {
			tr.Emit(Event{Kind: KindFault})
		}
		if got := seqs(snap); !slices.Equal(got, want) {
			t.Fatalf("%d emitted: snapshot changed to %v by later Emits, want %v", before, got, want)
		}
		for _, e := range snap {
			if e.Kind != KindHeartbeatMiss {
				t.Fatalf("%d emitted: snapshot slot overwritten by %v", before, e.Kind)
			}
		}
		total := uint64(before + 2*capacity + 1)
		if got := seqs(tr.Snapshot()); !slices.Equal(got, span(total-capacity+1, total)) {
			t.Fatalf("%d emitted: later snapshot seqs %v, want the newest %d", before, got, capacity)
		}
	}
}

// TestSnapshotMatchesCopyingModel drives a tracer and a copying reference
// model through the same random Emit/Snapshot sequence: every snapshot
// equals the model's when it is taken and still does at the end, after the
// Emits that followed it, and Len, Emitted and Dropped agree throughout.
func TestSnapshotMatchesCopyingModel(t *testing.T) {
	const capacity = 6
	rng := rand.New(rand.NewSource(1))
	tr := New(capacity, fixedNow())
	var model []uint64 // live seqs, oldest first
	var emitted uint64
	type taken struct {
		snap []Event
		want []uint64
	}
	var snaps []taken
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(10); {
		case r < 7:
			tr.Emit(Event{Kind: KindHeartbeatMiss})
			emitted++
			model = append(model, emitted)
			if len(model) > capacity {
				model = model[1:]
			}
		default:
			s := taken{tr.Snapshot(), slices.Clone(model)}
			if got := seqs(s.snap); !slices.Equal(got, s.want) {
				t.Fatalf("step %d: snapshot %v, want %v", step, got, s.want)
			}
			snaps = append(snaps, s)
		}
		if tr.Len() != len(model) || tr.Emitted() != emitted || tr.Dropped() != emitted-uint64(len(model)) {
			t.Fatalf("step %d: Len/Emitted/Dropped = %d/%d/%d, want %d/%d/%d", step,
				tr.Len(), tr.Emitted(), tr.Dropped(), len(model), emitted, emitted-uint64(len(model)))
		}
	}
	for i, s := range snaps {
		if got := seqs(s.snap); !slices.Equal(got, s.want) {
			t.Fatalf("snapshot %d changed: %v, want %v", i, got, s.want)
		}
	}
}

func TestSnapshotOfFullRingAllocatesNothing(t *testing.T) {
	tr := New(1024, fixedNow())
	for i := 0; i < 1500; i++ {
		tr.Emit(Event{Kind: KindHeartbeatMiss})
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tr.Snapshot() }); allocs != 0 {
		t.Fatalf("Snapshot of a full ring allocates %v per call, want 0", allocs)
	}
}

// emitN emits n events of kind k.
func emitN(tr *Tracer, n int, k Kind) {
	for i := 0; i < n; i++ {
		tr.Emit(Event{Kind: k})
	}
}

// TestRingGrowsAsItIsFilled: a new tracer holds no ring, and the ring grows
// with what is emitted until it holds capacity events.
func TestRingGrowsAsItIsFilled(t *testing.T) {
	const capacity = 1000
	tr := New(capacity, fixedNow())
	if tr.buf != nil {
		t.Fatalf("New allocated a ring of %d slots, want none", cap(tr.buf))
	}
	emitN(tr, capacity/4, KindInstall)
	if len(tr.buf) != capacity/4 || cap(tr.buf) >= capacity/2 {
		t.Fatalf("%d emitted: ring len %d cap %d, want it grown to about what it holds", capacity/4, len(tr.buf), cap(tr.buf))
	}
	emitN(tr, capacity, KindInstall)
	if tr.Len() != capacity || tr.Dropped() != capacity/4 {
		t.Fatalf("%d emitted: Len %d Dropped %d, want the ring full at its bound", capacity+capacity/4, tr.Len(), tr.Dropped())
	}
}

// TestSnapshotWhileGrowing: a ring that has not filled is handed over, not
// copied, and the snapshot holds exactly the live events.
func TestSnapshotWhileGrowing(t *testing.T) {
	tr := New(64, fixedNow())
	emitN(tr, 5, KindInstall)
	snap := tr.Snapshot()
	if got := seqs(snap); !slices.Equal(got, span(1, 5)) || cap(snap) != 5 {
		t.Fatalf("snapshot seqs %v cap %d, want 1..5 capped at its length", got, cap(snap))
	}
	if &snap[0] != &tr.buf[0] {
		t.Fatal("snapshot of a growing ring is a copy, want the ring handed over")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tr.Snapshot() }); allocs != 0 {
		t.Fatalf("Snapshot of a growing ring allocates %v per call, want 0", allocs)
	}
}

// TestGrowthAfterSnapshot: the ring goes on growing after a snapshot, in
// place and by moving, and the snapshot does not change.
func TestGrowthAfterSnapshot(t *testing.T) {
	tr := New(64, fixedNow())
	emitN(tr, 5, KindInstall)
	snap := tr.Snapshot()
	emitN(tr, 40, KindFault) // the first few fit where the ring is, the rest move it
	if got := seqs(snap); !slices.Equal(got, span(1, 5)) {
		t.Fatalf("snapshot changed to %v by later Emits, want 1..5", got)
	}
	for _, e := range snap {
		if e.Kind != KindInstall {
			t.Fatalf("snapshot slot overwritten by %v", e.Kind)
		}
	}
	if got := seqs(tr.Snapshot()); !slices.Equal(got, span(1, 45)) {
		t.Fatalf("later snapshot seqs %v, want 1..45", got)
	}
}

// TestWrapAfterSnapshotOfGrowingRing: a snapshot taken before the ring
// filled shares its array with the appends that fill it, so the first
// overwrite must clone rather than write a slot the snapshot holds.
func TestWrapAfterSnapshotOfGrowingRing(t *testing.T) {
	const capacity = 6 // an append grows the array to 8, so the 6th event is written in place
	tr := New(capacity, fixedNow())
	emitN(tr, 5, KindInstall)
	snap := tr.Snapshot()
	emitN(tr, 1, KindInstall)
	if cap(tr.buf) <= 5 || &tr.buf[0] != &snap[0] {
		t.Fatalf("ring moved on the 6th event (cap %d): the case under test needs it filled in place", cap(tr.buf))
	}
	emitN(tr, 2*capacity+1, KindFault)
	if got := seqs(snap); !slices.Equal(got, span(1, 5)) {
		t.Fatalf("snapshot changed to %v by the wrap, want 1..5", got)
	}
	for _, e := range snap {
		if e.Kind != KindInstall {
			t.Fatalf("snapshot slot overwritten by %v", e.Kind)
		}
	}
	total := uint64(6 + 2*capacity + 1)
	if got := seqs(tr.Snapshot()); !slices.Equal(got, span(total-capacity+1, total)) {
		t.Fatalf("later snapshot seqs %v, want the newest %d", got, capacity)
	}
}

// TestSnapshotsInARow: a second snapshot with nothing emitted between them
// is the same events on the same array, and later Emits change neither.
func TestSnapshotsInARow(t *testing.T) {
	for _, n := range []int{3, 8, 13} { // growing, just full, wrapped
		tr := New(8, fixedNow())
		emitN(tr, n, KindInstall)
		first, second := tr.Snapshot(), tr.Snapshot()
		want := seqs(first)
		if !slices.Equal(seqs(second), want) || &first[0] != &second[0] {
			t.Fatalf("%d emitted: snapshots %v and %v, want the same events on the same array", n, want, seqs(second))
		}
		emitN(tr, 17, KindFault)
		if !slices.Equal(seqs(first), want) || !slices.Equal(seqs(second), want) {
			t.Fatalf("%d emitted: snapshots changed to %v and %v, want %v", n, seqs(first), seqs(second), want)
		}
	}
}

// TestConcurrentSnapshotReadersAndWrappingEmit reads every snapshot while
// emitters keep wrapping a small ring; -race checks that no snapshot slot is
// written after it is handed out.
func TestConcurrentSnapshotReadersAndWrappingEmit(t *testing.T) {
	const goroutines, perG, capacity = 4, 2000, 64
	tr := New(capacity, nil)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(Event{Kind: KindHeartbeatMiss})
			}
		}()
	}
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < 200; i++ {
				snap := tr.Snapshot()
				for j := 1; j < len(snap); j++ {
					if snap[j].Seq != snap[j-1].Seq+1 {
						errs <- fmt.Errorf("snapshot not consecutive at %d: %d then %d", j, snap[j-1].Seq, snap[j].Seq)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
