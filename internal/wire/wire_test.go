package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(64)
	w.U8(0xAB)
	w.U16(0xCDEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.Bool(true)
	w.Bool(false)

	r := NewReader(w.Bytes())
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xCDEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done() = %v", err)
	}
}

func TestRoundTripStringsAndLists(t *testing.T) {
	w := NewWriter(0)
	w.String("wackamole")
	w.String("")
	w.StringList([]string{"a", "bb", "ccc"})
	w.StringList(nil)
	w.U64List([]uint64{7, 0, 1 << 62})
	w.Bytes16([]byte{1, 2, 3})

	r := NewReader(w.Bytes())
	if got := r.String(); got != "wackamole" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	ss := r.StringList()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "bb" || ss[2] != "ccc" {
		t.Errorf("StringList = %v", ss)
	}
	if got := r.StringList(); len(got) != 0 {
		t.Errorf("nil StringList = %v", got)
	}
	vs := r.U64List()
	if len(vs) != 3 || vs[0] != 7 || vs[1] != 0 || vs[2] != 1<<62 {
		t.Errorf("U64List = %v", vs)
	}
	if got := r.View16(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("View16 = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done() = %v", err)
	}
}

func TestBigEndianOnWire(t *testing.T) {
	w := NewWriter(0)
	w.U32(0x01020304)
	if got := w.Bytes(); !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("wire bytes = %v, want big-endian 1 2 3 4", got)
	}
}

func TestTruncatedReads(t *testing.T) {
	r := NewReader([]byte{0x01})
	if got := r.U32(); got != 0 {
		t.Errorf("truncated U32 = %d, want 0", got)
	}
	if !errors.Is(r.Err(), errTruncated) {
		t.Fatalf("Err() = %v, want errTruncated", r.Err())
	}
	// Subsequent reads keep returning zero values without panicking.
	if got := r.String(); got != "" {
		t.Errorf("read after error = %q, want empty", got)
	}
	if r.U64List() != nil {
		t.Error("U64List after error should be nil")
	}
}

func TestTruncatedStringBody(t *testing.T) {
	w := NewWriter(0)
	w.String("hello")
	buf := w.Bytes()[:4] // cut into the string body
	r := NewReader(buf)
	if got := r.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if !errors.Is(r.Err(), errTruncated) {
		t.Fatalf("Err() = %v, want errTruncated", r.Err())
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	if err := r.Done(); err == nil {
		t.Fatal("Done() = nil with trailing bytes")
	}
}

func TestIntoAppendsInPlace(t *testing.T) {
	storage := make([]byte, 1, 16)
	storage[0] = 7
	w := Into(storage)
	w.String("ab")
	got := w.Bytes()
	if string(got) != "\x07\x00\x02ab" {
		t.Fatalf("Into wrote % x, want 07 00 02 61 62", got)
	}
	if &got[0] != &storage[0] {
		t.Fatal("Into did not write into the caller's storage")
	}
}

func TestOversizedFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes16 with oversized input did not panic")
		}
	}()
	NewWriter(0).Bytes16(make([]byte, MaxStringLen+1))
}

func TestQuickStringListRoundTrip(t *testing.T) {
	prop := func(ss []string) bool {
		for _, s := range ss {
			if len(s) > MaxStringLen {
				return true // skip: writer would panic by design
			}
		}
		if len(ss) > MaxStringLen {
			return true
		}
		w := NewWriter(0)
		w.StringList(ss)
		r := NewReader(w.Bytes())
		got := r.StringList()
		if r.Done() != nil || len(got) != len(ss) {
			return false
		}
		for i := range ss {
			if got[i] != ss[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickU64RoundTrip(t *testing.T) {
	prop := func(vs []uint64) bool {
		if len(vs) > MaxStringLen {
			return true
		}
		w := NewWriter(0)
		w.U64List(vs)
		r := NewReader(w.Bytes())
		got := r.U64List()
		if r.Done() != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if got[i] != vs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReaderNeverPanics feeds random bytes through every decoder; the
// reader must fail gracefully rather than panic on any input.
func TestQuickReaderNeverPanics(t *testing.T) {
	prop := func(buf []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := NewReader(buf)
		_ = r.U8()
		_ = r.U16()
		_ = r.String()
		_ = r.StringList()
		_ = r.U64List()
		_ = r.View16()
		_ = r.Err()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

// allocatedBy reports the bytes f allocates. The count-bomb tests here and
// beside the core and gcs decoders share its shape: a list count is the
// sender's to forge, and rejecting it has to cost less than believing it. It
// is the least of five runs, because TotalAlloc is the whole process's and the
// runtime's own goroutines only ever add to it.
func allocatedBy(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestListCountIsCheckedAgainstTheBuffer hands both list readers a two-byte
// buffer claiming 65 535 entries. Reserving for the count would cost 1 MiB
// and 512 KiB; the count is checked against the bytes left first.
func TestListCountIsCheckedAgainstTheBuffer(t *testing.T) {
	bomb := []byte{0xff, 0xff}
	for name, read := range map[string]func(*Reader){
		"StringList": func(r *Reader) { _ = r.StringList() },
		"U64List":    func(r *Reader) { _ = r.U64List() },
	} {
		var err error
		if n := allocatedBy(func() {
			r := NewReader(bomb)
			read(r)
			err = r.Done()
		}); n > 4<<10 {
			t.Errorf("%s: rejecting a forged count allocated %d bytes", name, n)
		}
		if !errors.Is(err, errTruncated) {
			t.Errorf("%s: forged count gives %v, want errTruncated", name, err)
		}
	}
	// A count the buffer can hold still reads, and stops at the first error.
	w := NewWriter(0)
	w.StringList([]string{"a", "bc"})
	if got := NewReader(w.Bytes()).StringList(); len(got) != 2 || got[1] != "bc" {
		t.Fatalf("StringList = %q", got)
	}
	r := NewReader([]byte{0, 2, 0, 1, 'a', 0, 9})
	if got := r.StringList(); got != nil || !errors.Is(r.Err(), errTruncated) {
		t.Fatalf("truncated second entry reads %q, %v", got, r.Err())
	}
	r = NewReader([]byte{0, 3, 0, 0})
	if n := r.Count16(2); n != 0 || !errors.Is(r.Err(), errTruncated) {
		t.Fatalf("Count16 of 3 two-byte entries over 2 bytes = %d, %v", n, r.Err())
	}
}
