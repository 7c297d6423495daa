package wire

import (
	"testing"
	"testing/quick"
)

func TestRoundTripInts(t *testing.T) {
	f := func(xs []int) bool {
		var w Writer
		w.Ints(xs)
		r := NewReader(w.Bytes())
		got := r.Ints()
		if r.Err() != nil {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripMixed(t *testing.T) {
	var w Writer
	w.Uint(0).Uint(1 << 60).Int(-5).Int(12345)
	r := NewReader(w.Bytes())
	if r.Uint() != 0 || r.Uint() != 1<<60 || r.Int() != -5 || r.Int() != 12345 {
		t.Fatal("mixed round trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestTruncatedLatches(t *testing.T) {
	var w Writer
	w.Int(300)
	b := w.Bytes()
	r := NewReader(b[:len(b)-1])
	_ = r.Int()
	if r.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Latched: further reads return zero values with same error.
	if r.Int() != 0 || r.Uint() != 0 || r.Ints() != nil {
		t.Fatal("latched reader returned non-zero values")
	}
}

func TestIntsLengthLie(t *testing.T) {
	// A message claiming a huge slice length must fail cleanly, not allocate.
	var w Writer
	w.Uint(1 << 40)
	r := NewReader(w.Bytes())
	if got := r.Ints(); got != nil || r.Err() == nil {
		t.Fatal("absurd length accepted")
	}
}

func TestEncodeDecodeInts(t *testing.T) {
	b := EncodeInts(7, -3, 0, 1<<40)
	got, err := DecodeInts(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{7, -3, 0, 1 << 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if _, err := DecodeInts(b, 5); err == nil {
		t.Fatal("over-read should fail")
	}
}

func TestDecodeInt(t *testing.T) {
	for _, x := range []int{0, 7, -3, 1 << 40, -1 << 62} {
		got, err := DecodeInt(EncodeInts(x, 99)) // trailing value ignored
		if err != nil || got != x {
			t.Fatalf("DecodeInt(%d) = %d, %v", x, got, err)
		}
	}
	if _, err := DecodeInt(nil); err != ErrTruncated {
		t.Fatalf("empty message: err %v, want ErrTruncated", err)
	}
	msg := EncodeInts(-5)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = DecodeInt(msg) }); allocs != 0 {
		t.Fatalf("DecodeInt allocates %v times", allocs)
	}
}

func TestRawRoundTrip(t *testing.T) {
	var w Writer
	w.Int(7).Raw([]byte{0xde, 0xad}).Raw(nil).Int(9)
	if w.Len() != len(w.Bytes()) {
		t.Fatal("Len disagrees with Bytes")
	}
	r := NewReader(w.Bytes())
	if r.Int() != 7 {
		t.Fatal("prefix lost")
	}
	raw := r.Raw()
	if len(raw) != 2 || raw[0] != 0xde || raw[1] != 0xad {
		t.Fatalf("raw = %x", raw)
	}
	if empty := r.Raw(); len(empty) != 0 {
		t.Fatalf("empty raw = %x", empty)
	}
	if r.Int() != 9 || r.Err() != nil || r.Remaining() != 0 {
		t.Fatal("suffix lost")
	}
}

func TestRawTruncated(t *testing.T) {
	var w Writer
	w.Raw([]byte{1, 2, 3, 4})
	b := w.Bytes()
	r := NewReader(b[:2])
	if r.Raw() != nil || r.Err() == nil {
		t.Fatal("truncated raw accepted")
	}
}

func TestSmallMessagesAreSmall(t *testing.T) {
	// An O(log n) message: a color below 2^20 fits in 3 bytes.
	b := EncodeInts(1 << 19)
	if len(b) > 3 {
		t.Fatalf("20-bit value took %d bytes", len(b))
	}
}

func TestRoundTripString(t *testing.T) {
	f := func(a, b string, x int) bool {
		var w Writer
		w.String(a).Int(x).String(b)
		r := NewReader(w.Bytes())
		if r.ReadString() != a || r.Int() != x || r.ReadString() != b {
			return false
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	r := NewReader([]byte{0x05, 'a', 'b'})
	if r.ReadString() != "" || r.Err() == nil {
		t.Fatal("truncated string must latch an error")
	}
}

// TestLenMatchesWriter: the *Len accounting helpers report exactly the bytes
// the corresponding Writer methods append, across the varint width
// boundaries, the sign fold, and the empty/long-slice cases.
func TestLenMatchesWriter(t *testing.T) {
	uints := []uint64{0, 1, 127, 128, 16383, 16384, 1 << 21, 1<<42 + 5, 1<<63 - 1, 1<<64 - 1}
	for _, x := range uints {
		var w Writer
		w.Uint(x)
		if got, want := UintLen(x), len(w.Bytes()); got != want {
			t.Fatalf("UintLen(%d) = %d, Writer.Uint wrote %d", x, got, want)
		}
	}
	ints := []int{0, 1, -1, 63, 64, -64, -65, 8191, -8192, 1 << 30, -(1 << 30), int(1)<<62 - 1, -(int(1) << 62)}
	for _, x := range ints {
		var w Writer
		w.Int(x)
		if got, want := IntLen(x), len(w.Bytes()); got != want {
			t.Fatalf("IntLen(%d) = %d, Writer.Int wrote %d", x, got, want)
		}
	}
	slices := [][]int{
		nil,
		{},
		{0},
		{-1, 1, -128, 128},
		make([]int, 200), // length prefix crosses the one-byte varint boundary
		{1 << 40, -(1 << 40), 7, -7, 1<<62 - 1},
	}
	for _, xs := range slices {
		var w Writer
		w.Ints(xs)
		if got, want := IntsLen(xs), len(w.Bytes()); got != want {
			t.Fatalf("IntsLen(%v) = %d, Writer.Ints wrote %d", xs, got, want)
		}
	}
}
