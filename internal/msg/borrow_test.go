package msg

import (
	"bytes"
	"reflect"
	"testing"
)

// payloads returns every []byte field of a decoded message, for the
// five kinds that have any (TestBorrowsNamesThePayloadKinds checks that
// there are no others).
func payloads(m Message) [][]byte {
	var out [][]byte
	pushes := func(ps []PushedDiff) {
		for _, pd := range ps {
			out = append(out, pd.Diff)
		}
	}
	switch v := m.(type) {
	case *PageReply:
		out = append(out, v.Data)
	case *DiffReply:
		out = append(out, v.Diffs...)
	case *DiffBatchReply:
		for _, pd := range v.Pages {
			out = append(out, pd.Diffs...)
		}
	case *BarrierRelease:
		pushes(v.Push)
		for _, np := range v.Relay {
			pushes(np.Push)
		}
	case *ReplicaDelta:
		out = append(out, v.Diffs...)
	}
	return out
}

// payloadMessages carries a distinct, findable payload in every byte
// field of every payload-carrying kind (plus a nil diff where the format
// has the absent marker).
func payloadMessages() []Message {
	mark := func(tag byte) []byte { return []byte{0xA0, tag, 0xA1, tag, 0xA2, tag, 0xA3, tag} }
	return []Message{
		&PageReply{Page: 3, Data: mark(1), AppliedVT: []int32{1, 2}},
		&DiffReply{Page: 3, Diffs: [][]byte{mark(2), nil, mark(3)}},
		&DiffBatchReply{Pages: []PageDiffs{
			{Page: 1, Diffs: [][]byte{mark(4), nil}},
			{Page: 2, Diffs: [][]byte{mark(5)}},
		}},
		&BarrierRelease{Episode: 1, Lam: 2,
			Notices: []Notice{{Page: 1, Writer: 1, Interval: 1, Lam: 1}},
			Push:    []PushedDiff{{Page: 1, Writer: 1, Interval: 1, Diff: mark(6)}},
			Relay: []NodePush{{Node: 2, Push: []PushedDiff{
				{Page: 1, Writer: 1, Interval: 1, Diff: mark(7)},
				{Page: 2, Writer: 0, Interval: 3, Diff: mark(8)},
			}}}},
		&ReplicaDelta{Origin: 1, Seq: 1, Interval: 2, Lam: 3,
			Notices: []Notice{{Page: 1, Writer: 1, Interval: 2, Lam: 3}, {Page: 2, Writer: 1, Interval: 2, Lam: 3}},
			Diffs:   [][]byte{mark(9), nil},
			Known:   []Notice{{Page: 0, Writer: 2, Interval: 1, Lam: 2}}},
	}
}

// TestDecodeBorrows pins the decoder's ownership contract: every byte
// field of a decoded message is a view of the input buffer, at the
// offset its bytes were encoded at, with no capacity beyond its length.
func TestDecodeBorrows(t *testing.T) {
	for _, m := range payloadMessages() {
		buf := Encode(m)
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		want, have := payloads(m), payloads(got)
		if len(have) != len(want) || len(have) == 0 {
			t.Fatalf("%T: %d payloads decoded, want %d", m, len(have), len(want))
		}
		for i, p := range have {
			if want[i] == nil {
				if p != nil {
					t.Errorf("%T payload %d: absent diff decoded as %v", m, i, p)
				}
				continue
			}
			off := bytes.Index(buf, want[i])
			if off < 0 || !bytes.Equal(p, want[i]) {
				t.Fatalf("%T payload %d: decoded %v, want %v", m, i, p, want[i])
			}
			if &p[0] != &buf[off] {
				t.Errorf("%T payload %d: a copy, not a view of the input at %d", m, i, off)
			}
			if cap(p) != len(p) {
				t.Errorf("%T payload %d: cap %d beyond len %d — an append would write into the frame", m, i, cap(p), len(p))
			}
		}
		// The contract's other half: the frame is the payload. Scribble
		// on it and the message changes with it.
		for i := range buf {
			buf[i] = poisonByte
		}
		for i, p := range have {
			if p != nil && p[0] != poisonByte {
				t.Errorf("%T payload %d: survived a scribble on its frame", m, i)
			}
		}
	}
}

// hasByteFields reports whether a value of type t can hold a []byte,
// at any depth.
func hasByteFields(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer:
		return hasByteFields(t.Elem())
	case reflect.Slice:
		return t.Elem().Kind() == reflect.Uint8 || hasByteFields(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasByteFields(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestBorrowsNamesThePayloadKinds keeps Kind.Borrows and the message
// definitions in step: a kind borrows exactly when its message type has
// a byte field, and payloadMessages covers exactly those kinds.
func TestBorrowsNamesThePayloadKinds(t *testing.T) {
	covered := map[Kind]bool{}
	for _, m := range payloadMessages() {
		covered[m.Kind()] = true
	}
	for k := Kind(1); int(k) < KindCount; k++ {
		has := hasByteFields(reflect.TypeOf(buildFuzzMessage(k, 1, 2, nil)))
		if k.Borrows() != has {
			t.Errorf("%v: Borrows() = %v, message type has byte fields = %v", k, k.Borrows(), has)
		}
		if covered[k] != has {
			t.Errorf("%v: has byte fields = %v, covered by payloadMessages = %v", k, has, covered[k])
		}
	}
}

// TestNoticeRecycleRoundTrip pins the notice pool's contract: a list
// returned with PutNotices reads as poison in race builds (and untouched
// otherwise), and a later decode that draws it from the pool holds
// exactly the notices it decoded — never a tail of the earlier list.
func TestNoticeRecycleRoundTrip(t *testing.T) {
	notices := func(n int, base int32) []Notice {
		out := make([]Notice, n)
		for i := range out {
			v := base + int32(i)
			out[i] = Notice{Page: v, Writer: v % 4, Interval: v + 1, Lam: v + 2}
		}
		return out
	}
	decodeGrant := func(ns []Notice) *LockGrant {
		t.Helper()
		m, err := Decode(Encode(&LockGrant{Lock: 1, Lam: 2, Pos: 3, Holder: -1, Notices: ns}))
		if err != nil {
			t.Fatal(err)
		}
		return m.(*LockGrant)
	}
	first := decodeGrant(notices(9, 100))
	if !reflect.DeepEqual(first.Notices, notices(9, 100)) {
		t.Fatalf("first grant decoded %v", first.Notices)
	}
	stale := first.Notices[:cap(first.Notices)]
	PutNotices(first.Notices)
	for i, nt := range stale {
		want := notices(9, 100)
		if poisonOnPut {
			if nt != poisonNotice {
				t.Fatalf("notice %d after PutNotices = %+v, want poison", i, nt)
			}
		} else if i < len(want) && nt != want[i] {
			t.Fatalf("notice %d after PutNotices = %+v, want it untouched", i, nt)
		}
	}
	second := decodeGrant(notices(2, 500))
	if !reflect.DeepEqual(second.Notices, notices(2, 500)) {
		t.Fatalf("second grant decoded %+v, want exactly the 2 encoded notices", second.Notices)
	}
}

// TestPutBufPoison pins the race-build switch: PutBuf fills the whole
// capacity with poisonByte exactly when poisonOnPut is set.
func TestPutBufPoison(t *testing.T) {
	b := make([]byte, 8, 32)
	full := b[:cap(b)]
	for i := range full {
		full[i] = 7
	}
	PutBuf(b)
	for i, v := range full {
		want := byte(7)
		if poisonOnPut {
			want = poisonByte
		}
		if v != want {
			t.Fatalf("byte %d after PutBuf = %#x, want %#x (poisonOnPut %v)", i, v, want, poisonOnPut)
		}
	}
}
