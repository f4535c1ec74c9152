package msg

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"actdsm/internal/pool"
)

// TestReleasePoisons reads a released DiffBatchReply and a released
// LockGrant through the references a stale holder would keep. Every build
// finds the lists truncated and the diff views dropped; a race build finds
// the sentinel in every scalar and poison over every list's capacity — an
// impossible page, a malformed diff — instead of the decoded values.
func TestReleasePoisons(t *testing.T) {
	diff := []byte{0, 0, 4, 0, 1, 2, 3, 4}
	m, err := Decode(Encode(&DiffBatchReply{Pages: []PageDiffs{
		{Page: 3, Diffs: [][]byte{diff, nil}},
		{Page: 5, Diffs: [][]byte{diff}},
	}}))
	if err != nil {
		t.Fatal(err)
	}
	br := m.(*DiffBatchReply)
	pages := br.Pages
	Release(br)
	if len(br.Pages) != 0 {
		t.Errorf("released batch reply keeps %d pages", len(br.Pages))
	}
	for i, pd := range pages {
		diffs := pd.Diffs[:cap(pd.Diffs)]
		if pool.Race && pd.Page != poisoned {
			t.Errorf("released batch reply page %d names page %d, want the sentinel %d", i, pd.Page, poisoned)
		}
		if len(pd.Diffs) != 0 {
			t.Errorf("released batch reply page %d keeps %d diffs", i, len(pd.Diffs))
		}
		for j, df := range diffs {
			switch {
			case pool.Race && !bytes.Equal(df, poisonDiff):
				t.Errorf("released batch reply page %d diff %d = % x, want the poison run", i, j, df)
			case !pool.Race && df != nil:
				t.Errorf("released batch reply page %d diff %d still views % x", i, j, df)
			}
		}
	}

	m, err = Decode(Encode(&LockGrant{Lock: 7, Lam: 2, Pos: 9, Holder: 1,
		Notices: []Notice{{Page: 2, Writer: 0, Interval: 3, Lam: 6}}}))
	if err != nil {
		t.Fatal(err)
	}
	g := m.(*LockGrant)
	notices := g.Notices[:cap(g.Notices)]
	Release(g)
	if len(g.Notices) != 0 {
		t.Errorf("released grant keeps %d notices", len(g.Notices))
	}
	if !pool.Race {
		return
	}
	for _, v := range []int32{g.Lock, g.Lam, g.Pos, g.Holder} {
		if v != poisoned {
			t.Errorf("released grant %+v: want every scalar %d", *g, poisoned)
			break
		}
	}
	for i, nt := range notices {
		if nt != PoisonNotice {
			t.Errorf("released grant notice %d = %+v, want %+v", i, nt, PoisonNotice)
		}
	}
}

// everyKind holds one zero message of every kind, in Kind order.
var everyKind = []Message{
	&PageRequest{}, &PageReply{}, &DiffRequest{}, &DiffReply{},
	&BarrierEnter{}, &BarrierRelease{}, &LockAcquire{}, &LockGrant{},
	&LockRelease{}, &GCCollect{}, &Ack{}, &SWRead{}, &SWWrite{},
	&SWDowngrade{}, &SWFlush{}, &SWInvalidate{}, &DiffBatchRequest{},
	&DiffBatchReply{}, &LockPull{}, &ReplicaDelta{}, &RejoinRequest{},
	&RejoinReply{},
}

// newPooled calls New for every pooled kind, by Kind.
var newPooled = map[Kind]func() Message{
	KindPageRequest:      func() Message { return New[*PageRequest]() },
	KindPageReply:        func() Message { return New[*PageReply]() },
	KindDiffRequest:      func() Message { return New[*DiffRequest]() },
	KindDiffReply:        func() Message { return New[*DiffReply]() },
	KindDiffBatchRequest: func() Message { return New[*DiffBatchRequest]() },
	KindDiffBatchReply:   func() Message { return New[*DiffBatchReply]() },
	KindLockAcquire:      func() Message { return New[*LockAcquire]() },
	KindLockGrant:        func() Message { return New[*LockGrant]() },
	KindLockRelease:      func() Message { return New[*LockRelease]() },
	KindLockPull:         func() Message { return New[*LockPull]() },
	KindBarrierEnter:     func() Message { return New[*BarrierEnter]() },
	KindBarrierRelease:   func() Message { return New[*BarrierRelease]() },
	KindGCCollect:        func() Message { return New[*GCCollect]() },
}

// fill sets every int32 reachable from v to a distinct non-zero value
// and gives every list two elements, nested lists and byte views
// included. A field of any other type fails the test: the checks below
// would not see it.
func fill(t *testing.T, path string, v reflect.Value, next *int32) {
	t.Helper()
	switch {
	case v.Kind() == reflect.Int32:
		*next++
		v.SetInt(int64(*next))
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		*next++
		v.SetBytes([]byte{byte(*next), 0, 4, 0, 1, 2, 3, 4})
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := range 2 {
			fill(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), next)
		}
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			fill(t, path+"."+v.Type().Field(i).Name, v.Field(i), next)
		}
	default:
		t.Fatalf("%s: field of kind %v, which the kind checks do not cover", path, v.Kind())
	}
}

// capacities records the capacity of every list reachable from v, the
// elements past a list's length included, by path.
func capacities(path string, v reflect.Value, out map[string]int) {
	switch {
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		// A byte field is a view its owner recycles: nothing to keep.
	case v.Kind() == reflect.Slice:
		out[path] = v.Cap()
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := range all.Len() {
			capacities(fmt.Sprintf("%s[%d]", path, i), all.Index(i), out)
		}
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			capacities(path+"."+v.Type().Field(i).Name, v.Field(i), out)
		}
	}
}

// checkReleased reads a released message the way a stale holder would:
// every list is empty and every byte view dropped — a view inside a
// list's capacity replaced by the poison run in race builds — and race
// builds find the sentinel in every int32, out to the lists' capacity.
func checkReleased(t *testing.T, path string, v reflect.Value, inList bool) {
	t.Helper()
	switch {
	case v.Kind() == reflect.Int32:
		if pool.Race && v.Int() != poisoned {
			t.Errorf("released %s = %d, want the sentinel %d", path, v.Int(), poisoned)
		}
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		b := v.Bytes()
		if pool.Race && inList {
			if !bytes.Equal(b, poisonDiff) {
				t.Errorf("released %s = % x, want the poison run", path, b)
			}
		} else if b != nil {
			t.Errorf("released %s still views % x", path, b)
		}
	case v.Kind() == reflect.Slice:
		if v.Len() != 0 {
			t.Errorf("released %s keeps %d elements", path, v.Len())
		}
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := range all.Len() {
			checkReleased(t, fmt.Sprintf("%s[%d]", path, i), all.Index(i), true)
		}
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			checkReleased(t, path+"."+v.Type().Field(i).Name, v.Field(i), inList)
		}
	}
}

// checkFresh holds a message New handed out to zero scalars, empty lists
// and no byte views. When New handed back the very message released
// (same), every list it had, nested ones in the capacity included, must
// keep its capacity: that is what pooling the kind is for.
func checkFresh(t *testing.T, path string, v reflect.Value, caps map[string]int, same bool) {
	t.Helper()
	switch {
	case v.Kind() == reflect.Int32:
		if v.Int() != 0 {
			t.Errorf("New %s = %d, want 0", path, v.Int())
		}
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
		if v.Len() != 0 {
			t.Errorf("New %s views % x, want none", path, v.Bytes())
		}
	case v.Kind() == reflect.Slice:
		if v.Len() != 0 {
			t.Errorf("New %s has %d elements, want none", path, v.Len())
		}
		if !same {
			return
		}
		if v.Cap() < caps[path] {
			t.Errorf("New %s has capacity %d, want the %d its release kept", path, v.Cap(), caps[path])
		}
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := range all.Len() {
			keptCaps(t, fmt.Sprintf("%s[%d]", path, i), all.Index(i), caps)
		}
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			checkFresh(t, path+"."+v.Type().Field(i).Name, v.Field(i), caps, same)
		}
	}
}

// keptCaps holds the lists inside a kept list's capacity to the
// capacities they had before the release.
func keptCaps(t *testing.T, path string, v reflect.Value, caps map[string]int) {
	t.Helper()
	switch {
	case v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Uint8:
	case v.Kind() == reflect.Slice:
		if v.Cap() < caps[path] {
			t.Errorf("New %s has capacity %d, want the %d its release kept", path, v.Cap(), caps[path])
		}
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			keptCaps(t, path+"."+v.Type().Field(i).Name, v.Field(i), caps)
		}
	}
}

// TestEveryKindFilled fills every field of every kind through reflect,
// nested lists included, and round-trips it through Encode and Decode
// exactly. For every pooled kind it then releases the decoded message
// and checks it as a stale holder would see it (checkReleased), and
// checks what New hands out next (checkFresh). A field a release or a
// reset forgets fails here by its path.
func TestEveryKindFilled(t *testing.T) {
	if len(everyKind) != KindCount-1 {
		t.Fatalf("everyKind lists %d kinds, want %d", len(everyKind), KindCount-1)
	}
	pooledKinds := 0
	for i, zero := range everyKind {
		k := zero.Kind()
		if int(k) != i+1 {
			t.Fatalf("everyKind[%d] is %v, want kind %d", i, k, i+1)
		}
		_, isPooled := zero.(pooled)
		if isPooled != (newPooled[k] != nil) {
			t.Fatalf("%v: pooled %v, but newPooled names it %v", k, isPooled, newPooled[k] != nil)
		}
		if !isPooled {
			continue
		}
		pooledKinds++
	}
	if pooledKinds != len(newPooled) || pooledKinds != 13 {
		t.Fatalf("%d pooled kinds, want the 13 newPooled names", pooledKinds)
	}
	for _, zero := range everyKind {
		k := zero.Kind()
		t.Run(k.String(), func(t *testing.T) {
			m := reflect.New(reflect.TypeOf(zero).Elem())
			var next int32
			fill(t, k.String(), m.Elem(), &next)
			want := m.Interface().(Message)
			enc := Encode(want)
			got, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip:\n got %#v\nwant %#v", got, want)
			}
			if re := Encode(got); !bytes.Equal(re, enc) {
				t.Fatalf("re-encode diverged:\n got % x\nwant % x", re, enc)
			}
			mk := newPooled[k]
			if mk == nil {
				return
			}
			// Race builds' pools drop some puts: look a few times for New
			// to hand back the message just released.
			sameSeen := false
			for try := 0; try < 8 && !sameSeen; try++ {
				if try > 0 {
					if got, err = Decode(enc); err != nil {
						t.Fatal(err)
					}
				}
				caps := map[string]int{}
				capacities(k.String(), reflect.ValueOf(got).Elem(), caps)
				Release(got)
				checkReleased(t, k.String(), reflect.ValueOf(got).Elem(), false)
				fresh := mk()
				same := fresh == got
				sameSeen = sameSeen || same
				checkFresh(t, k.String(), reflect.ValueOf(fresh).Elem(), caps, same)
				Release(fresh)
				if t.Failed() {
					return
				}
			}
			if !sameSeen && !pool.Race {
				t.Errorf("New never handed back the %v just released", k)
			}
		})
	}
}

// TestDecodeReleaseZeroAlloc: on a warm pool, decoding a pooled kind and
// releasing it allocates nothing — the message and its lists come back
// whole, the barrier kinds' nested lists included — and neither does a
// sender's New and Release.
func TestDecodeReleaseZeroAlloc(t *testing.T) {
	if pool.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	diff := []byte{0, 0, 4, 0, 1, 2, 3, 4}
	ns := []Notice{{Page: 1, Writer: 2, Interval: 3, Lam: 4}, {Page: 1, Writer: 0, Interval: 2, Lam: 3}}
	for _, m := range []Message{
		&PageRequest{From: 1, Page: 2, Pending: ns},
		&PageReply{Page: 2, Data: make([]byte, 64), AppliedVT: []int32{1, 0, 4}},
		&DiffRequest{From: 1, Page: 2, Writer: 0, Intervals: []int32{3, 4}},
		&DiffReply{Page: 2, Diffs: [][]byte{diff, nil}},
		&DiffBatchRequest{From: 1, Pages: []PageIntervals{{Page: 2, Intervals: []int32{3}}, {Page: 5, Intervals: []int32{1, 2}}}},
		&DiffBatchReply{Pages: []PageDiffs{{Page: 2, Diffs: [][]byte{diff}}, {Page: 5, Diffs: [][]byte{nil, diff}}}},
		&LockAcquire{Node: 1, Lock: 3},
		&LockGrant{Lock: 3, Lam: 5, Pos: 2, Holder: -1, Notices: ns},
		&LockRelease{Node: 1, Lock: 3, Lam: 5},
		&LockPull{Node: 1, Lock: 3, Holder: 2, Pos: 2, Seen: []int32{0, 4, 1}},
		&BarrierEnter{Node: 1, Episode: 4, Lam: 5, Notices: ns, Hot: []int32{2, 7},
			Entered: []int32{1, 3, 4}, HotSets: []NodeHot{{Node: 3, Pages: []int32{1}}, {Node: 4, Pages: []int32{2, 9}}}},
		&BarrierRelease{Episode: 4, Lam: 6, Notices: ns,
			Push:  []PushedDiff{{Page: 2, Writer: 0, Interval: 3, Diff: diff}},
			Homes: []PageHome{{Page: 2, Home: 1}},
			Relay: []NodePush{{Node: 3, Push: []PushedDiff{{Page: 1, Writer: 2, Interval: 3, Diff: diff}}}, {Node: 4}}},
		&GCCollect{Pages: []int32{1, 2, 900}},
	} {
		frame := Encode(m)
		cycle := func() {
			got, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			Release(got)
		}
		cycle() // warm the kind's pool
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%v decode/Release: %v allocs/op, want 0", m.Kind(), allocs)
		}
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		req := New[*DiffBatchRequest]()
		for pg := range int32(3) {
			pi := req.AddPage(pg)
			pi.Intervals = append(pi.Intervals, 7, pg)
		}
		Release(req)
	}); allocs != 0 {
		t.Errorf("DiffBatchRequest New/AddPage/Release: %v allocs/op, want 0", allocs)
	}
}
