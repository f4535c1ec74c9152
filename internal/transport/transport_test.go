package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoHandlers(n int) []Handler {
	hs := make([]Handler, n)
	for i := 0; i < n; i++ {
		node := i
		hs[i] = func(from int, payload []byte) ([]byte, error) {
			return append([]byte(fmt.Sprintf("n%d<-%d:", node, from)), payload...), nil
		}
	}
	return hs
}

func TestLocalCall(t *testing.T) {
	tr := NewLocal(echoHandlers(3))
	defer func() { _ = tr.Close() }()
	got, err := tr.Call(0, 2, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "n2<-0:hi" {
		t.Fatalf("got %q", got)
	}
}

func TestLocalBadDestination(t *testing.T) {
	tr := NewLocal(echoHandlers(2))
	if _, err := tr.Call(0, 5, nil); err == nil {
		t.Fatal("expected error for unknown node")
	}
	if _, err := tr.Call(0, -1, nil); err == nil {
		t.Fatal("expected error for negative node")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tr, err := NewTCP(echoHandlers(3))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	for to := 0; to < 3; to++ {
		got, err := tr.Call(1, to, []byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("n%d<-1:payload", to)
		if string(got) != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	hs := []Handler{func(from int, p []byte) ([]byte, error) { return p, nil }}
	tr, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	big := bytes.Repeat([]byte{0xab}, 1<<20)
	got, err := tr.Call(0, 0, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("payload corrupted")
	}
}

func TestTCPRemoteError(t *testing.T) {
	hs := []Handler{func(from int, p []byte) ([]byte, error) {
		return nil, errors.New("handler exploded")
	}}
	tr, err := NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	_, err = tr.Call(0, 0, []byte("x"))
	if err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives an application error.
	if _, err := tr.Call(0, 0, []byte("y")); err == nil || !strings.Contains(err.Error(), "handler exploded") {
		t.Fatalf("second call err = %v", err)
	}
}

func TestTCPNestedCall(t *testing.T) {
	// Node 1's handler calls node 2 before replying — the pattern the
	// DSM's page manager uses to fetch diffs. This must not deadlock.
	var tr *TCP
	hs := []Handler{
		nil, // node 0 never serves
		func(from int, p []byte) ([]byte, error) {
			inner, err := tr.Call(1, 2, append([]byte("via1:"), p...))
			if err != nil {
				return nil, err
			}
			return inner, nil
		},
		func(from int, p []byte) ([]byte, error) {
			return append([]byte("n2:"), p...), nil
		},
	}
	hs[0] = func(from int, p []byte) ([]byte, error) { return p, nil }
	var err error
	tr, err = NewTCP(hs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	got, err := tr.Call(0, 1, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "n2:via1:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPConcurrentCallers(t *testing.T) {
	tr, err := NewTCP(echoHandlers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for from := 0; from < 4; from++ {
		for i := 0; i < 10; i++ {
			wg.Add(1)
			go func(from, i int) {
				defer wg.Done()
				to := (from + i) % 4
				want := fmt.Sprintf("n%d<-%d:m%d", to, from, i)
				got, err := tr.Call(from, to, []byte(fmt.Sprintf("m%d", i)))
				if err != nil {
					errs <- err
					return
				}
				if string(got) != want {
					errs <- fmt.Errorf("got %q, want %q", got, want)
				}
			}(from, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	tr, err := NewTCP(echoHandlers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(0, 1, []byte("x")); err == nil {
		t.Fatal("expected error after Close")
	}
}

func TestTCPBadDestination(t *testing.T) {
	tr, err := NewTCP(echoHandlers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := tr.Call(0, 3, nil); err == nil {
		t.Fatal("expected error")
	}
}

// TestTCPRejectsUnknownMagic: a peer that opens with anything but the
// "ACTM" magic is closed without a byte of reply.
func TestTCPRejectsUnknownMagic(t *testing.T) {
	tr, err := NewTCP(echoHandlers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	c, err := net.Dial("tcp", tr.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if _, err := c.Write([]byte("ACTS")); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read %d bytes, err %v; want a clean close", n, err)
	}
}
