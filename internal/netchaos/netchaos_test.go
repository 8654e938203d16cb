package netchaos

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// payload is the response body every test server sends: long enough
// that SlowHeaders trickles only its head and TruncateResponse cuts
// inside the body.
var payload = []byte(strings.Repeat("0123456789abcdef", 96))

// upload is the request body: longer than the fragment TornBody reads.
var upload = bytes.Repeat([]byte{'u'}, 4096)

// start runs a server that answers every request with payload, and a
// proxy in front of it with the given schedule.  calls counts the
// requests that reached the server's handler.
func start(t *testing.T, schedule []Mode) (p *Proxy, calls *atomic.Int32) {
	t.Helper()
	calls = new(atomic.Int32)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		calls.Add(1)
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		w.Write(payload)
	}))
	t.Cleanup(srv.Close)
	p, err := New(srv.Listener.Addr().String(), schedule)
	if err != nil {
		t.Fatal(err)
	}
	return p, calls
}

// exchange posts upload on a fresh connection to the proxy and parses
// one response.  It returns that response's body, the error of the
// first step that failed, and whatever the connection carried after the
// response until the proxy closed it.
func exchange(t *testing.T, p *Proxy) (body []byte, err error, rest []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	// Write errors are part of some fates (the proxy may already have
	// closed); the read below reports them.
	fmt.Fprintf(conn, "POST /chaos HTTP/1.1\r\nHost: chaos\r\nContent-Length: %d\r\n\r\n", len(upload))
	conn.Write(upload)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, err, nil
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return body, err, nil
	}
	rest, _ = io.ReadAll(br)
	return body, nil, rest
}

func TestPassAndSlowHeadersDeliverTheBody(t *testing.T) {
	for _, mode := range []Mode{Pass, SlowHeaders} {
		p, calls := start(t, []Mode{mode})
		body, err, rest := exchange(t, p)
		p.Close()
		if err != nil || !bytes.Equal(body, payload) || len(rest) != 0 {
			t.Errorf("%v: body of %d bytes (identical: %v), err %v, %d bytes after it",
				mode, len(body), bytes.Equal(body, payload), err, len(rest))
		}
		if calls.Load() != 1 {
			t.Errorf("%v: handler ran %d times, want 1", mode, calls.Load())
		}
	}
}

func TestRefuseFailsBeforeAnyResponse(t *testing.T) {
	p, calls := start(t, []Mode{Refuse})
	if _, err, _ := exchange(t, p); err == nil {
		t.Error("a refused connection parsed a response")
	}
	p.Close()
	if calls.Load() != 0 {
		t.Errorf("handler ran %d times behind a refused connection", calls.Load())
	}
}

func TestTornBodyNeverReachesTheServer(t *testing.T) {
	p, calls := start(t, []Mode{TornBody})
	if _, err, _ := exchange(t, p); err == nil {
		t.Error("a torn upload parsed a response")
	}
	p.Close() // waits for the handler: nothing can reach the server later
	if calls.Load() != 0 {
		t.Errorf("handler ran %d times for a torn upload", calls.Load())
	}
}

func TestTruncateResponseIsUnexpectedEOF(t *testing.T) {
	p, calls := start(t, []Mode{TruncateResponse})
	body, err, _ := exchange(t, p)
	p.Close()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated response: err %v, want io.ErrUnexpectedEOF", err)
	}
	if len(body) == 0 || len(body) >= len(payload) {
		t.Errorf("truncated response delivered %d of %d body bytes, want a strict prefix", len(body), len(payload))
	}
	if calls.Load() != 1 {
		t.Errorf("handler ran %d times, want 1 (the request is forwarded)", calls.Load())
	}
}

func TestDuplicateResponseParsesOnce(t *testing.T) {
	p, calls := start(t, []Mode{DuplicateResponse})
	body, err, rest := exchange(t, p)
	if err != nil || !bytes.Equal(body, payload) {
		t.Fatalf("first response: %d bytes, err %v", len(body), err)
	}
	// The connection carried exactly one more copy of the response.
	br := bufio.NewReader(bytes.NewReader(rest))
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("no second copy after the first response: %v", err)
	}
	again, err := io.ReadAll(resp.Body)
	if err != nil || !bytes.Equal(again, payload) || br.Buffered() != 0 {
		t.Errorf("second copy: %d body bytes, err %v, %d bytes after it", len(again), err, br.Buffered())
	}

	// A standard client reads one response and drops the duplicate with
	// the closed connection.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	got, err := client.Post(p.URL()+"/chaos", "application/octet-stream", bytes.NewReader(upload))
	if err != nil {
		t.Fatal(err)
	}
	gotBody, err := io.ReadAll(got.Body)
	got.Body.Close()
	if err != nil || !bytes.Equal(gotBody, payload) {
		t.Errorf("http.Client: %d body bytes, err %v", len(gotBody), err)
	}
	p.Close()
	if calls.Load() != 2 {
		t.Errorf("handler ran %d times for two exchanges, want 2", calls.Load())
	}
}

// TestScheduleCyclesPerConnection: connection i gets schedule[i % len],
// and the counters count accepted connections and non-Pass fates.
func TestScheduleCyclesPerConnection(t *testing.T) {
	schedule := []Mode{Pass, Refuse, Pass}
	p, calls := start(t, schedule)
	for i := 0; i < 6; i++ {
		_, err, _ := exchange(t, p)
		if want := schedule[i%len(schedule)]; (err == nil) != (want == Pass) {
			t.Errorf("connection %d (scheduled %v): err %v", i, want, err)
		}
	}
	p.Close()
	if p.Connections() != 6 || p.Faults() != 2 || calls.Load() != 4 {
		t.Errorf("connections %d, faults %d, handler calls %d; want 6, 2, 4", p.Connections(), p.Faults(), calls.Load())
	}
}

func TestEmptyScheduleIsAllPass(t *testing.T) {
	p, _ := start(t, nil)
	for i := 0; i < 3; i++ {
		if body, err, _ := exchange(t, p); err != nil || !bytes.Equal(body, payload) {
			t.Errorf("connection %d: %d body bytes, err %v", i, len(body), err)
		}
	}
	p.Close()
	if p.Connections() != 3 || p.Faults() != 0 {
		t.Errorf("connections %d, faults %d; want 3, 0", p.Connections(), p.Faults())
	}
}

func TestModeString(t *testing.T) {
	want := map[Mode]string{
		Pass:              "pass",
		Refuse:            "refuse",
		TornBody:          "torn-body",
		SlowHeaders:       "slow-headers",
		TruncateResponse:  "truncate-response",
		DuplicateResponse: "duplicate-response",
		Mode(99):          "Mode(99)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if len(Faulty)+2 != len(want) {
		t.Errorf("Faulty lists %d modes; the table covers %d plus Pass and an unknown", len(Faulty), len(want)-2)
	}
}
