package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"syscall"
	"time"

	"trajsim/internal/trajio"
)

// epoch is the benchmark's time origin; every recorded instant is a
// monotonic offset from it.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// sleepUntil blocks until t. It calls nanosleep directly: the Go
// runtime's own timers round sub-millisecond waits up to a millisecond
// when the process is idle, which would make a paced generator late by
// about that much on every request.
func sleepUntil(t time.Duration) {
	if d := t - now(); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// conn is one keep-alive HTTP connection to the server: a client whose
// transport never opens a second one. The generator uses at most two.
type conn struct {
	c    *http.Client
	tr   *http.Transport
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

func (c *conn) do(ctx context.Context, method, path string, body []byte, ctype string) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func (c *conn) get(path string) ([]byte, int, error) {
	return c.do(context.Background(), http.MethodGet, path, nil, "")
}

func (c *conn) post(path string, body []byte, ctype string) ([]byte, int, error) {
	return c.do(context.Background(), http.MethodPost, path, body, ctype)
}

type opKind uint8

const (
	opIngest opKind = iota
	opRange
	opAt
)

func (k opKind) String() string {
	return [...]string{"ingest", "range", "at"}[k]
}

// op is one scheduled request and, once sent, its outcome. Times are
// offsets from epoch.
type op struct {
	kind  opKind
	due   time.Duration
	body  []byte // ingest: a TSB1 request
	path  string // range, at: the GET path
	probe bool   // ingest from the persist-lag probe device
	pts   int    // ingest: points carried

	dev      *device
	from, to int64 // range window, unix ms
	n0, n1   int   // range window: the device stream points it spans
	t        int64 // at: query time, unix ms

	start, done time.Duration
	late        time.Duration // send start past max(due, connection free)
	status      int
	err         error
	resp        []byte
}

func (o *op) latency() time.Duration { return o.done - o.due }

func (o *op) failed() bool { return o.err != nil || o.status/100 != 2 }

func (o *op) send(c *conn) {
	o.start = now()
	if o.kind == opIngest {
		o.resp, o.status, o.err = c.do(context.Background(), http.MethodPost, "/ingest", o.body, trajio.IngestContentType)
	} else {
		o.resp, o.status, o.err = c.get(o.path)
	}
	o.done = now()
}

// runOpen sends ops (sorted by due) over c on their schedule, whatever
// the server's pace: a request due while the previous one is still in
// flight goes out the moment the connection frees, and its latency is
// counted from its due time, so a stall is charged to every request it
// delays.
func runOpen(c *conn, ops []*op) {
	free := time.Duration(0)
	for _, o := range ops {
		sleepUntil(o.due)
		o.send(c)
		o.late = max(0, o.start-max(o.due, free))
		free = o.done
	}
}

// runClosed sends ops back to back over c; each is due when sent.
func runClosed(c *conn, ops []*op) {
	for _, o := range ops {
		o.due = now()
		o.send(c)
	}
}

// runConns runs one schedule per connection concurrently and returns
// when all are done.
func runConns(conns []*conn, scheds [][]*op, run func(*conn, []*op)) {
	var wg sync.WaitGroup
	for i := range scheds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(conns[i], scheds[i])
		}(i)
	}
	wg.Wait()
}

// shift moves every op's due time to start at t0.
func shift(ops []*op, t0 time.Duration) {
	for _, o := range ops {
		o.due += t0
	}
}

// tailEvent is one SSE "segments" event: when it arrived and how many
// segment records it announced.
type tailEvent struct {
	at   time.Duration
	recs int
}

// tail holds a device's /tail SSE stream open on its own connection and
// records every event.
type tail struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	events []tailEvent
	lagged bool
	err    error
}

// openTail subscribes to device's live tail over c and returns once the
// response headers arrived.
func openTail(c *conn, device string) (*tail, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/devices/"+device+"/tail", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("tail: HTTP %d", resp.StatusCode)
	}
	t := &tail{cancel: cancel, done: make(chan struct{})}
	go t.read(resp.Body)
	return t, nil
}

func (t *tail) read(body io.ReadCloser) {
	defer close(t.done)
	defer body.Close()
	br := bufio.NewReaderSize(body, 64<<10)
	event := ""
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A long data line: keep reading it whole.
			rest, err2 := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), err2
		}
		if err != nil {
			t.mu.Lock()
			if t.err == nil && !errors.Is(err, context.Canceled) {
				t.err = err
			}
			t.mu.Unlock()
			return
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(bytes.TrimSpace(line[len("event: "):]))
		case bytes.HasPrefix(line, []byte("data: ")):
			at := now()
			t.mu.Lock()
			switch event {
			case "segments":
				t.events = append(t.events, tailEvent{at: at, recs: bytes.Count(line, []byte(`{"device"`))})
			case "lagged":
				t.lagged = true
			}
			t.mu.Unlock()
		}
	}
}

// close ends the subscription and waits for the reader to exit.
func (t *tail) close() ([]tailEvent, error) {
	t.cancel()
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.lagged && t.err == nil {
		t.err = fmt.Errorf("tail: server reported the subscriber lagged")
	}
	return t.events, t.err
}
