package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of client connections (and client goroutines) the
// open-loop generator uses: at most two, one per CPU of the calibration
// machine, so the generator does not crowd out the server, and two so one
// slow request does not hold back the schedule.
const conns = 2

// closedClients is the number of closed-loop clients. One client keeps a
// request in flight at all times without two requests contending for the
// two CPUs: on the shared calibration machine the throughput of two
// clients spread 0.18-0.22 (IQR over median) between 8-second samples,
// that of one client 0.10-0.13.
const closedClients = 1

// client posts JSON to one server over at most conns keep-alive
// connections.
type client struct {
	base string
	http *http.Client
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends {"points": pts} to path and decodes a 200 reply into out.
func (c *client) post(path string, pts [][]float64, out any) error {
	body, err := json.Marshal(map[string][][]float64{"points": pts})
	if err != nil {
		return err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// timing is one open-loop request: when it was due, when a connection
// sent it, when latency is counted from, when the reply was in, and
// whether it succeeded.
type timing struct {
	due, sent, start, done time.Time
	ok                     bool
}

// latency runs from start: the due time when the request had to wait for
// its connection, so a stall also charges the requests queued behind it;
// the send time when the connection was idle and the generator slept
// until the due time, so the timer's wake-up slack, which is the
// generator's and not the server's, is left out (lateness reports it).
func (t timing) latency() time.Duration { return t.done.Sub(t.start) }

// lateness is how long after its due time the request was sent.
func (t timing) lateness() time.Duration { return t.sent.Sub(t.due) }

// openLoop issues n requests on a fixed schedule (request i due at
// start + i/rate) over conns connections; request i goes to connection
// i mod conns, so each connection sees its requests in schedule order.
// do performs request i and reports success. A request whose connection
// is still busy waits, and that wait counts in its latency.
func openLoop(n int, rate float64, do func(i int) bool) []timing {
	out := make([]timing, n)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				t := timing{due: due, start: due}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					t.start = time.Now()
				}
				t.sent = time.Now()
				t.ok = do(i)
				t.done = time.Now()
				out[i] = t
			}
		}(c)
	}
	wg.Wait()
	return out
}

// closedLoop keeps closedClients clients busy until dur has passed, each
// sending its next request as soon as the previous one returns; requests
// are numbered from first. It returns the attempts, the latencies (ms) of
// the successful requests, and the elapsed time.
func closedLoop(dur time.Duration, first int, do func(i int) bool) (attempted int64, okMS []float64, elapsed time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(dur)
	lat := make([][]float64, closedClients)
	var wg sync.WaitGroup
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if do(int(next.Add(1) - 1)) {
					lat[c] = append(lat[c], ms(time.Since(t0)))
				}
			}
		}(c)
	}
	wg.Wait()
	for _, l := range lat {
		okMS = append(okMS, l...)
	}
	return next.Load() - int64(first), okMS, time.Since(start)
}
