package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"
)

// request is one scheduled call of the open-loop generator.
type request struct {
	path string
	body []byte
	// check validates a 200 response body; nil accepts any.
	check func(body []byte) error
}

// outcome is what happened to one scheduled request. Times are
// offsets from the schedule's start.
type outcome struct {
	due, sent, done time.Duration
	handed          bool // given to a sender
	status          int
	err             error
	body            []byte
}

// ok reports a 2xx answer that passed its check.
func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// latency is the time from when the request was due to its completion,
// so a stall is charged to every request it delays.
func (o *outcome) latency() time.Duration { return o.done - o.due }

// loadResult summarizes one open-loop schedule.
type loadResult struct {
	outcomes []outcome
	// sent, completed and failed count requests handed to a
	// connection, answered 2xx with a passing check, and not completed
	// (any other status, transport error or failed check).
	sent, completed, failed int
	// elapsed runs from the schedule's start to the last completion.
	elapsed time.Duration
	// backlogGrew marks a run whose queue of due-but-unsent requests
	// kept growing: the offered rate exceeded what was served, so its
	// latencies describe the queue, not the system.
	backlogGrew bool
}

// latenciesMS returns the latency of every completed request in ms.
func (lr *loadResult) latenciesMS() []float64 {
	out := make([]float64, 0, len(lr.outcomes))
	for i := range lr.outcomes {
		if lr.outcomes[i].ok() {
			out = append(out, float64(lr.outcomes[i].latency())/1e6)
		}
	}
	return out
}

// lateMS returns how late each request was sent against its schedule.
func (lr *loadResult) lateMS() []float64 {
	out := make([]float64, 0, len(lr.outcomes))
	for i := range lr.outcomes {
		if lr.outcomes[i].handed {
			out = append(out, float64(lr.outcomes[i].sent-lr.outcomes[i].due)/1e6)
		}
	}
	return out
}

// sender performs one request; the HTTP implementation is httpSender.
type sender func(ctx context.Context, r *request) (status int, body []byte, err error)

// httpSender posts requests to base through client.
func httpSender(client *http.Client, base string) sender {
	return func(ctx context.Context, r *request) (int, []byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

// openLoop sends reqs on a fixed schedule, request k due at k/rate
// seconds, through at most conns concurrent senders. It never waits
// for a reply before sending the next request: a request whose sender
// is busy waits in the generator's queue, and its latency still counts
// from its due time. keepBody keeps response bodies for later checks.
func openLoop(ctx context.Context, send sender, reqs []request, rate float64, conns int, keepBody bool) *loadResult {
	lr := &loadResult{outcomes: make([]outcome, len(reqs))}
	interval := time.Duration(float64(time.Second) / rate)
	runtime.GC()
	// The queue holds every request index, so the dispatcher never
	// blocks on a busy sender.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		started int
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				o := &lr.outcomes[k]
				o.sent = time.Since(start)
				o.handed = true
				mu.Lock()
				started++
				mu.Unlock()
				o.status, o.body, o.err = send(ctx, &reqs[k])
				o.done = time.Since(start)
				finish(o, &reqs[k])
				if !keepBody {
					o.body = nil
				}
			}
		}()
	}
	pending := make([]int, len(reqs))
	for k := range reqs {
		due := time.Duration(k) * interval
		lr.outcomes[k].due = due
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		mu.Lock()
		pending[k] = k - started
		mu.Unlock()
		queue <- k
	}
	close(queue)
	wg.Wait()
	lr.elapsed = time.Since(start)
	lr.backlogGrew = backlogGrew(pending, conns)
	lr.tally()
	return lr
}

// finish turns a non-200 answer or a failed check into the outcome's
// error.
func finish(o *outcome, r *request) {
	switch {
	case o.err != nil:
	case o.status != http.StatusOK:
		o.err = fmt.Errorf("%s: status %d: %s", r.path, o.status, bytes.TrimSpace(o.body))
	case r.check != nil:
		o.err = r.check(o.body)
	}
}

// tally counts the sent, completed and failed requests.
func (lr *loadResult) tally() {
	for i := range lr.outcomes {
		o := &lr.outcomes[i]
		if o.handed {
			lr.sent++
		}
		if o.ok() {
			lr.completed++
		} else {
			lr.failed++
		}
	}
}

// backlogGrew compares the mean queue length over the last quarter of
// the schedule with the first quarter: a queue that ends more than
// conns requests longer than it started, and at least twice as long,
// was growing.
func backlogGrew(pending []int, conns int) bool {
	q := len(pending) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	first, last := mean(pending[:q]), mean(pending[len(pending)-q:])
	return last > 2*first+float64(conns)
}

// goodput returns the requests per second of the schedule that
// completed without error within limit; a failed or refused request
// misses the limit.
func (lr *loadResult) goodput(limit time.Duration) float64 {
	n := 0
	for i := range lr.outcomes {
		if o := &lr.outcomes[i]; o.ok() && o.latency() <= limit {
			n++
		}
	}
	return float64(n) / lr.elapsed.Seconds()
}

// markValidity records whether the schedule's backlog stayed bounded. A
// run whose backlog grew measured the generator's queue, not the
// service: it is marked invalid in the record's details (and its late
// requests miss the goodput limit) rather than counted as wrong answers.
func markValidity(rep *report, lr *loadResult) {
	rep.details["valid"] = !lr.backlogGrew
	if lr.backlogGrew {
		fmt.Fprintln(os.Stderr, "perfbench: the generator's backlog grew; this run is invalid")
	}
}
