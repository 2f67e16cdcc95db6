package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want { // teclint:ignore floateq order statistics are exact sample values
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	if xs[0] != 5 { // teclint:ignore floateq checking the input was not reordered
		t.Error("percentile reordered its input")
	}
}

// TestSupportedPercentile pins the reporting rule: the highest
// percentile with at least ten samples beyond it.
func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := supportedPercentile(c.n); got != c.want { // teclint:ignore floateq the rule returns one of four literal constants
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestOpenLoopAccounting drives the generator with a fake sender that
// answers 200, 500, a transport error, or a 200 whose body fails its
// check, and checks sent/completed/failed and that latency runs from
// the due time.
func TestOpenLoopAccounting(t *testing.T) {
	const n = 40
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{path: "/x", body: []byte{byte(i)}}
		if i%10 == 3 {
			reqs[i].check = func([]byte) error { return errors.New("bad answer") }
		}
	}
	send := func(_ context.Context, r *request) (int, []byte, error) {
		time.Sleep(2 * time.Millisecond)
		switch i := int(r.body[0]); {
		case i%10 == 1:
			return http.StatusInternalServerError, []byte("boom"), nil
		case i%10 == 2:
			return 0, nil, errors.New("connection reset")
		}
		return http.StatusOK, []byte("{}"), nil
	}
	lr := openLoop(context.Background(), send, reqs, 1000, 2, false)
	if lr.sent != n || lr.completed != n-12 || lr.failed != 12 {
		t.Fatalf("sent/completed/failed = %d/%d/%d, want %d/%d/%d", lr.sent, lr.completed, lr.failed, n, n-12, 12)
	}
	if got := len(lr.latenciesMS()); got != lr.completed {
		t.Errorf("%d latencies for %d completed requests", got, lr.completed)
	}
	for i, o := range lr.outcomes {
		if o.due != time.Duration(i)*time.Millisecond {
			t.Fatalf("request %d due at %v", i, o.due)
		}
		if o.sent < o.due || o.done-o.due < 2*time.Millisecond {
			t.Fatalf("request %d: sent %v done %v due %v", i, o.sent, o.done, o.due)
		}
	}
	// Two senders each taking 2 ms serve at most 1000 req/s: the queue
	// holds steady at the offered 1000 req/s only just, so the last
	// requests are late by no more than a few service times.
	if late := percentile(lr.lateMS(), 1); late > 50 {
		t.Errorf("generator ran %v ms late", late)
	}
}

// TestOpenLoopChargesStalls checks that a stall is charged to the
// requests queued behind it: with one sender blocked for 50 ms, later
// requests' latency counts from their due time, not their send time.
func TestOpenLoopChargesStalls(t *testing.T) {
	reqs := make([]request, 10)
	for i := range reqs {
		reqs[i] = request{body: []byte{byte(i)}}
	}
	send := func(_ context.Context, r *request) (int, []byte, error) {
		if r.body[0] == 0 {
			time.Sleep(50 * time.Millisecond)
		}
		return http.StatusOK, nil, nil
	}
	lr := openLoop(context.Background(), send, reqs, 1000, 1, false)
	last := lr.outcomes[9]
	if last.latency() < 40*time.Millisecond {
		t.Errorf("request behind a 50 ms stall has latency %v", last.latency())
	}
	if last.done-last.sent > 5*time.Millisecond {
		t.Errorf("send-to-done %v should be short", last.done-last.sent)
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := make([]int, 100)
	growing := make([]int, 100)
	for i := range growing {
		steady[i] = i % 3
		growing[i] = i / 2
	}
	if backlogGrew(steady, 2) {
		t.Error("a steady queue reads as growing")
	}
	if !backlogGrew(growing, 2) {
		t.Error("a growing queue reads as steady")
	}
}

// TestGoodputCountsOnlyTimelyAnswers checks the goodput rule: a request
// counts when it succeeded within the limit, measured from its due time.
func TestGoodputCountsOnlyTimelyAnswers(t *testing.T) {
	reqs := make([]request, 20)
	for i := range reqs {
		reqs[i] = request{body: []byte{byte(i)}}
	}
	send := func(_ context.Context, r *request) (int, []byte, error) {
		switch r.body[0] {
		case 3:
			time.Sleep(30 * time.Millisecond)
		case 7:
			return http.StatusTooManyRequests, nil, nil
		}
		return http.StatusOK, nil, nil
	}
	lr := openLoop(context.Background(), send, reqs, 200, 2, false)
	// Request 3 is late; 7 is refused; the other 18 count.
	if got, want := lr.goodput(20*time.Millisecond)*lr.elapsed.Seconds(), 18.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("goodput counts %v requests, want %v", got, want)
	}
}
