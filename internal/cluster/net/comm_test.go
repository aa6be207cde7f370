package net

import (
	"errors"
	"fmt"
	"testing"

	"gbpolar/internal/cluster"
)

// brokenComm is a Comm whose reader has exited after queueing traffic:
// the connection is marked broken and readerDone is closed, exactly the
// state readLoop leaves behind when the coordinator hangs up right after
// its final response.
func brokenComm() *Comm {
	c := &Comm{
		opts:       Options{}.withDefaults(),
		size:       2,
		roundCh:    make(chan frame, 1),
		inbox:      make(chan relayed, 4),
		readerDone: make(chan struct{}),
	}
	c.markBroken(fmt.Errorf("connection lost: %w", cluster.ErrAborted))
	close(c.readerDone)
	return c
}

// A response already queued when readerDone closes must be delivered:
// select picks at random among ready cases, so without the drain about
// half of these rounds report "connection lost" for a round that
// completed.
func TestAwaitPrefersQueuedResponse(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := brokenComm()
		c.roundCh <- frame{typ: mRoundOK, body: []byte{byte(i)}}
		resp, err := c.await(c.roundCh, 0, "round")
		if err != nil {
			t.Fatalf("iteration %d: queued response lost to readerDone: %v", i, err)
		}
		if resp.typ != mRoundOK || len(resp.body) != 1 || resp.body[0] != byte(i) {
			t.Fatalf("iteration %d: got frame %+v", i, resp)
		}
	}
	// With nothing queued the break is reported.
	if _, err := brokenComm().await(make(chan frame), 0, "round"); !errors.Is(err, cluster.ErrAborted) {
		t.Fatalf("empty queue: got %v, want ErrAborted", err)
	}
}

// Recv on a dropped connection still returns the relayed messages the
// reader queued before it exited, skipping non-matching ones into
// pending; only an exhausted queue reports the break.
func TestRecvPrefersQueuedMessage(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := brokenComm()
		c.inbox <- relayed{src: 1, tag: 3, data: []float64{-1}}
		c.inbox <- relayed{src: 1, tag: 7, data: []float64{float64(i)}}
		data, src, err := c.Recv(1, 7)
		if err != nil {
			t.Fatalf("iteration %d: queued message lost to readerDone: %v", i, err)
		}
		if src != 1 || len(data) != 1 || data[0] != float64(i) {
			t.Fatalf("iteration %d: got %v from %d", i, data, src)
		}
		if data, _, err := c.Recv(cluster.AnySource, 3); err != nil || data[0] != -1 {
			t.Fatalf("iteration %d: pending message: got %v, %v", i, data, err)
		}
		if _, _, err := c.Recv(1, 7); !errors.Is(err, cluster.ErrAborted) {
			t.Fatalf("iteration %d: empty queue: got %v, want ErrAborted", i, err)
		}
	}
}
