package stream

import (
	"sync"
	"testing"
	"time"
)

func TestBroadcasterDropsWhenFull(t *testing.T) {
	b := NewBroadcaster()
	defer b.Close()
	sub := b.Subscribe()
	for i := 0; i < subscriberBuffer+10; i++ {
		b.Publish(Event{Kind: "fragment", Seq: i})
	}
	sub.Cancel()
	n := 0
	for range sub.Events() {
		n++
	}
	if n != subscriberBuffer {
		t.Fatalf("received %d events, want the buffer's %d (rest dropped)", n, subscriberBuffer)
	}
}

func TestBroadcasterCloseAndCancel(t *testing.T) {
	b := NewBroadcaster()
	s1, s2 := b.Subscribe(), b.Subscribe()
	if b.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", b.Subscribers())
	}
	s1.Cancel()
	s1.Cancel() // idempotent
	if _, ok := <-s1.Events(); ok {
		t.Error("cancelled subscriber channel still open")
	}
	b.Close()
	b.Close() // idempotent
	if _, ok := <-s2.Events(); ok {
		t.Error("subscriber channel open after broadcaster close")
	}
	b.Publish(Event{Kind: "fragment"}) // no-op, must not panic
	s3 := b.Subscribe()
	if _, ok := <-s3.Events(); ok {
		t.Error("subscribe after close returned an open channel")
	}
	s3.Cancel() // safe on an already-closed subscription
}

// TestBroadcasterConcurrency races publishers, subscribers, cancels, and a
// close; run under -race this is the fan-out's safety net.
func TestBroadcasterConcurrency(t *testing.T) {
	b := NewBroadcaster()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Publish(Event{Kind: "fragment", Seq: i})
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := b.Subscribe()
			for i := 0; i < 50; i++ {
				select {
				case <-sub.Events():
				case <-time.After(10 * time.Millisecond):
				}
			}
			sub.Cancel()
		}()
	}
	wg.Wait()
	b.Close()
}
