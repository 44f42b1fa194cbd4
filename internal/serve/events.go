package serve

import (
	"encoding/json"
	"sync"

	"laxgpu/internal/obs"
)

// broker fans job lifecycle events out to server-sent-event subscribers.
// Publishing never blocks: a subscriber that cannot keep up loses events
// (counted) rather than stalling whoever holds the node.
type broker struct {
	mu      sync.Mutex
	subs    map[chan []byte]struct{}
	closed  bool
	dropped *obs.Counter
}

func newBroker(dropped *obs.Counter) *broker {
	return &broker{subs: make(map[chan []byte]struct{}), dropped: dropped}
}

// subscribe registers a new listener; the returned cancel must be called
// when the listener goes away.
func (b *broker) subscribe() (ch chan []byte, cancel func()) {
	ch = make(chan []byte, 64)
	b.mu.Lock()
	if b.closed {
		close(ch)
	} else {
		b.subs[ch] = struct{}{}
	}
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
}

// publish marshals the status once and offers it to every subscriber; with
// none, it marshals nothing.
func (b *broker) publish(event string, st JobStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		return
	}
	payload, err := json.Marshal(struct {
		Event string `json:"event"`
		JobStatus
	}{Event: event, JobStatus: st})
	if err != nil {
		return
	}
	for ch := range b.subs {
		select {
		case ch <- payload:
		default:
			b.dropped.Inc()
		}
	}
}

// close disconnects every subscriber.
func (b *broker) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		for ch := range b.subs {
			delete(b.subs, ch)
			close(ch)
		}
	}
	b.mu.Unlock()
}
