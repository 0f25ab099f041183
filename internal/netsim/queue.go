package netsim

// eventHeap is the engine's pending-event set: a binary min-heap ordered by
// (at, seq) — at ascending, seq breaking ties in scheduling order — so
// events scheduled for the same instant fire in the order they were
// scheduled. Each event's idx tracks its heap slot, which makes Cancel an
// O(log n) removeAt. The sift operations are written out rather than going
// through container/heap, whose any-typed Pop would allocate per event.
type eventHeap []*Event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *eventHeap) push(ev *Event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.up(ev.idx)
}

// pop removes and returns the minimum-(at, seq) event; the heap must be
// non-empty. The popped event's idx is set to -1.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old) - 1
	old.swap(0, n)
	ev := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes a pending event (idx >= 0) and sets its idx to -1.
func (h *eventHeap) remove(ev *Event) {
	i := ev.idx
	old := *h
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		h.fix(i)
	}
	ev.idx = -1
}

// fix restores heap order after the event at slot i changed its key.
func (h eventHeap) fix(i int) {
	h.down(i)
	h.up(i)
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			return
		}
		h.swap(i, min)
		i = min
	}
}
