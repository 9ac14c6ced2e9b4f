// Package topk keeps the best k items of a stream without sorting the
// stream: the serving corpus's top-k matches and the blocking debugger's
// top-K missed pairs both keep a short prefix of a long ranking.
package topk

// Offer adds p to h, the best k >= 1 items seen so far, where before(a, b)
// reports whether a ranks before b: a plain list until it holds k, from
// then on a heap with the worst of them on top, which a later item enters
// only by ranking before it. h comes back in heap order, not rank order;
// under a total order it holds the first k items of the full ranking.
func Offer[T any](h []T, p T, k int, before func(a, b T) bool) []T {
	switch {
	case len(h) < k:
		if h = append(h, p); len(h) == k {
			for i := k/2 - 1; i >= 0; i-- {
				siftDown(h, i, before)
			}
		}
	case before(p, h[0]):
		h[0] = p
		siftDown(h, 0, before)
	}
	return h
}

// siftDown restores, below node i, the heap order in which every node
// ranks after its children.
func siftDown[T any](h []T, i int, before func(a, b T) bool) {
	for {
		w := 2*i + 1
		if w >= len(h) {
			return
		}
		if r := w + 1; r < len(h) && before(h[w], h[r]) {
			w = r
		}
		if !before(h[i], h[w]) {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}
