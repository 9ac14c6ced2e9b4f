package serve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzCorpusOps decodes bytes into a run of writes over a ten-ID universe
// and a small vocabulary — add, upsert, delete and refused batches, and
// Compact — and after every one requires Len and the candidates of fixed
// probes to equal a from-scratch rebuild's. The first byte picks the
// minimum overlap and how soon compaction fires, so pooled counters meet
// snapshots that shrink under them, and the postings a compaction builds
// meet the ones ingest grows.
func FuzzCorpusOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 8, 9, 10, 11, 12, 13, 2, 7, 7, 4, 3, 0, 33})
	f.Add([]byte{2, 1, 200, 17, 5, 9, 2, 250, 3, 66, 4, 0, 12, 19, 130})
	f.Add([]byte{5, 40, 1, 41, 2, 42, 3, 43, 4, 44, 10, 2, 18, 2, 26, 2, 4})
	probes := []Record{
		{ID: "q", Attrs: map[string]string{"name": "acme widget", "desc": "north market street"}},
		{ID: "q", Attrs: map[string]string{"name": "global supply corp", "desc": "dane county labs intl"}},
		{ID: "q", Attrs: map[string]string{"name": "west east", "desc": "south avenue dept trading"}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cfg := next()
		c := NewCorpus(WithMinOverlap(1+cfg%3), WithCompactAfter([]int{2, 5, -1}[cfg/3%3]))
		live := make([]bool, 10)
		rec := func(id int) Record {
			phrase := func(n int) string {
				ws := make([]string, n)
				for i := range ws {
					ws[i] = words[next()%len(words)]
				}
				return strings.Join(ws, " ")
			}
			return Record{ID: fmt.Sprintf("r%d", id), Attrs: map[string]string{"name": phrase(2), "desc": phrase(3)}}
		}
		for steps := 0; len(data) > 0 && steps < 64; steps++ {
			op := next()
			n := 1 + op/5%4
			switch op % 5 {
			case 0: // add: IDs not live, each once
				var recs []Record
				for i := 0; i < n; i++ {
					if id := next() % len(live); !live[id] {
						live[id] = true
						recs = append(recs, rec(id))
					}
				}
				if err := c.AddBatch(recs, false); err != nil {
					t.Fatal(err)
				}
			case 1: // upsert: any IDs, repeats included
				var recs []Record
				for i := 0; i < n; i++ {
					id := next() % len(live)
					live[id] = true
					recs = append(recs, rec(id))
				}
				if err := c.AddBatch(recs, true); err != nil {
					t.Fatal(err)
				}
			case 2: // delete: live IDs, each once
				var ids []string
				for i := 0; i < n; i++ {
					if id := next() % len(live); live[id] {
						live[id] = false
						ids = append(ids, fmt.Sprintf("r%d", id))
					}
				}
				if err := c.DeleteBatch(ids); err != nil {
					t.Fatal(err)
				}
			case 3: // refused: an add holding a live ID, or a delete naming a dead one
				before := c.Stats()
				id := next() % len(live)
				var err error
				if live[id] {
					err = c.AddBatch([]Record{rec((id + 1) % len(live)), rec(id)}, false)
				} else {
					err = c.DeleteBatch([]string{fmt.Sprintf("r%d", (id+1)%len(live)), fmt.Sprintf("r%d", id)})
				}
				if err == nil || c.Stats() != before {
					t.Fatalf("refused batch: err %v, stats %+v -> %+v", err, before, c.Stats())
				}
			default:
				c.Compact()
			}
			oracle, want := c.Rebuilt(), 0
			for _, ok := range live {
				if ok {
					want++
				}
			}
			if c.Len() != want || oracle.Len() != want {
				t.Fatalf("step %d: Len %d, rebuilt %d, applied %d", steps, c.Len(), oracle.Len(), want)
			}
			for _, q := range probes {
				if got, want := c.CandidateIDs(q), oracle.CandidateIDs(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: candidates %v, a rebuild's %v", steps, got, want)
				}
			}
		}
	})
}
