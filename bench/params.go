package main

import "fmt"

// params are the constants of one workload. They are part of every result
// file, and -compare refuses two files whose params differ. Rates are
// fixed here and never derived from a measurement.
type params struct {
	Workload string `json:"workload"`
	Size     string `json:"size"`

	// Serving side.
	Corpus     int     `json:"corpus,omitempty"`      // records bulk-loaded in set-up
	Churn      int     `json:"churn,omitempty"`       // last records of the corpus the writer may touch
	Pool       int     `json:"pool,omitempty"`        // generated records outside the corpus: writer payloads, probes
	Queries    int     `json:"queries,omitempty"`     // query records, cycled
	MatchShare float64 `json:"match_share,omitempty"` // share of queries with a gold match
	Typo       float64 `json:"typo,omitempty"`
	MinOverlap int     `json:"min_overlap,omitempty"`
	Limit      int     `json:"limit,omitempty"`
	Matcher    bool    `json:"matcher,omitempty"`
	Trees      int     `json:"trees,omitempty"`
	TrainSize  int     `json:"train_size,omitempty"` // matcher is trained on a separate TrainSize x TrainSize task
	TrainLabel int     `json:"train_label,omitempty"`
	LoadBatch  int     `json:"load_batch,omitempty"`
	OpenRate   float64 `json:"open_rate,omitempty"`  // /v1/match requests per second, open loop
	WriteRate  float64 `json:"write_rate,omitempty"` // write batches per second, open loop; 0 = no writer
	Replay     int     `json:"replay,omitempty"`     // requests the traced run replays layer by layer
	Sampled    int     `json:"sampled,omitempty"`    // responses compared bit for bit with a rebuilt corpus
	Probe      int     `json:"probe,omitempty"`      // queries whose candidates are compared after serve_mixed
	SetupReps  int     `json:"setup_reps"`           // set-ups per run; setup_s is their median

	// Batch side.
	TableSize     int     `json:"table_size,omitempty"`
	MatchFraction float64 `json:"match_fraction,omitempty"`
	DownSample    int     `json:"down_sample,omitempty"`
	LabelSample   int     `json:"label_sample,omitempty"`
	Folds         int     `json:"folds,omitempty"`
}

// Phase shares of --seconds for a serving run. The untraced run spends it
// on a closed-loop and an open-loop phase; the traced run on a traced
// closed loop (allocation accounting) and an open loop on each of the
// plain and the traced server (their difference is the tracing overhead).
const (
	closedShare       = 0.4
	openShare         = 0.6
	tracedClosedShare = 0.2
	tracedOpenShare   = 0.4
	warmupSeconds     = 1.0
	// rounds is how many times the untraced run alternates its closed and
	// open phases; each gets an equal part of the phase's share.
	rounds = 4
)

// Write batches alternate an upsert of writeFresh new IDs plus
// writeUpdates live ones with a delete of writeDeletes live IDs.
const (
	writeFresh   = 5
	writeUpdates = 5
	writeDeletes = 5
)

// paramsFor returns the workload's constants. size "tiny" shrinks data
// for the unit-test smoke run and for nothing else.
func paramsFor(workload, size string) (params, error) {
	p := params{Workload: workload, Size: size}
	full := size == "full"
	if !full && size != "tiny" {
		return p, fmt.Errorf("unknown size %q (full or tiny)", size)
	}
	if workload == wlBatch {
		p.TableSize, p.MatchFraction, p.Typo = 2000, 0.4, 0.2
		p.DownSample, p.LabelSample, p.Folds, p.SetupReps = 1000, 400, 5, 9
		if !full {
			p.TableSize, p.DownSample, p.LabelSample, p.SetupReps = 300, 150, 120, 1
		}
		return p, nil
	}
	p.Corpus, p.Churn, p.Pool, p.Queries, p.MatchShare, p.Typo = 12000, 3000, 20000, 2000, 0.8, 0.2
	p.Limit, p.Trees, p.TrainSize, p.TrainLabel, p.LoadBatch = 10, 10, 600, 400, 500
	p.Replay, p.Sampled, p.Probe, p.SetupReps = 300, 100, 200, 5
	switch workload {
	case wlServeHeavy:
		p.MinOverlap, p.Matcher, p.OpenRate, p.Replay = 2, true, 50, 100
	case wlServeEdge:
		p.MinOverlap, p.Matcher, p.OpenRate = 3, false, 1000
	case wlServeMixed:
		p.MinOverlap, p.Matcher, p.OpenRate, p.WriteRate = 3, true, 200, 60
	default:
		return p, fmt.Errorf("unknown workload %q", workload)
	}
	if !full {
		p.Corpus, p.Churn, p.Pool, p.Queries, p.TrainSize, p.TrainLabel, p.LoadBatch = 600, 150, 1000, 100, 150, 100, 100
		p.Replay, p.Sampled, p.Probe, p.SetupReps = 20, 20, 20, 1
		p.OpenRate /= 4
		p.WriteRate /= 4
	}
	return p, nil
}
