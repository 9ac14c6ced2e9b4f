package obs

// Canonical metric names. Instrumentation sites across the pipeline use
// these constants so dashboards, the /metrics exposition, and the
// -metrics JSON dumps agree on series identity. Label keys appear in the
// comments; keep label order fixed at call sites (series identity is the
// ordered label list).
const (
	// StageSeconds times one pipeline stage: labels {stage}. Stages are
	// the Figure-2 guide steps: downsample, try_blockers, block,
	// sample_label, feature, cv, train, predict.
	StageSeconds = "em_stage_seconds"

	// BlockSeconds times one whole Block call: labels {blocker}.
	BlockSeconds = "em_block_seconds"
	// BlockShardSeconds times one chunk of a sharded blocker's probe scan:
	// labels {blocker}.
	BlockShardSeconds = "em_block_shard_seconds"
	// BlockPairsEmitted counts candidate pairs a blocker emitted:
	// labels {blocker}.
	BlockPairsEmitted = "em_block_pairs_emitted_total"
	// BlockPairsConsidered counts pairs a blocker examined before
	// filtering (for cross-product blockers, |L|x|R|): labels {blocker}.
	BlockPairsConsidered = "em_block_pairs_considered_total"

	// CVFoldSeconds times one cross-validation fold: labels {matcher}.
	CVFoldSeconds = "em_cv_fold_seconds"
	// CVSeconds times one whole cross-validation run: labels {matcher}.
	CVSeconds = "em_cv_seconds"
	// ForestTreeFitSeconds times one tree fit inside RandomForest.Fit.
	ForestTreeFitSeconds = "em_forest_tree_fit_seconds"
	// ForestFitSeconds times one whole RandomForest.Fit call.
	ForestFitSeconds = "em_forest_fit_seconds"

	// SimjoinSeconds times one similarity join: labels {join}.
	SimjoinSeconds = "em_simjoin_seconds"
	// SimjoinCandidates counts a join's prefix-filter candidates: pairs
	// verified, or for the overlap join, which verifies nothing, distinct
	// right records a probe reached. Labels {join}.
	SimjoinCandidates = "em_simjoin_candidates_total"
	// SimjoinPairs counts pairs a join emitted: labels {join}.
	SimjoinPairs = "em_simjoin_pairs_total"

	// FeatureExtractSeconds times one feature.Vectors call.
	FeatureExtractSeconds = "em_feature_extract_seconds"
	// FeatureVectors counts feature vectors extracted.
	FeatureVectors = "em_feature_vectors_total"
	// FeaturePairGroups counts, over feature.Vectors scans, the attribute
	// groups of pairs that were scored and those whose scores the scan had
	// already computed for the same two values: labels {result}
	// (scored|reused). reused / (scored + reused) is the reuse rate. Under
	// feature.Select a group's cheap prefix counts as a group of its own.
	FeaturePairGroups = "em_feature_pair_groups_total"
	// FeatureTokenBlocks counts, over feature.Vectors scans, the
	// right-hand tokens monge_elkan_jw scored against the scan's left bag
	// and those whose scores the scan's token memo already held: labels
	// {result} (scored|reused).
	FeatureTokenBlocks = "em_feature_token_blocks_total"

	// ServeIngestTotal counts corpus mutations: labels {op}
	// (add|update|delete).
	ServeIngestTotal = "em_serve_ingest_total"
	// ServeCorpusRecords gauges live records resident in a corpus.
	ServeCorpusRecords = "em_serve_corpus_records"
	// ServeCorpusTombstones gauges tombstoned slots awaiting compaction.
	ServeCorpusTombstones = "em_serve_corpus_tombstones"
	// ServeCompactionsTotal counts postings compaction passes.
	ServeCompactionsTotal = "em_serve_compactions_total"
	// ServeMatchSeconds times one whole MatchOne call.
	ServeMatchSeconds = "em_serve_match_seconds"
	// ServeStageSeconds times one MatchOne stage: labels {stage}
	// (candidates|features|score).
	ServeStageSeconds = "em_serve_stage_seconds"
	// ServePairGroups is FeaturePairGroups over MatchOne's scans, flushed
	// once per request: labels {result} (scored|reused).
	ServePairGroups = "em_serve_pair_groups_total"
	// ServeTokenBlocks is FeatureTokenBlocks over MatchOne's scans,
	// flushed once per request: labels {result} (scored|reused).
	ServeTokenBlocks = "em_serve_token_blocks_total"
	// ServeQueueDepth gauges match requests waiting in a pool for a run slot.
	ServeQueueDepth = "em_serve_queue_depth"
	// ServeQueueWaitSeconds times one request's wait inside Pool.Match for
	// a run slot.
	ServeQueueWaitSeconds = "em_serve_queue_wait_seconds"
	// ServeRequestsTotal counts settled match requests:
	// labels {status} (ok|error|overloaded).
	ServeRequestsTotal = "em_serve_requests_total"

	// CloudQueueDepth gauges fragments waiting for an engine worker:
	// labels {engine}.
	CloudQueueDepth = "cloud_engine_queue_depth"
	// CloudStepsInFlight gauges fragments currently executing on an
	// engine: labels {engine}.
	CloudStepsInFlight = "cloud_engine_steps_in_flight"
	// CloudJobsInFlight gauges jobs between Submit entry and return.
	CloudJobsInFlight = "cloud_jobs_in_flight"
	// CloudJobsTotal counts finished jobs: labels {status} (ok|error).
	CloudJobsTotal = "cloud_jobs_total"
	// CloudStepSeconds times one executed DAG step: labels {service}.
	CloudStepSeconds = "cloud_step_seconds"
	// CloudStepsTotal counts settled DAG steps:
	// labels {service, status} (ok|error|skipped|cancelled).
	CloudStepsTotal = "cloud_steps_total"
)

// DescribeStandard attaches help text for every canonical metric name to
// the registry and pre-declares the cloud gauge families for the three
// engines, so a fresh /metrics page documents the full schema before any
// pipeline traffic arrives.
func DescribeStandard(g *Registry) {
	for _, d := range []struct{ name, help string }{
		{StageSeconds, "Duration of one EM pipeline stage (Figure-2 guide step)."},
		{BlockSeconds, "Duration of one blocker Block call."},
		{BlockShardSeconds, "Duration of one probe chunk inside a sharded blocker."},
		{BlockPairsEmitted, "Candidate pairs emitted by a blocker."},
		{BlockPairsConsidered, "Pairs a blocker examined before filtering."},
		{CVFoldSeconds, "Duration of one cross-validation fold."},
		{CVSeconds, "Duration of one full cross-validation run."},
		{ForestTreeFitSeconds, "Duration of one tree fit inside RandomForest.Fit."},
		{ForestFitSeconds, "Duration of one RandomForest.Fit call."},
		{SimjoinSeconds, "Duration of one similarity join."},
		{SimjoinCandidates, "Prefix-filter candidates of a similarity join: pairs verified, or right records an overlap probe reached."},
		{SimjoinPairs, "Pairs emitted by a similarity join."},
		{FeatureExtractSeconds, "Duration of one feature-vector extraction pass."},
		{FeatureVectors, "Feature vectors extracted."},
		{FeaturePairGroups, "Attribute groups of extracted pairs, by result (scored|reused from the scan's memo)."},
		{FeatureTokenBlocks, "Right-hand tokens Monge-Elkan met in extraction scans, by result (scored|reused from the scan's token memo)."},
		{ServeIngestTotal, "Corpus mutations by op (add|update|delete)."},
		{ServeCorpusRecords, "Live records resident in a serving corpus."},
		{ServeCorpusTombstones, "Tombstoned corpus slots awaiting compaction."},
		{ServeCompactionsTotal, "Postings compaction passes."},
		{ServeMatchSeconds, "Duration of one MatchOne call."},
		{ServeStageSeconds, "Duration of one MatchOne stage (candidates|features|score)."},
		{ServePairGroups, "Attribute groups of scored candidates, by result (scored|reused from the query's memo)."},
		{ServeTokenBlocks, "Candidate tokens Monge-Elkan met in a query's scan, by result (scored|reused from the query's token memo)."},
		{ServeQueueDepth, "Match requests waiting in a serve pool queue."},
		{ServeQueueWaitSeconds, "Wait inside a serve pool for a run slot."},
		{ServeRequestsTotal, "Settled match submissions by status (ok|error|overloaded)."},
		{CloudQueueDepth, "Fragments waiting for an engine worker."},
		{CloudStepsInFlight, "Fragments currently executing on an engine."},
		{CloudJobsInFlight, "Jobs between Submit entry and return."},
		{CloudJobsTotal, "Finished jobs by status (ok|error)."},
		{CloudStepSeconds, "Duration of one executed DAG step."},
		{CloudStepsTotal, "Settled DAG steps by service and status."},
	} {
		g.Describe(d.name, d.help)
	}
	for _, engine := range []string{"batch", "user", "crowd"} {
		g.DeclareGauge(CloudQueueDepth, L("engine", engine))
		g.DeclareGauge(CloudStepsInFlight, L("engine", engine))
	}
	g.DeclareGauge(CloudJobsInFlight)
}
