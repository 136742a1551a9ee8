package core

import "repro/internal/ranker"

// Every core test runs with the shard-closure assertions armed: ingest
// panics if a Channel ever resolves to two live components (the invariant
// the shard-aware Fig. 5 predicate rests on), and the ranker checks each
// delivered candidate's ordinals against the engine and cross-checks its
// bufferedSends counter against the buffer before every is_noise answer.
// Production builds keep both off; see debugShardClosure and ranker.Debug.
func init() {
	debugShardClosure = true
	ranker.Debug = true
}
