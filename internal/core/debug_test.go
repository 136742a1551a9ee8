package core

import "repro/internal/ranker"

// Every core test runs with the shard-closure assertions armed: ingest
// panics if a Channel ever resolves to two live components (the invariant
// the shard-aware Fig. 5 predicate rests on), and the ranker cross-checks
// its bufferedSends index before committing an exact-mode noise drop.
// Production builds keep both off; see debugShardClosure and ranker.Debug.
func init() {
	debugShardClosure = true
	ranker.Debug = true
}
