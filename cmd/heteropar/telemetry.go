package main

import (
	"fmt"
	"io"

	heteropar "repro"
	"repro/internal/solstore"
)

// renderTelemetry writes the combined -stats block — solver table,
// optional region-store summary with its front-end stage, metrics
// table — through one writer in a fixed section order. Kept free of
// direct os.* references so the golden test pins the exact combined
// layout. The sinks behind the writer (live server, event file) are
// wired by internal/clitelemetry, shared with the other CLIs.
func renderTelemetry(w io.Writer, solverStats string, store *solstore.Stats, metrics string) {
	fmt.Fprintf(w, "\n--- solver statistics ---\n%s", solverStats)
	if store != nil {
		fmt.Fprintf(w, "\n--- region store ---\nhits %d  misses %d  dedups %d  evictions %d  entries %d  hit rate %.0f%%\n",
			store.Hits, store.Misses, store.Dedups, store.Evictions, store.Entries, 100*store.HitRate())
		fe := store.FrontEnd
		fmt.Fprintf(w, "front-end hits %d  misses %d  dedups %d  evictions %d  entries %d\n",
			fe.Hits, fe.Misses, fe.Dedups, fe.Evictions, fe.Entries)
	}
	fmt.Fprintf(w, "\n--- metrics ---\n%s", metrics)
}

// resolveStoreStats snapshots the region store when one is configured.
func resolveStoreStats(store *heteropar.SolutionStore) *solstore.Stats {
	if store == nil {
		return nil
	}
	st := store.Stats()
	return &st
}
