package realbench

import "testing"

// TestHedgedTailImprovement is the acceptance gate for the cluster layer:
// under 10% uplink loss with 2% server-side 20ms stragglers, hedged reads
// must cut p99 by at least 2x while issuing no more than 15% extra wire
// calls. The margins are deliberately huge — unhedged p99 is pinned at the
// straggler delay (2% > 1%), hedged p99 at roughly the hedge delay plus a
// loss-recovery round trip — so the assertion holds across machine speeds.
func TestHedgedTailImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster sweep")
	}
	results, err := ClusterSweep(ClusterOptions{CallsPerThread: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	var unhedged, hedged ClusterCell
	for _, r := range results {
		if r.Hedged {
			hedged = r
		} else {
			unhedged = r
		}
	}
	for _, r := range []ClusterCell{unhedged, hedged} {
		if r.N == 0 || r.NsPerOp <= 0 || r.P99Us <= 0 || r.CallsPerSec <= 0 {
			t.Fatalf("degenerate cell: %+v", r)
		}
		if r.Replicas != 3 {
			t.Fatalf("replicas = %d, want 3: %+v", r.Replicas, r)
		}
	}
	t.Logf("unhedged: p99 %.1fµs mean %.0fns issued/call %.3f", unhedged.P99Us, unhedged.NsPerOp, unhedged.IssuedPerCall)
	t.Logf("hedged:   p99 %.1fµs mean %.0fns issued/call %.3f", hedged.P99Us, hedged.NsPerOp, hedged.IssuedPerCall)

	if hedged.P99Us*2 > unhedged.P99Us {
		t.Errorf("hedged p99 %.1fµs not 2x better than unhedged %.1fµs", hedged.P99Us, unhedged.P99Us)
	}
	if hedged.IssuedPerCall > 1.15 {
		t.Errorf("hedged issued/call %.3f exceeds 1.15 budget", hedged.IssuedPerCall)
	}
	// The unhedged cell must not secretly issue extra calls: one logical
	// call, one wire call (retransmissions are frames, not new calls).
	if unhedged.IssuedPerCall != 1.0 {
		t.Errorf("unhedged issued/call = %.3f, want exactly 1.0", unhedged.IssuedPerCall)
	}
}
