package telemetry

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// updateGolden regenerates the exposition goldens under testdata/:
// go test ./internal/telemetry -run TestGoldenExposition -update-golden.
// The committed files pin the wire and text formats; regenerating them is
// only right for a deliberate format change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/snapshot.{json,txt} and testdata/merged.json")

// goldenRegistry is the fixed registry the goldens describe: a counter with
// a per-shard breakdown, one whose mass sits on a single shard, a gauge, a
// latency histogram with both overflows, and a registered-but-empty one.
func goldenRegistry() *Registry {
	r := New(4)
	c := r.Counter("pool.tasks_completed")
	c.Add(0, 2)
	c.Add(1, 3)
	c.Add(3, 11)
	r.Counter("pool.tasks_abandoned").Add(2, 4)
	r.Gauge("pool.queue_depth").Set(-7)
	h := r.LatencyHistogram("pool.latency_s")
	h.Observe(0, 3e-7) // low overflow
	h.Observe(1, 42)   // high overflow
	for i := 1; i <= 200; i++ {
		h.Observe(i, float64(i)*1.7e-5)
	}
	r.LatencyHistogram("pool.stage_crc_s")
	return r
}

func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := "testdata/" + file
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestGoldenExposition pins the JSON encoding and the text exposition of
// one fixed registry byte for byte, and the JSON of its snapshot merged
// with itself — the forms a scraper, a stats report and an operator read.
func TestGoldenExposition(t *testing.T) {
	snap := goldenRegistry().Snapshot()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.json", append(data, '\n'))
	var text bytes.Buffer
	if err := snap.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "snapshot.txt", text.Bytes())
	merged, err := MergeAll(snap, snap)
	if err != nil {
		t.Fatal(err)
	}
	data, err = merged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "merged.json", append(data, '\n'))
}
