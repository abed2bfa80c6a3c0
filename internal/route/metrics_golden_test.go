package route

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/snapshot.golden.json from this run")

// TestGoldenSnapshot pins the router's /v1/metrics document over one
// ready shard (uptime, the shard's URL and its probe age masked).
func TestGoldenSnapshot(t *testing.T) {
	r := newTestRouter(t, Options{}, newFakeShard(t, "s1"))
	snap := r.Snapshot()
	snap.UptimeMs = 0
	for i := range snap.Shards {
		snap.Shards[i].URL = ""
		snap.Shards[i].LastProbeAgoMs = 0
	}
	sameJSON(t, "testdata/snapshot.golden.json", snap)
}

// sameJSON compares a document with its golden file as decoded JSON;
// -update rewrites the file.
func sameJSON(t *testing.T, path string, doc any) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("document differs from %s as decoded JSON; got:\n%s", path, buf.String())
	}
}
