package retina

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSpecFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "subs.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSubscriptionSpecs(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantN   int
		wantErr string
	}{
		{
			name: "valid pair",
			json: `[
				{"name": "all", "filter": "ipv4", "callback": "packets"},
				{"name": "dns", "filter": "udp.port = 53", "callback": "connections"}
			]`,
			wantN: 2,
		},
		{
			name: "valid with aggregate",
			json: `[{"name": "dns-top", "filter": "udp.port = 53", "callback": "packets",
				"aggregate": {"op": "topk", "key": "src_ip", "window": "1s", "k": 5}}]`,
			wantN: 1,
		},
		{
			name:    "duplicate names",
			json:    `[{"name": "x", "filter": "ipv4", "callback": "packets"}, {"name": "x", "filter": "tcp", "callback": "packets"}]`,
			wantErr: `duplicates name "x"`,
		},
		{
			name:    "missing name",
			json:    `[{"filter": "ipv4", "callback": "packets"}]`,
			wantErr: "has no name",
		},
		{
			name:    "empty filter",
			json:    `[{"name": "x", "filter": "", "callback": "packets"}]`,
			wantErr: "empty filter",
		},
		{
			name:    "unparseable filter",
			json:    `[{"name": "x", "filter": "tcp &&& udp", "callback": "packets"}]`,
			wantErr: `spec "x"`,
		},
		{
			name:    "unknown field in filter",
			json:    `[{"name": "x", "filter": "tcp.bogus_field = 1", "callback": "packets"}]`,
			wantErr: `spec "x"`,
		},
		{
			name:    "unknown callback kind",
			json:    `[{"name": "x", "filter": "ipv4", "callback": "flows"}]`,
			wantErr: "unknown callback kind",
		},
		{
			name:    "bad aggregate op",
			json:    `[{"name": "x", "filter": "ipv4", "callback": "packets", "aggregate": {"op": "median"}}]`,
			wantErr: "unknown op",
		},
		{
			name:    "bad aggregate window",
			json:    `[{"name": "x", "filter": "ipv4", "callback": "packets", "aggregate": {"op": "count", "window": "soon"}}]`,
			wantErr: "bad window",
		},
		{
			name:    "not json",
			json:    `{"name": "x"}`,
			wantErr: "parsing subscription specs",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSpecFile(t, tc.json)
			specs, err := LoadSubscriptionSpecs(path)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got err %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("LoadSubscriptionSpecs: %v", err)
			}
			if len(specs) != tc.wantN {
				t.Fatalf("got %d specs, want %d", len(specs), tc.wantN)
			}
		})
	}
}

func TestLoadSubscriptionSpecsMissingFile(t *testing.T) {
	if _, err := LoadSubscriptionSpecs(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestLoadSubscriptionSpecsErrorNamesOffender: validation errors must
// identify the failing spec so a user editing a many-entry file knows
// where to look.
func TestLoadSubscriptionSpecsErrorNamesOffender(t *testing.T) {
	path := writeSpecFile(t, `[
		{"name": "good", "filter": "ipv4", "callback": "packets"},
		{"name": "bad-agg", "filter": "tcp", "callback": "packets", "aggregate": {"op": "count", "key": "nosuch"}}
	]`)
	_, err := LoadSubscriptionSpecs(path)
	if err == nil || !strings.Contains(err.Error(), "bad-agg") {
		t.Fatalf("error %v does not name the offending spec", err)
	}
}

func TestSubscriptionSpecRoundTrip(t *testing.T) {
	in := SubscriptionSpec{
		Name: "t", Filter: "udp.port = 53", Callback: "packets",
		Aggregate: &AggregateSpec{Op: "topk", Key: "src_ip", Window: "1s", K: 3},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out SubscriptionSpec
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Aggregate == nil || *out.Aggregate != *in.Aggregate {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// TestRunSummaryRenderers pins the subscription table and the rebalance
// line that retina-pcap and retina-bench print after a run.
func TestRunSummaryRenderers(t *testing.T) {
	var b strings.Builder
	WriteSubscriptionTable(&b, []SubscriptionInfo{
		{ID: 0, Name: "web", Level: "packet", Delivered: 1234, MatchedConns: 0, Filter: "tcp.port = 80"},
		{ID: 12, Name: "tls-handshakes", Level: "session", Delivered: 7, MatchedConns: 9, Filter: "tls"},
	})
	want := "id  name                  level       delivered  matched-conns  filter\n" +
		"0   web                   packet           1234              0  tcp.port = 80\n" +
		"12  tls-handshakes        session             7              9  tls\n"
	if b.String() != want {
		t.Fatalf("subscription table:\n%s\nwant:\n%s", b.String(), want)
	}

	st := RebalanceStatus{Moves: 3, ConnsMigrated: 41, Rounds: 10, FailedMoves: 1, LastSkew: 1.234, LastError: "ignored"}
	if got, want := st.String(), "rebalance: 3 bucket moves, 41 conns migrated, 10 rounds (1 failed moves), last skew 1.23"; got != want {
		t.Fatalf("rebalance line = %q, want %q", got, want)
	}
}
