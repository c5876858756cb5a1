package main

import (
	"testing"

	slicing "github.com/gossipkit/slicing"
)

func TestParsePeers(t *testing.T) {
	tests := []struct {
		name    string
		arg     string
		want    map[slicing.ID]string
		wantErr bool
	}{
		{"empty", "", map[slicing.ID]string{}, false},
		{"single", "2=127.0.0.1:7002", map[slicing.ID]string{2: "127.0.0.1:7002"}, false},
		{
			"multiple with spaces", "2=127.0.0.1:7002, 3=10.0.0.5:7003",
			map[slicing.ID]string{2: "127.0.0.1:7002", 3: "10.0.0.5:7003"}, false,
		},
		{"missing equals", "2:127.0.0.1", nil, true},
		{"bad id", "abc=127.0.0.1:7002", nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parsePeers(tt.arg)
			if (err != nil) != tt.wantErr {
				t.Fatalf("parsePeers(%q) error = %v, wantErr %v", tt.arg, err, tt.wantErr)
			}
			if err != nil {
				return
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %d peers, want %d", len(got), len(tt.want))
			}
			for id, addr := range tt.want {
				if got[id] != addr {
					t.Errorf("peer %v = %q, want %q", id, got[id], addr)
				}
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -id accepted")
	}
	if err := run([]string{"-id", "1", "-protocol", "bogus"}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run([]string{"-id", "1", "-slices", "0"}); err == nil {
		t.Error("zero slices accepted")
	}
	if err := run([]string{"-id", "1", "-peers", "zzz"}); err == nil {
		t.Error("bad peer book accepted")
	}
}

func TestParseArgsSeedDerivedFromID(t *testing.T) {
	set, err := parseArgs([]string{"-id", "42"})
	if err != nil {
		t.Fatal(err)
	}
	if set.seed != 42 {
		t.Errorf("seed = %d, want derived 42", set.seed)
	}
}
