package main

import (
	"errors"
	"testing"

	slicing "github.com/gossipkit/slicing"
	"github.com/gossipkit/slicing/internal/core"
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
		{"largest 32-bit id", "4294967295=127.0.0.1:7002", map[slicing.ID]string{core.MaxID: "127.0.0.1:7002"}, false},
		{"id past 32 bits", "4294967296=127.0.0.1:7002", nil, true},
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

// -id is 32-bit: the largest ID parses, one past it is an error rather
// than a truncation onto another node's ID (2³² would become 0, 2³²+1
// node 1).
func TestParseArgsIDRange(t *testing.T) {
	set, err := parseArgs([]string{"-id", "4294967295"})
	if err != nil {
		t.Fatal(err)
	}
	if set.id != core.MaxID {
		t.Errorf("id = %v, want %v", set.id, core.MaxID)
	}
	for _, arg := range []string{"4294967296", "4294967297"} {
		if _, err := parseArgs([]string{"-id", arg}); !errors.Is(err, core.ErrIDRange) {
			t.Errorf("-id %s: error = %v, want ErrIDRange", arg, err)
		}
	}
	if _, err := parseArgs([]string{"-id", "1", "-peers", "4294967297=127.0.0.1:7002"}); !errors.Is(err, core.ErrIDRange) {
		t.Errorf("-peers with a 33-bit id: error = %v, want ErrIDRange", err)
	}
}
