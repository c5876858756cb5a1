package metrics

import (
	"strings"
	"testing"
)

func TestSeriesAddLast(t *testing.T) {
	var s Series
	if _, ok := s.Last(); ok {
		t.Error("Last on empty series should report !ok")
	}
	s.Add(1, 10)
	s.Add(2, 5)
	p, ok := s.Last()
	if !ok || p.Cycle != 2 || p.Value != 5 {
		t.Errorf("Last = %+v, %v", p, ok)
	}
}

func TestSeriesAt(t *testing.T) {
	s := Series{Name: "sdm"}
	s.Add(0, 100)
	s.Add(10, 50)
	if v, ok := s.At(10); !ok || v != 50 {
		t.Errorf("At(10) = %v,%v", v, ok)
	}
	if _, ok := s.At(5); ok {
		t.Error("At(5) should report !ok")
	}
}

func TestWriteCSVAlignsSeries(t *testing.T) {
	a := Series{Name: "jk"}
	a.Add(0, 1)
	a.Add(1, 2)
	b := Series{Name: "mod-jk"}
	b.Add(1, 20)
	b.Add(2, 30)
	var sb strings.Builder
	if err := WriteCSV(&sb, "cycle", a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := []string{
		"cycle,jk,mod-jk",
		"0,1,",
		"1,2,20",
		"2,,30",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestTableAlignment(t *testing.T) {
	tab := NewTable("cycle", "sdm")
	tab.AddRow(1, 123.456)
	tab.AddRow(100, 7.0)
	var sb strings.Builder
	if _, err := tab.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	if !strings.HasPrefix(lines[0], "cycle") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "123.456") {
		t.Errorf("row 1 = %q", lines[1])
	}
	// Columns align: "100" starts at the same offset as "1".
	if strings.Index(lines[1], "1") != strings.Index(lines[2], "1") {
		t.Errorf("misaligned columns:\n%s", sb.String())
	}
}
