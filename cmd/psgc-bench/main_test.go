package main

import (
	"os"
	"strings"
	"testing"
)

// stdout runs f and returns what it printed to standard output.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	defer func() { os.Stdout = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// rows splits a table's data rows (after the header) into trimmed
// columns, keeping the rows with exactly n columns.
func rows(out string, n int) [][]string {
	var rs [][]string
	for _, line := range strings.Split(out, "\n")[1:] {
		cols := strings.Split(line, "|")
		if len(cols) != n {
			continue
		}
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		rs = append(rs, cols)
	}
	return rs
}

// TestExperiments runs every experiment table except e7, a per-step
// soundness sweep that takes about a minute and that internal/gen already
// runs, and e10, a timing bound. An experiment that fails exits the test
// binary through log.Fatal. E1 must reproduce the reference result in
// every row, and E3's λGC forwarding collector must copy exactly as many
// cells as the Go baseline collector.
func TestExperiments(t *testing.T) {
	for _, e := range experiments {
		if e.id == "e7" || e.id == "e10" {
			continue
		}
		t.Run(e.id, func(t *testing.T) {
			out := stdout(t, e.run)
			if out == "" {
				t.Fatal("printed nothing")
			}
			switch e.id {
			case "e1":
				rs := rows(out, 7)
				if len(rs) != 12 {
					t.Errorf("%d E1 rows, want 12 (4 capacities × 3 collectors):\n%s", len(rs), out)
				}
				for _, r := range rs {
					if r[2] != "true" {
						t.Errorf("result ok is %q for capacity %s, %s", r[2], r[0], r[1])
					}
				}
			case "e3":
				rs := rows(out, 5)
				if len(rs) != 5 {
					t.Errorf("%d E3 rows, want 5 (depths 2, 4, …, 10):\n%s", len(rs), out)
				}
				for _, r := range rs {
					if r[3] != r[4] {
						t.Errorf("depth %s: forwarding copied %s cells, the Go baseline %s", r[0], r[3], r[4])
					}
				}
			}
		})
	}
}
