package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultSet is the -out document: the full record of every child run.
type resultSet struct {
	Runs []report `json:"runs"`
}

func readResultSet(path string) (resultSet, error) {
	var rs resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// runAll runs every workload, timed then traced, each in a child
// process of its own: peak_rss_mb is then per workload, and no workload
// can warm a memo, a cache or the heap for another.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	record := filepath.Join(o.outDir, "child.json")
	defer os.Remove(record)
	var all resultSet
	failed := 0
	for pass := 0; pass < o.passes; pass++ {
		for _, w := range workloads {
			for trace := 0; trace <= 1; trace++ {
				args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
					"-outdir", o.outDir, "-out", record}
				if o.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
				}
				rs, err := readResultSet(record)
				if err != nil {
					return err
				}
				for _, r := range rs.Runs {
					failed += r.Failed
				}
				all.Runs = append(all.Runs, rs.Runs...)
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, all); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}
