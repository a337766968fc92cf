// Command permbench regenerates the performance-shaped experiments whose
// numbers PERFORMANCE.md records (the end-to-end wire-path benchmark lives in
// benchmark/, see benchmark/README.md):
// E5 (provenance overhead by query class), E6 (rewrite strategy ablation),
// E7 (lazy vs eager provenance) and E8 (incremental provenance via
// BASERELATION and external provenance).
//
// Usage:
//
//	permbench                      # run everything at default sizes
//	permbench -exp overhead -sizes 100,1000,10000 -reps 5
//	permbench -exp strategy -n 5000
//	permbench -exp lazyeager -n 5000 -uses 50
//	permbench -exp incremental -n 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"perm/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: overhead, strategy, lazyeager, incremental, all")
	sizesFlag := flag.String("sizes", "100,1000,10000", "dataset sizes for -exp overhead")
	n := flag.Int("n", 2000, "dataset size for single-size experiments")
	reps := flag.Int("reps", 3, "repetitions per measurement (median reported)")
	uses := flag.Int("uses", 20, "number of provenance re-uses for -exp lazyeager")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "permbench:", err)
		os.Exit(1)
	}

	var tables []*bench.Table
	switch *exp {
	case "overhead":
		t, err := bench.RunOverhead(sizes, *reps)
		exitOn(err)
		tables = append(tables, t)
	case "strategy":
		t, err := bench.RunStrategies(*n, *reps)
		exitOn(err)
		tables = append(tables, t)
	case "lazyeager":
		t, err := bench.RunLazyEager(*n, *uses, *reps)
		exitOn(err)
		tables = append(tables, t)
	case "incremental":
		t, err := bench.RunIncremental(*n, *reps)
		exitOn(err)
		tables = append(tables, t)
	case "all":
		ts, err := bench.RunAll(sizes, *reps)
		exitOn(err)
		tables = ts
	default:
		fmt.Fprintf(os.Stderr, "permbench: unknown experiment %q\n", *exp)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.Format())
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "permbench:", err)
		os.Exit(1)
	}
}
