// Command benchfmt turns `go test -bench` text output into the repo's
// BENCH_<n>.json perf-trajectory snapshots and compares snapshots for
// regressions.
//
// Snapshot mode (default) reads bench output on stdin and writes the
// next-numbered BENCH_<n>.json in -dir:
//
//	go test -bench=. -benchmem -run='^$' ./... | benchfmt -dir .
//
// Diff mode compares the two newest snapshots and exits non-zero when a
// gated hot-path benchmark regressed by more than -threshold (default
// 20%) in ns/op or allocs/op:
//
//	benchfmt -diff -dir .
//
// Machines differ, so snapshots are only comparable when produced on
// the same machine; the diff prints the recorded CPU strings so a
// cross-machine comparison is at least visible.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Snapshot is the BENCH_<n>.json schema.
type Snapshot struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Packages   []string `json:"packages,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// defaultGate names the hot-path benchmarks whose regression fails the
// diff: the simulation event core, the message codec, the transports,
// the rule engine's firing path, and the flight recorder. Scenario-level
// macro benchmarks are informational only — they are too noisy to gate
// on.
const defaultGate = `^Benchmark(SimScheduleStep|CodecMarshal|CodecUnmarshal|CodecRoundTrip|BusSend|NetRoundTrip|RuleFiring|AssertRetract|RetractMatching|FactsMatching|TraceAppend|InstrumentationPass|PolicyEvaluate)\b`

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
	diff := flag.Bool("diff", false, "compare the two newest snapshots instead of recording one")
	threshold := flag.Float64("threshold", 0.20, "relative regression that fails the diff")
	gate := flag.String("gate", defaultGate, "regexp of benchmark names the diff gates on")
	flag.Parse()

	if *diff {
		os.Exit(runDiff(*dir, *gate, *threshold))
	}
	os.Exit(record(*dir))
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// parseBench reads `go test -bench` output into a snapshot.
func parseBench(in *bufio.Scanner) (*Snapshot, error) {
	snap := &Snapshot{}
	seenPkg := map[string]bool{}
	seenBench := map[string]int{}
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg := strings.TrimPrefix(line, "pkg: ")
			if !seenPkg[pkg] {
				seenPkg[pkg] = true
				snap.Packages = append(snap.Packages, pkg)
			}
		default:
			m := benchLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			iters, _ := strconv.ParseInt(m[2], 10, 64)
			ns, _ := strconv.ParseFloat(m[3], 64)
			r := Result{Name: m[1], Iterations: iters, NsPerOp: ns}
			if m[4] != "" {
				r.BytesPerOp, _ = strconv.ParseFloat(m[4], 64)
			}
			if m[5] != "" {
				r.AllocsPerOp, _ = strconv.ParseFloat(m[5], 64)
			}
			// A benchmark can appear twice when the Makefile runs the
			// gated subset at a stable benchtime and the full sweep
			// once; keep the higher-iteration (more reliable) run.
			if i, ok := seenBench[r.Name]; ok {
				if r.Iterations > snap.Benchmarks[i].Iterations {
					snap.Benchmarks[i] = r
				}
				continue
			}
			seenBench[r.Name] = len(snap.Benchmarks)
			snap.Benchmarks = append(snap.Benchmarks, r)
		}
	}
	if err := in.Err(); err != nil {
		return nil, err
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin (pipe `go test -bench` output in)")
	}
	return snap, nil
}

// snapshots returns BENCH_<n>.json paths in dir sorted by n ascending.
func snapshots(dir string) ([]string, []int, error) {
	entries, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, nil, err
	}
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	var paths []string
	var nums []int
	for _, p := range entries {
		m := re.FindStringSubmatch(filepath.Base(p))
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		paths = append(paths, p)
		nums = append(nums, n)
	}
	sort.Sort(&byNum{paths, nums})
	return paths, nums, nil
}

type byNum struct {
	paths []string
	nums  []int
}

func (b *byNum) Len() int           { return len(b.nums) }
func (b *byNum) Less(i, j int) bool { return b.nums[i] < b.nums[j] }
func (b *byNum) Swap(i, j int) {
	b.paths[i], b.paths[j] = b.paths[j], b.paths[i]
	b.nums[i], b.nums[j] = b.nums[j], b.nums[i]
}

func record(dir string) int {
	snap, err := parseBench(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		return 1
	}
	_, nums, err := snapshots(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		return 1
	}
	next := 0
	if len(nums) > 0 {
		next = nums[len(nums)-1] + 1
	}
	out := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		return 1
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		return 1
	}
	fmt.Printf("benchfmt: wrote %s (%d benchmarks)\n", out, len(snap.Benchmarks))
	return 0
}

func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func runDiff(dir, gate string, threshold float64) int {
	gateRE, err := regexp.Compile(gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt: bad -gate:", err)
		return 1
	}
	paths, nums, err := snapshots(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		return 1
	}
	if len(paths) < 2 {
		fmt.Fprintf(os.Stderr, "benchfmt: need two snapshots in %s, found %d\n", dir, len(paths))
		return 1
	}
	oldPath, newPath := paths[len(paths)-2], paths[len(paths)-1]
	oldSnap, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		return 1
	}
	newSnap, err := load(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		return 1
	}
	fmt.Printf("benchfmt: BENCH_%d (%s) -> BENCH_%d (%s)\n",
		nums[len(nums)-2], oldSnap.CPU, nums[len(nums)-1], newSnap.CPU)
	if oldSnap.CPU != newSnap.CPU {
		fmt.Println("benchfmt: WARNING: snapshots come from different CPUs; deltas are indicative only")
	}

	oldBy := map[string]Result{}
	for _, r := range oldSnap.Benchmarks {
		oldBy[r.Name] = r
	}
	failed := 0
	for _, nr := range newSnap.Benchmarks {
		or, ok := oldBy[nr.Name]
		if !ok {
			continue
		}
		gated := gateRE.MatchString(nr.Name)
		nsDelta := rel(or.NsPerOp, nr.NsPerOp)
		allocDelta := rel(or.AllocsPerOp, nr.AllocsPerOp)
		status := "    "
		if gated && (nsDelta > threshold || allocDelta > threshold) {
			status = "FAIL"
			failed++
		} else if gated {
			status = "gate"
		}
		fmt.Printf("%s %-55s ns/op %10.1f -> %10.1f (%+6.1f%%)  allocs/op %6.0f -> %6.0f (%+6.1f%%)\n",
			status, nr.Name, or.NsPerOp, nr.NsPerOp, 100*nsDelta,
			or.AllocsPerOp, nr.AllocsPerOp, 100*allocDelta)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchfmt: %d gated benchmark(s) regressed more than %.0f%%\n", failed, 100*threshold)
		return 1
	}
	fmt.Println("benchfmt: no gated regressions")
	return 0
}

// rel is the relative change from old to new; 0 when old is 0 (a
// benchmark that allocated nothing before and now allocates is caught
// by ns/op, not by a division by zero).
func rel(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}
