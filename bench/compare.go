package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// resultSet holds one result per workload; it is what -out writes and
// -compare reads.
type resultSet map[string]result

func writeResults(path string, rs resultSet) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// worsening is how much worse b is than a, as a share of a.
func (bd bound) worsening(a, b float64) float64 {
	if bd.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// loadBounds reads the end-to-end metrics and their bounds from the
// BENCHMARK.json of the checkout the harness runs in.
func loadBounds() ([]bound, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

// runChild runs one workload, or the layer suite, in a process of its own,
// so that its peak RSS, CPU time, GOMAXPROCS and CPU placement are its own,
// and returns the result the child printed as its last line. With echo set
// the child's other lines are passed on. The child is told that its parent
// sees to the layer suite.
func runChild(name string, o options, echo bool) (result, error) {
	var res result
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self,
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	cmd.Env = append(os.Environ(), parentRunsLayers+"=1")
	cmd.SysProcAttr = childAttr()
	runErr := cmd.Run() // a breach exits non-zero after printing its result
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && echo {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload once and reports whether all were correct.
func runAll(o options, echo bool) (resultSet, bool) {
	all, ok := resultSet{}, true
	for _, spec := range workloads {
		res, err := runChild(spec.name, o, echo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
			continue
		}
		all[spec.name] = res
		ok = ok && res.Correct
	}
	return all, ok
}

// aaPasses is the number of passes in each of the two sets of -aa: ten, one
// per seed, as the benchmark's acceptance check takes them.
const aaPasses = 10

// runAA runs two sets of passes of the same code, each pass on another seed,
// and prints for every workload and end-to-end metric the spread inside the
// first set and the gap between the sets' medians against the metric's
// bound. It returns the exit code: 1 when a gap exceeds its bound or a run
// was incorrect.
func runAA(o options, out string) int {
	bounds, err := loadBounds()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# %s\n", machine())
	code := 0
	sets := [2][]resultSet{}
	for s := range sets {
		for p := 0; p < aaPasses; p++ {
			po := o
			po.seed = o.seed + int64(p)
			rs, ok := runAll(po, false)
			if !ok {
				code = 1
			}
			sets[s] = append(sets[s], rs)
			fmt.Printf("# set %c pass %d of %d done\n", 'A'+s, p+1, aaPasses)
			if out != "" {
				if err := writeResults(fmt.Sprintf("%s.%c%d", out, 'A'+s, p+1), rs); err != nil {
					fatal(err)
				}
			}
		}
	}
	fmt.Printf("%-14s %-20s %14s %14s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "spread", "gap", "bound")
	for _, spec := range workloads {
		for _, bd := range bounds {
			var vals [2][]float64
			for s := range sets {
				for _, rs := range sets[s] {
					if m, ok := rs[spec.name].Metrics[bd.Name]; ok {
						vals[s] = append(vals[s], m.Value)
					}
				}
			}
			if len(vals[0]) == 0 || len(vals[1]) == 0 {
				fmt.Printf("%-14s %-20s missing\n", spec.name, bd.Name)
				code = 1
				continue
			}
			q1, q3 := quartiles(vals[0])
			ma, mb := median(vals[0]), median(vals[1])
			gap := bd.worsening(ma, mb)
			verdict := ""
			if gap > bd.Bound {
				verdict = "  BEYOND BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %7.2f%% %+7.2f%% %7.2f%%%s\n",
				spec.name, bd.Name, ma, mb, 100*(q3-q1)/ma, 100*gap, 100*bd.Bound, verdict)
		}
	}
	return code
}

// compareFiles holds the results in newPath against those in oldPath with
// the bounds of BENCHMARK.json and returns the exit code of compareResults.
func compareFiles(oldPath, newPath string) int {
	bounds, err := loadBounds()
	if err != nil {
		fatal(err)
	}
	olds, err := readResults(oldPath)
	if err != nil {
		fatal(err)
	}
	news, err := readResults(newPath)
	if err != nil {
		fatal(err)
	}
	return compareResults(bounds, olds, news)
}

// compareResults prints every workload of olds against news and returns the
// exit code: 1 when a metric got worse by more than its bound or cannot be
// compared, or a workload's outputs were wrong on either side. A file may
// hold a single workload, so one that olds lacks is skipped.
func compareResults(bounds []bound, olds, news resultSet) int {
	code := 0
	fmt.Printf("%-14s %-20s %14s %14s %8s %8s\n", "workload", "metric", "old", "new", "worse", "bound")
	for _, spec := range workloads {
		oldRes, ok := olds[spec.name]
		if !ok {
			continue
		}
		newRes, ok := news[spec.name]
		if !ok || !newRes.Correct || !oldRes.Correct {
			fmt.Printf("%-14s missing from the new results, or incorrect in either\n", spec.name)
			code = 1
			continue
		}
		for _, bd := range bounds {
			a, okA := oldRes.Metrics[bd.Name]
			b, okB := newRes.Metrics[bd.Name]
			if !okA || !okB || !(a.Value > 0) {
				fmt.Printf("%-14s %-20s missing on one side, or not positive in the old results\n", spec.name, bd.Name)
				code = 1
				continue
			}
			worse := bd.worsening(a.Value, b.Value)
			verdict := ""
			if !(worse <= bd.Bound) { // NaN is a regression too
				verdict = "  REGRESSION"
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %+7.2f%% %7.2f%%%s\n",
				spec.name, bd.Name, a.Value, b.Value, 100*worse, 100*bd.Bound, verdict)
		}
	}
	return code
}
