package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports; its JSON form is the last
// line the harness prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the settings of one run.
type options struct {
	seed int64
	// seconds is the run length asked for. It fixes the number of segments
	// (segmentsFor); the wall time follows from the host.
	seconds float64
	// segments, when > 0, is the number of segments itself. Only the
	// package's own test sets it.
	segments int
	// tiny shrinks every input to a size that runs in milliseconds. Only the
	// package's own test sets it; its numbers are never reported.
	tiny  bool
	trace bool
}

// stopwatch accumulates the wall time, CPU time and allocations of the timed
// regions of one segment. A segment that checks outputs between program
// calls stops the watch around the check, so the check's time and
// allocations are the harness's and not the program's. A segment made of
// many equal parts calls lap after each, which times that block on its own.
type stopwatch struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
	laps           []lap // the caller's buffer, so that a lap allocates nothing

	t0, lapT time.Time
	c0, lapC time.Duration
	ms0      runtime.MemStats
}

// lap is the wall and CPU time of one block of a segment.
type lap struct{ wall, cpu time.Duration }

func (s *stopwatch) start() {
	runtime.ReadMemStats(&s.ms0)
	s.c0 = cpuTime()
	s.t0 = time.Now()
	s.lapT, s.lapC = s.t0, s.c0
}

// lap ends one block of the running segment and begins the next.
func (s *stopwatch) lap() {
	now, c := time.Now(), cpuTime()
	s.laps = append(s.laps, lap{now.Sub(s.lapT), c - s.lapC})
	s.lapT, s.lapC = now, c
}

func (s *stopwatch) stop() {
	s.wall += time.Since(s.t0)
	s.cpu += cpuTime() - s.c0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs += ms.Mallocs - s.ms0.Mallocs
	s.bytes += ms.TotalAlloc - s.ms0.TotalAlloc
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kib / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// hostCPU reads the host's cumulative steal and total CPU ticks.
func hostCPU() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// phase is one measured part of a workload: the same fixed-work segment run
// again and again.
type phase struct {
	name string
	// ops is the number of operations one segment completes.
	ops int
	// throughput and latency say which end-to-end metrics the phase feeds.
	throughput, latency bool
	// oneCPU marks work that is one thread deep: its segments run on one
	// CPU at a time, each round on the next one (see affinity_linux.go).
	oneCPU bool
	// segment runs segment i, timing its calls into the program through sw.
	// It returns the time each caller waited, in nanoseconds and in the
	// order the waits ended, when one segment holds several waits; nil means
	// the segment is a single wait. The slice is the segment's own and may
	// be reordered. A segment that laps the watch splits its ops, and its
	// waits, evenly over the laps.
	segment func(i int, sw *stopwatch) ([]int64, error)
}

// blockStat is what one block measured: a lap of a segment, or the whole
// segment when it did not lap.
type blockStat struct {
	traced    bool
	wall, cpu float64 // seconds per op
	p50       float64 // µs, the median wait
}

// phaseStats is what one phase measured.
type phaseStats struct {
	phase
	segments       int
	blocks         []blockStat
	mallocs, bytes uint64
}

// segmentsPerSecond turns the run length asked for into a segment count: 60
// segments at the default 20 s, a fifth of that for a traced run. The count
// depends on nothing the host does, so the rank the quiet estimate reads is
// the same on a fast host and a slow one; the wall time is what varies (15 to
// 30 s here, bench/README.md has the budget that sets the count).
const segmentsPerSecond = 3

func segmentsFor(o options) int {
	if o.segments > 0 {
		return o.segments
	}
	n := int(math.Round(segmentsPerSecond * o.seconds))
	if o.trace {
		n /= 5
	}
	return max(n, 4) // a traced run needs two rounds without spans and two with
}

// measure runs the phases' segments turn by turn, one segment of each phase
// per round, for a fixed number of rounds. Taking turns lets every phase
// see the whole run's host conditions, its quiet stretches included, where
// one phase after the other would give each only its own part of the run.
// Work that is one thread deep moves to the next allowed CPU every round
// (see affinity_linux.go). Tracing alternates in pairs of rounds, two without
// spans and two with, so both kinds meet every CPU and the same conditions.
func measure(phases []phase, o options, tr *tracer) ([]phaseStats, error) {
	stats := make([]phaseStats, len(phases))
	for p, ph := range phases {
		stats[p].phase = ph
	}
	rotor := newCPURotor()
	defer rotor.release()
	laps := make([]lap, 0, 64)
	for round, rounds := 0, segmentsFor(o); round < rounds; round++ {
		traced := o.trace && round%4 >= 2
		for p, ph := range phases {
			if ph.oneCPU {
				rotor.pin(round)
			}
			// Every segment starts from a collected heap, so that where the
			// collector's cycles fall inside a segment, and with them its
			// time and the peak RSS, repeats from segment to segment.
			runtime.GC()
			tr.enable(traced, ph.name, round)
			sw := stopwatch{laps: laps[:0]}
			lat, err := ph.segment(round, &sw)
			tr.enable(false, "", 0)
			if err != nil {
				return stats, fmt.Errorf("%s segment %d: %w", ph.name, round, err)
			}
			st := &stats[p]
			st.segments++
			st.mallocs += sw.mallocs
			st.bytes += sw.bytes
			blocks := sw.laps
			if len(blocks) == 0 {
				blocks = append(blocks, lap{sw.wall, sw.cpu})
			}
			ops := float64(ph.ops) / float64(len(blocks))
			for k, b := range blocks {
				bs := blockStat{traced: traced, wall: b.wall.Seconds() / ops, cpu: b.cpu.Seconds() / ops}
				if lat == nil {
					bs.p50 = b.wall.Seconds() * 1e6
				} else {
					waits := lat[k*len(lat)/len(blocks) : (k+1)*len(lat)/len(blocks)]
					sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
					bs.p50 = float64(rank(waits, 0.50)) / 1e3
				}
				st.blocks = append(st.blocks, bs)
			}
			laps = sw.laps
		}
	}
	return stats, nil
}

// rank returns the q-quantile of sorted by nearest rank.
func rank[T any](sorted []T, q float64) T {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// ascending returns a sorted copy of vals.
func ascending(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// quiet is the estimator of every timing metric: the fastest half percent
// of the per-block values by nearest rank, and never the single fastest
// reading. That is the 9th fastest of a run's 1,800 blocks of packets and
// the second fastest of its 60 tables or simulations. Interference on a
// shared host only ever adds time, so the fastest blocks are the closest a
// run gets to the program's own cost; on the host this was sized on a busy
// hour leaves fewer than one block in a hundred undisturbed, which is why it
// is not the 10th percentile (bench/README.md has the runs).
func quiet(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := ascending(vals)
	if len(s) == 1 {
		return s[0]
	}
	return s[max(2, (len(s)+199)/200)-1]
}

// median is the usual median: the mean of the middle two for an even count.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s, n := ascending(vals), len(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) does, the method the benchmark's
// acceptance check uses.
func quartiles(vals []float64) (q1, q3 float64) {
	s, n := ascending(vals), len(vals)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// column extracts one field of the blocks that match traced.
func (st *phaseStats) column(traced bool, field func(*blockStat) float64) []float64 {
	var out []float64
	for i := range st.blocks {
		if st.blocks[i].traced == traced {
			out = append(out, field(&st.blocks[i]))
		}
	}
	return out
}

func blockWall(b *blockStat) float64 { return b.wall }
func blockCPU(b *blockStat) float64  { return b.cpu }
func blockP50(b *blockStat) float64  { return b.p50 }

// totalOps is the number of operations the phase completed.
func (st *phaseStats) totalOps() int64 { return int64(st.segments) * int64(st.ops) }

// timeIt runs fn reps times and returns the quiet estimate of its wall time
// in seconds: the second fastest repetition.
func timeIt(reps int, fn func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		t0 := time.Now()
		fn()
		times[i] = time.Since(t0).Seconds()
	}
	return quiet(times)
}

// countAllocs returns the heap allocations fn makes.
func countAllocs(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs)
}
