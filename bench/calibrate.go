package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// calibrate is the noise-calibration mode. It does what the acceptance
// check does: `sets` runs of each workload, every run a fresh process of
// this same binary on another seed (seed, seed+1, ...), then per workload
// and end-to-end metric the median, the quartiles and the interquartile
// distance as a share of the median. Each spread is held to the metric's
// bound in BENCHMARK.json (setup_s excepted, as in the acceptance check),
// and the median of the later half of the runs to that of the earlier
// half. The bounds in BENCHMARK.json were derived from this table.
func calibrate(todo []workload, seed int64, seconds float64, sets int, bf *benchmarkFile,
	stdout io.Writer, logf func(string, ...any)) int {
	self, err := os.Executable()
	if err != nil {
		logf("%v", err)
		return 2
	}
	bound := map[string]float64{}
	lower := map[string]bool{}
	for _, m := range bf.EndToEnd {
		bound[m.Name] = m.Bound
		lower[m.Name] = m.Better == "lower"
	}
	code := 0
	fmt.Fprintf(stdout, "| workload | metric | unit | median | q1 | q3 | IQR/median | bound | half-to-half |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range todo {
		vals := map[string][]float64{} // metric -> one value per run
		for s := 0; s < sets; s++ {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(s), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
				logf("%s run %d: %v (%v)", w.name, s, jerr, err)
				return 1
			}
			if err != nil || !res.Correct {
				logf("%s run %d: failed %d of %d (%v)", w.name, s, res.Failed, res.Attempted, err)
				code = 1
			}
			for _, m := range endToEndMetrics() {
				vals[m.name] = append(vals[m.name], res.Metrics[m.name].Value)
			}
			logf("%s run %d/%d done", w.name, s+1, sets)
		}
		for _, m := range endToEndMetrics() {
			xs := vals[m.name]
			q1, q2, q3 := quartiles(xs)
			spread := relIQR(xs)
			// Worsening of the later half's median over the earlier half's.
			_, a, _ := quartiles(xs[:len(xs)/2])
			_, b, _ := quartiles(xs[len(xs)/2:])
			shift := 0.0
			if a != 0 && len(xs) >= 2 {
				shift = (b - a) / a
				if !lower[m.name] {
					shift = -shift
				}
			}
			verdict := ""
			if m.name != "setup_s" && spread > bound[m.name] {
				verdict = " SPREAD>BOUND"
				code = 1
			}
			if shift > bound[m.name] {
				verdict += " SHIFT>BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.5g | %.5g | %.5g | %.3f | %.2f | %+.3f%s |\n",
				w.name, m.name, m.unit, q2, q1, q3, spread, bound[m.name], shift, verdict)
			logf("%s %s raw: %.6g", w.name, m.name, xs)
		}
	}
	return code
}
