package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Steal correction. The benchmark shares a small virtual machine with
// other tenants. When their load rises, the hypervisor runs them on this
// machine's vCPUs, and Linux counts that time as "steal" in /proc/stat.
// A goroutine on a stolen vCPU stops, and so does everything waiting on
// it; on a 2-vCPU host whole runs slowed by up to half in raw wall time.
//
// Each timed stretch, and each batch and job within it, therefore records
// f, the share of all vCPU time stolen while it ran, and its figures are
// corrected as follows:
//
//   - Wall times of stretches, batches and jobs are multiplied by
//     exp(-n·f) on n vCPUs, each with its own f. Progress needs every busy
//     vCPU running, which a share f of steal per vCPU allows for about
//     (1-f)^n ≈ exp(-n·f) of the time. Measured slopes of log(wall time
//     per op) against f were 2.2–2.7 on 2 vCPUs, for batch, job and form
//     workloads alike. Steal comes in bursts, so the slowest jobs are the
//     ones that suffered most; correcting each job by its own f keeps the
//     job tail steady where the stretch's f did not.
//   - Process CPU time is multiplied by exp(-f): the kernel charges the
//     time stolen from a vCPU to the thread that was running on it.
//     Measured slopes were 0.7–1.5.
//   - Latencies of single form requests (tens of µs, far shorter than a
//     steal) are not scaled: most requests run untouched, and a stolen
//     share f stalls a share of about stalledPerSteal·f of them, which
//     then sit above every untouched one. The q-quantile of the untouched
//     requests is therefore read at q·(1 - stalledPerSteal·f). The median
//     and p90 barely move; p99 does.
//
// The kernel measures the stolen share over the whole stretch, so no
// calibration work competes with the program. Each run also prints the
// unscaled figures on its "raw:" line.

// stalledPerSteal is the share of form requests stalled per unit of
// stolen vCPU share, fitted on 2-vCPU runs with f from 0 to 0.4.
const stalledPerSteal = 0.03

// ticks are the aggregate vCPU times of /proc/stat, in clock ticks.
type ticks struct{ steal, total uint64 }

// readTicks reads the stolen and the total vCPU time so far; zero where
// /proc/stat is missing, which turns the correction off.
func readTicks() ticks {
	var t ticks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return t
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already part of user.
	for i, s := range fields[1:9] {
		n, _ := strconv.ParseUint(s, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// stolenSince is the share of all vCPU time stolen between t0 and now.
func stolenSince(t0 ticks) float64 {
	t := readTicks()
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// wallScale converts a wall time measured under stolen share f to an
// unstolen host's.
func wallScale(f float64) float64 { return math.Exp(-float64(runtime.NumCPU()) * f) }

// cpuScale converts process CPU time measured under stolen share f.
func cpuScale(f float64) float64 { return math.Exp(-f) }
