package harness

import (
	"fmt"
	"strings"

	"repro/internal/problem"
)

// DeviationTable renders the sweep's mean %Δ per size and algorithm —
// Table II for CDD sweeps, Table IV for UCDDCP sweeps.
func (sw *Sweep) DeviationTable() string {
	var b strings.Builder
	title := "TABLE II — average %Δ for CDD (relative to the CPU SA reference)"
	if sw.Kind == problem.UCDDCP {
		title = "TABLE IV — average %Δ for UCDDCP (relative to the CPU SA reference)"
	}
	fmt.Fprintf(&b, "%s  [preset %s]\n", title, sw.Preset.Name)
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n", "Jobs", "SA_low", "SA_high", "DPSO_low", "DPSO_high")
	for _, row := range sw.Rows {
		fmt.Fprintf(&b, "%6d", row.Size)
		for _, algo := range AlgoNames {
			fmt.Fprintf(&b, " %12.3f", row.MeanPctDev[algo])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// SpeedupTable renders the budget-normalized device-model speedups
// against the serial CPU references — Table III for CDD, Table V for
// UCDDCP (which the paper reports only against [8]). The model speedup is
// the meaningful column on an arbitrary host: it compares the simulated
// GT 560M's time for the run's workload against the measured serial CPU
// seconds-per-evaluation. Host wall-clock ratios (which depend on the
// machine's core count) are available in SpeedupCSV.
func (sw *Sweep) SpeedupTable() string {
	var b strings.Builder
	title := "TABLE III — device-model speedups for CDD (vs [7]-style SA ref)"
	if sw.Kind == problem.UCDDCP {
		title = "TABLE V — device-model speedups for UCDDCP (vs [8]-style SA ref)"
	}
	fmt.Fprintf(&b, "%s  [preset %s]\n", title, sw.Preset.Name)
	fmt.Fprintf(&b, "%6s", "Jobs")
	for _, algo := range AlgoNames {
		fmt.Fprintf(&b, " %10s[7]", algo)
	}
	fmt.Fprintln(&b)
	for _, row := range sw.Rows {
		fmt.Fprintf(&b, "%6d", row.Size)
		for _, algo := range AlgoNames {
			fmt.Fprintf(&b, " %13.2f", row.SpeedupSim7[algo])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RuntimeTable renders mean runtimes per size — the data behind the
// runtime plots of Figures 14 (CDD) and 16 (UCDDCP): host wall-clock and
// simulated device seconds for the four parallel algorithms plus the CPU
// reference.
func (sw *Sweep) RuntimeTable() string {
	var b strings.Builder
	fig := "FIGURE 14 — CDD runtimes (seconds)"
	if sw.Kind == problem.UCDDCP {
		fig = "FIGURE 16 — UCDDCP runtimes (seconds)"
	}
	fmt.Fprintf(&b, "%s  [preset %s]\n", fig, sw.Preset.Name)
	fmt.Fprintf(&b, "%6s %12s", "Jobs", "CPU_ref")
	for _, algo := range AlgoNames {
		fmt.Fprintf(&b, " %10s(w)", algo)
	}
	for _, algo := range AlgoNames {
		fmt.Fprintf(&b, " %10s(s)", algo)
	}
	fmt.Fprintln(&b)
	for _, row := range sw.Rows {
		fmt.Fprintf(&b, "%6d %12.4f", row.Size, row.RefWall7)
		for _, algo := range AlgoNames {
			fmt.Fprintf(&b, " %13.4f", row.MeanWall[algo])
		}
		for _, algo := range AlgoNames {
			fmt.Fprintf(&b, " %13.4f", row.MeanSim[algo])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// DeviationCSV emits the bar-chart data of Figures 12 (CDD) / 15 (UCDDCP):
// one row per size and algorithm, with the metrics counters (evaluation
// and acceptance means) alongside the quality.
func (sw *Sweep) DeviationCSV() string {
	var b strings.Builder
	b.WriteString("size,algorithm,mean_pct_dev,mean_evals,mean_accepts\n")
	for _, row := range sw.Rows {
		for _, algo := range AlgoNames {
			fmt.Fprintf(&b, "%d,%s,%.4f,%.1f,%.1f\n", row.Size, algo,
				row.MeanPctDev[algo], row.MeanEvals[algo], row.MeanAccepts[algo])
		}
	}
	return b.String()
}

// SpeedupCSV emits the line-chart data of Figures 13 (CDD) / 17 (UCDDCP):
// budget-normalized wall and device-model speedups against both CPU
// references, plus the paper-style raw end-to-end sim ratio per size and
// algorithm.
func (sw *Sweep) SpeedupCSV() string {
	var b strings.Builder
	b.WriteString("size,algorithm,norm_wall_vs_sa_ref,norm_sim_vs_sa_ref,norm_wall_vs_ta_ref,raw_sim_vs_sa_ref\n")
	for _, row := range sw.Rows {
		for _, algo := range AlgoNames {
			fmt.Fprintf(&b, "%d,%s,%.4f,%.4f,%.4f,%.4f\n", row.Size, algo,
				row.SpeedupWall7[algo], row.SpeedupSim7[algo], row.SpeedupWall18[algo], row.RawSim7[algo])
		}
	}
	return b.String()
}

// RuntimeCSV emits the runtime-curve data of Figures 14 / 16.
func (sw *Sweep) RuntimeCSV() string {
	var b strings.Builder
	b.WriteString("size,series,seconds\n")
	for _, row := range sw.Rows {
		fmt.Fprintf(&b, "%d,CPU_ref,%.6f\n", row.Size, row.RefWall7)
		for _, algo := range AlgoNames {
			fmt.Fprintf(&b, "%d,%s_wall,%.6f\n", row.Size, algo, row.MeanWall[algo])
			fmt.Fprintf(&b, "%d,%s_sim,%.6f\n", row.Size, algo, row.MeanSim[algo])
		}
	}
	return b.String()
}
