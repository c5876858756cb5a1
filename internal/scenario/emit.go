package scenario

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// WriteJSON emits results as indented JSON. Output is a pure function of
// the input: with timing disabled on the runner, the same grid and base
// seed produce byte-identical files no matter how many workers ran the
// sweep — which makes sweep outputs diffable benchmark artifacts.
func WriteJSON(w io.Writer, results []RunResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// csvHeader is the summary-row schema of WriteCSV.
var csvHeader = []string{
	"index", "scenario", "spec", "replica", "backend", "seed",
	"protocol", "n", "slices", "cycles",
	"finalN", "finalSDM", "messages", "dropped",
	"wallMS", "cyclesPerSec", "error",
}

// WriteCSV emits one summary row per run. Timing columns are empty when
// the runner disabled timing.
func WriteCSV(w io.Writer, results []RunResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, res := range results {
		slices := res.Spec.Slices
		if slices == 0 {
			slices = len(res.Spec.SliceBounds) + 1
		}
		row := []string{
			strconv.Itoa(res.Index),
			res.Scenario,
			res.Spec.Name,
			strconv.Itoa(res.Replica),
			res.Backend,
			strconv.FormatInt(res.Spec.Seed, 10),
			res.Spec.Protocol,
			strconv.Itoa(res.Spec.N),
			strconv.Itoa(slices),
			strconv.Itoa(res.Spec.Cycles),
			strconv.Itoa(res.FinalN),
			strconv.FormatFloat(res.FinalSDM, 'g', 8, 64),
			strconv.FormatUint(res.Messages.Total(), 10),
			strconv.FormatUint(res.Messages.Dropped, 10),
			"",
			"",
			res.Error,
		}
		if res.Timing != nil {
			row[14] = strconv.FormatFloat(res.Timing.WallMS, 'f', 3, 64)
			row[15] = strconv.FormatFloat(res.Timing.CyclesPerSec, 'f', 1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
