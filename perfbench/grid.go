package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"duplo/internal/experiments"
	"duplo/internal/report"
	"duplo/internal/server"
	"duplo/internal/sim"
	"duplo/internal/store"
	"duplo/internal/workload"
)

// benchLayerNames is the Table I subset every workload runs. Each of the
// four predictor families (conv3x3s1/s2, conv5x5s1/s2) has at least two
// layers, and the set mixes duplication-rich layers (ResNet C2, GAN TC4,
// YOLO C3: 26-30% fewer cycles with Duplo) with a duplication-poor one
// (ResNet C7), so a change to the Duplo path reads differently from a
// change to the baseline path. The full 22-layer grid takes too long to
// repeat.
var benchLayerNames = [][2]string{
	{"ResNet", "C2"}, {"ResNet", "C3"}, {"ResNet", "C4"}, {"ResNet", "C7"},
	{"GAN", "TC3"}, {"GAN", "TC4"}, {"GAN", "C1"}, {"GAN", "C2"},
	{"YOLO", "C3"},
}

func benchLayers() ([]workload.Layer, error) {
	out := make([]workload.Layer, len(benchLayerNames))
	for i, n := range benchLayerNames {
		l, err := workload.Find(n[0], n[1])
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

// benchOptions is quick scale (12 CTAs, 2 SMs) over the benchmark layers.
func benchOptions(layers []workload.Layer, workers int) experiments.Options {
	o := experiments.QuickOptions()
	o.Layers = layers
	o.Workers = workers
	return o
}

// cell is one point of the Fig. 9 grid: a layer's baseline (point -1) or
// the layer with experiments.LHBPoints[point].
type cell struct {
	layer workload.Layer
	point int
}

// gridCells lists the grid in a fixed order: per layer, the baseline and
// then every LHB point (9 layers x 6 = 54 cells).
func gridCells(layers []workload.Layer) []cell {
	var out []cell
	for _, l := range layers {
		for p := -1; p < len(experiments.LHBPoints); p++ {
			out = append(out, cell{l, p})
		}
	}
	return out
}

func (c cell) String() string {
	if c.point < 0 {
		return c.layer.FullName() + "/base"
	}
	return c.layer.FullName() + "/" + experiments.LHBPoints[c.point].Name
}

// kernelConfig builds the kernel and config the runner uses for the cell.
func (c cell) kernelConfig(opts experiments.Options) (*sim.Kernel, sim.Config, error) {
	k, err := experiments.LayerKernel(c.layer)
	if err != nil {
		return nil, sim.Config{}, err
	}
	cfg := opts.Config()
	if c.point >= 0 {
		cfg.Duplo = true
		cfg.DetectCfg.LHB = experiments.LHBPoints[c.point].Cfg
	}
	return k, cfg, nil
}

// runRequest is the POST /v1/runs body naming the same cell.
func (c cell) runRequest() server.RunRequest {
	rq := server.RunRequest{Network: c.layer.Network, Layer: c.layer.Name}
	if c.point >= 0 {
		lhb := experiments.LHBPoints[c.point].Cfg
		rq.Duplo = true
		rq.LHBEntries = lhb.Entries
		rq.LHBOracle = lhb.Oracle
	}
	return rq
}

// cellResults reads every grid cell back from a runner that has already
// run them (memo hits), in grid order.
func cellResults(r *experiments.Runner, cells []cell) ([]sim.Result, error) {
	out := make([]sim.Result, len(cells))
	for i, c := range cells {
		var err error
		if c.point < 0 {
			out[i], err = r.BaselineExact(c.layer)
		} else {
			out[i], err = r.DuploExact(c.layer, experiments.LHBPoints[c.point].Cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
	}
	return out, nil
}

// hashTable feeds a table's title, headers, rows and note to h.
func hashTable(h io.Writer, t *report.Table) {
	fmt.Fprintf(h, "table %q\n%q\n", t.Title, t.Headers())
	for _, row := range t.Rows() {
		fmt.Fprintf(h, "%q\n", row)
	}
	fmt.Fprintf(h, "note %q\n", t.Note)
}

// digest hashes tables plus every cell's persisted result (full Stats and
// CTA accounting) into one hex string.
func digest(tables []*report.Table, cells []cell, results []sim.Result) string {
	h := sha256.New()
	for _, t := range tables {
		hashTable(h, t)
	}
	for i, c := range cells {
		b, _ := json.Marshal(store.RecordOf(results[i])) // plain structs of integers: cannot fail
		fmt.Fprintf(h, "%s %s\n", c, b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkCells counts every value cell of a table as one operation, failed
// when it rendered as ERR.
func checkCells(res *result, t *report.Table) {
	for _, row := range t.Rows() {
		for _, c := range row[1:] {
			res.check(!strings.HasPrefix(c, "ERR"), "%s: %s has an ERR cell", t.Title, row[0])
		}
	}
}

// referencePath is where the reference digests live, relative to the
// repository root the benchmark runs from.
const referencePath = "perfbench/reference.json"

// reference holds the digests the benchmark checks outputs against.
// Simulator-only changes must leave them unchanged; a change that moves
// simulated statistics on purpose re-records them with
// `bash perfbench/run.sh --record`.
type reference struct {
	// RegenCold digests the Fig. 9 and Fig. 10 tables and all 54 cells'
	// results.
	RegenCold string `json:"regen_cold"`
	// Predicted digests the predict-all Fig. 9 table and the Duplo-off and
	// Duplo-on serving latency tables built from the calibration artifact.
	Predicted string `json:"predicted"`
}

func loadReference() (reference, error) {
	var ref reference
	b, err := os.ReadFile(referencePath)
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(b, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", referencePath, err)
	}
	return ref, nil
}

func saveReference(ref reference) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, append(b, '\n'), 0o644)
}

// storeKeys lists the cache keys of every record in a store directory,
// read from the records' envelopes.
func storeKeys(dir string) ([]string, error) {
	var keys []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var env struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		keys = append(keys, env.Key)
		return nil
	})
	return keys, err
}
