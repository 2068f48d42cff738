// Ingest: the dataset pipeline end to end — generate a MatrixMarket
// export the way an upstream preprocessing job would, convert it to the
// .bcsr binary shard format in bounded memory, verify the two files
// load to the identical matrix, and train on the binary shards.
//
// This is the production startup story: text MatrixMarket is the
// interchange format the paper's ChEMBL/MovieLens tooling emits, but a
// long-running service wants its restarts bottlenecked on checksummed
// binary shards, not on 20M lines of decimal parsing.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/sparse"
)

func main() {
	dir, err := os.MkdirTemp("", "bpmf-ingest")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mmPath := filepath.Join(dir, "ratings.mtx")
	bcsrPath := filepath.Join(dir, "ratings.bcsr")

	// An ml-20m-shaped dataset at 1% scale (~200k ratings) so the example
	// runs in seconds; datagen -spec ml-20m writes the full thing.
	ds := datagen.Generate(datagen.Scaled(datagen.ML20M(3), 0.01))
	if err := sparse.ReplaceFile(mmPath, func(f *os.File) error { return sparse.WriteMatrixMarket(f, ds.R) }); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(mmPath)
	fmt.Printf("MatrixMarket export: %d x %d, %d ratings, %.1f MB of text\n",
		ds.R.M, ds.R.N, ds.R.NNZ(), float64(fi.Size())/1e6)

	// Convert to row-panel binary shards (CRC32 per shard). The converter
	// streams: its memory is bounded by the largest shard, not the file.
	start := time.Now()
	stats, err := sparse.Converter{ShardNNZ: 1 << 13}.Convert(mmPath, bcsrPath)
	if err != nil {
		log.Fatal(err)
	}
	bi, _ := os.Stat(bcsrPath)
	fmt.Printf("converted to %d bcsr shards in %v (%.1f MB binary)\n",
		stats.Shards, time.Since(start).Round(time.Millisecond), float64(bi.Size())/1e6)

	// Both files load through the one sniffing entry point, to the same
	// matrix, bit for bit.
	tLoad := time.Now()
	fromText, err := sparse.Load(mmPath)
	if err != nil {
		log.Fatal(err)
	}
	textTime := time.Since(tLoad)
	tLoad = time.Now()
	fromShards, err := sparse.Load(bcsrPath)
	if err != nil {
		log.Fatal(err)
	}
	shardTime := time.Since(tLoad)
	if !sparse.Equal(fromText, fromShards) {
		log.Fatal("text and binary loads disagree")
	}
	fmt.Printf("load: MatrixMarket %v, bcsr %v — identical matrices\n",
		textTime.Round(time.Millisecond), shardTime.Round(time.Millisecond))

	// A serving restart doesn't need the decoded matrix at all: map the
	// shards and read single rows on demand. Only the touched rows'
	// shards are CRC-verified, and co-located processes mapping the
	// same file share page cache instead of private decoded copies.
	mp, err := sparse.OpenBinary(bcsrPath)
	if err != nil {
		log.Fatal(err)
	}
	cols, err := mp.AppendRowCols(nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	st := mp.Stats()
	fmt.Printf("mapped: user 0 has %d ratings; touched %d of %d shards (%.1f kB of %.1f MB)\n",
		len(cols), st.ShardsTouched, mp.Shards(),
		float64(st.PayloadBytesTouched)/1e3, float64(bi.Size())/1e6)

	// And a matrix larger than RAM decodes shard by shard off the same
	// mapping: peak memory is one panel, not the file.
	m, n := mp.Dims()
	maxPanel := 0
	for s := 0; s < mp.Shards(); s++ {
		panel := &sparse.CSR{M: m, N: n, RowPtr: make([]int64, m+1)}
		if err := mp.DecodePanelInto(panel, s); err != nil {
			log.Fatal(err)
		}
		maxPanel = max(maxPanel, len(panel.Col))
	}
	fmt.Printf("decoded %d panels one at a time (largest holds %d entries)\n", mp.Shards(), maxPanel)
	mp.Close()

	// Train straight off the shards via the public API.
	data, err := bpmf.DataFromFile(bcsrPath, 0.2, 3)
	if err != nil {
		log.Fatal(err)
	}
	cfg := bpmf.Defaults()
	cfg.K = 8
	cfg.Iters = 6
	cfg.Burnin = 3
	cfg.Threads = 4
	res, err := bpmf.Train(data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on the shards: held-out RMSE %.4f\n", res.RMSE())
}
