// Command datagen writes synthetic rating benchmarks (the ChEMBL- and
// MovieLens-shaped workloads of the paper's evaluation) as MatrixMarket
// text or .bcsr binary shards, chosen by the output extension.
//
//	datagen -spec chembl -scale 0.1 -out chembl-10pct.mtx
//	datagen -spec ml-20m -scale 2 -out ml-40m.bcsr
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datagen: ")

	cfg := config.DefaultDatagen()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &cfg); err != nil {
		log.Fatal(err)
	}

	s, err := cfg.ResolveSpec()
	if err != nil {
		log.Fatal(err)
	}
	ds := datagen.Generate(s)

	if cfg.Stats {
		rows := sparse.Stats(ds.R.RowDegrees())
		cols := sparse.Stats(ds.R.Transpose().RowDegrees())
		fmt.Printf("%s: %d x %d, %d ratings\n", s.Name, ds.R.M, ds.R.N, ds.R.NNZ())
		fmt.Printf("row degrees: %+v\n", rows)
		fmt.Printf("col degrees: %+v\n", cols)
		return
	}

	if err := writeMatrix(cfg.Out, ds.R, cfg.ShardNNZ); err != nil {
		log.Fatal(err)
	}
	if cfg.Out != "" {
		fmt.Fprintf(os.Stderr, "wrote %s: %d x %d, %d ratings\n", cfg.Out, ds.R.M, ds.R.N, ds.R.NNZ())
	}
}

// writeMatrix writes r to path, picking the format from the extension:
// .bcsr binary shards (shardNNZ entries per shard, 0 = default),
// MatrixMarket otherwise. An empty path streams MatrixMarket to stdout.
// A file goes through core.WriteCheckpointFile (temp, fsync, rename): an
// existing file is replaced, never truncated, so a crash or a full disk
// leaves the old bytes or the whole new ones, and a process that has the
// old file mapped (sparse.Load, a bpmf-dist rank, bpmf-serve's
// exclusions) keeps a whole file under its mapping instead of a SIGBUS.
func writeMatrix(path string, r *sparse.CSR, shardNNZ int) error {
	if path == "" {
		return sparse.WriteMatrixMarket(os.Stdout, r)
	}
	return core.WriteCheckpointFile(path, func(w io.Writer) error {
		if filepath.Ext(path) == ".bcsr" {
			return sparse.WriteBinarySharded(w, r, shardNNZ)
		}
		return sparse.WriteMatrixMarket(w, r)
	})
}
