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

	s, err := buildSpec(cfg.Spec, cfg.Scale, cfg.Seed)
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

// buildSpec resolves the named benchmark spec and applies the scale
// factor through the shared config contract. Any scale other than 1 is
// applied — the silent old behavior of ignoring upscales is gone — and
// a non-positive scale is an error rather than an accidental full-size
// dataset.
func buildSpec(name string, scale float64, seed uint64) (datagen.Spec, error) {
	return config.Datagen{Spec: name, Scale: scale, Seed: seed}.ResolveSpec()
}

// writeMatrix writes r to path, picking the format from the extension:
// .bcsr binary shards (shardNNZ entries per shard, 0 = default),
// MatrixMarket otherwise. An empty path streams MatrixMarket to stdout.
// A file is written beside its final name and renamed into place: an
// existing file is replaced, never truncated, so a crash or a full disk
// leaves the old bytes and a process that has the old file mapped
// (sparse.Load, a bpmf-dist rank, bpmf-serve's exclusions) keeps a whole
// file under its mapping instead of a SIGBUS.
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
