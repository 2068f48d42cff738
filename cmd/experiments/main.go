// Command experiments regenerates every figure of the paper's evaluation
// section (and the §V-B accuracy claim) as printed series. PERF.md's
// successor table says which flag took over from which retired root
// benchmark; CI runs -all once.
//
// Usage:
//
//	experiments -fig 2            # Figure 2: per-item update cost vs #ratings
//	experiments -fig 3            # Figure 3: multi-core throughput vs threads
//	experiments -fig 4            # Figure 4: distributed strong scaling
//	experiments -fig 5            # Figure 5: compute/communicate/both breakdown
//	experiments -rmse             # §V-B: all engines reach the same RMSE
//	experiments -speedup          # §VI: the "15 days -> 30 minutes" estimate
//	experiments -ablations        # §III–IV: kernel threshold, buffer size, partitioning, exchange
//	experiments -all              # everything
//
// Flags:
//
//	-scale f     dataset scale factor for the DES workloads (default 0.05;
//	             1.0 reproduces the full ChEMBL / ml-20m shapes but needs
//	             several GB and minutes of generation time)
//	-calibrate   time the engine's own item sweeps, moment reduction and
//	             test scoring on this machine (des.CalibrateCostModel)
//	             instead of using the fixed Westmere-like model
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/des"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	ec := config.DefaultExperiments()
	if err := config.Parse(flag.CommandLine, os.Args[1:], &ec); err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	var cm des.CostModel
	if ec.Calibrate {
		fmt.Println("# calibrating kernel cost model on this machine...")
		cm = des.CalibrateCostModel(cfg.K)
	} else {
		cm = des.DefaultCostModel(cfg.K)
	}
	fmt.Printf("# cost model: perRating=%.3gs perItem=%.3gs rankOnePerRating=%.3gs rankOnePerItem=%.3gs\n",
		cm.PerRating, cm.PerItem, cm.RankOnePerRating, cm.RankOnePerItem)

	ran := false
	if ec.All || ec.Fig == 2 {
		fig2(cfg, cm)
		ran = true
	}
	if ec.All || ec.Fig == 3 {
		fig3(cfg, cm, ec.Scale)
		ran = true
	}
	if fig4, fig5 := ec.All || ec.Fig == 4, ec.All || ec.Fig == 5; fig4 || fig5 {
		fig45(cfg, cm, ec.Scale, fig4, fig5)
		ran = true
	}
	if ec.All || ec.RMSE {
		rmseExperiment()
		ran = true
	}
	if ec.All || ec.Speedup {
		speedupExperiment(cfg, cm, ec.Scale)
		ran = true
	}
	if ec.All || ec.Ablations {
		ablations(cfg, cm, ec.Scale)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// chemblData generates the ChEMBL-shaped workload at the given scale.
func chemblData(scale float64) *datagen.Dataset { return generate("chembl", scale) }

// ml20mData generates the MovieLens-shaped workload at the given scale.
func ml20mData(scale float64) *datagen.Dataset { return generate("ml-20m", scale) }

// generate resolves a built-in benchmark through config.Data.Spec, which
// applies any scale other than 1 (main rejects non-positive scales up
// front).
func generate(name string, scale float64) *datagen.Dataset {
	spec, err := config.Data{Synthetic: name, Scale: scale}.Spec(20)
	if err != nil {
		log.Fatal(err)
	}
	return datagen.Generate(spec)
}
