package bpmf_test

import (
	"repro/internal/comm"
)

// benchFabric wraps a 2-rank in-process fabric for the message-layer
// benchmark.
type benchFabric struct {
	f *comm.Fabric
}

func newBenchFabric() *benchFabric {
	return &benchFabric{f: comm.NewFabric(2)}
}

func (bf *benchFabric) coalescer(size int) *comm.Coalescer {
	return comm.NewCoalescer(bf.f.Comms()[0], 1, 1, size)
}

// drain receives until records items of recSize bytes have arrived.
func (bf *benchFabric) drain(records, recSize int) {
	c := bf.f.Comms()[1]
	got := 0
	for got < records {
		m, err := c.RecvE(comm.AnySource, 1)
		if err != nil {
			panic(err)
		}
		got += len(m.Data) / recSize
	}
}

func (bf *benchFabric) close() { bf.f.Close() }
