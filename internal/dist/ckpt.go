package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/sparse"
)

// ckpt.go is the distributed checkpoint plane: every rank periodically
// writes its *owned* slice of the chain state as a fragment (the
// sequential core.Checkpoint format over the owned rows/columns and the
// locally owned test accumulators), then rank 0 seals the round with a
// JSON manifest naming the fragments. Both writes are temp-file +
// atomic-rename (core.WriteCheckpointFile) and the manifest is written
// only after a barrier confirms every fragment is durable — so the
// directory never holds a manifest whose fragments are torn or missing,
// and a recovering cluster can always trust the latest manifest it
// finds. Recovery reassembles the fragments into one global
// core.Checkpoint; any rank count can resume from it, because the
// fragments are sliced by the *manifest's* ownership bounds, not the
// resuming run's.

// Manifest seals one coordinated checkpoint round.
type Manifest struct {
	// Iter is the first iteration a resumed run executes (the round was
	// written after iteration Iter-1 completed).
	Iter  int
	K     int
	Ranks int
	Seed  uint64
	M, N  int
	// RowBounds/ColBounds are the ownership bounds the fragments were
	// sliced by (len Ranks+1 each).
	RowBounds, ColBounds []int
	// BaseKernelCounts carries the kernel tallies of all chain segments
	// *before* the run that wrote this round, so counts survive chained
	// recoveries: the fragments hold only their own run's live tallies.
	BaseKernelCounts [3]int64
	// Fragments names the per-rank fragment files, indexed by rank,
	// relative to the manifest's directory.
	Fragments []string
}

func manifestName(iter int) string { return fmt.Sprintf("manifest-iter%06d.json", iter) }

func fragmentName(iter, rank, ranks int) string {
	return fmt.Sprintf("ckpt-iter%06d-rank%d-of%d.frag", iter, rank, ranks)
}

// check validates the manifest's internal structure — the bounds and
// fragment lists a resume is about to index by: one fragment per rank,
// and on each side Ranks+1 bounds ascending from 0 to the matrix size.
func (m *Manifest) check() error {
	if len(m.RowBounds) != m.Ranks+1 || len(m.ColBounds) != m.Ranks+1 ||
		len(m.Fragments) != m.Ranks {
		return fmt.Errorf("dist: manifest for iter %d is inconsistent (%d ranks, %d/%d bounds, %d fragments)",
			m.Iter, m.Ranks, len(m.RowBounds), len(m.ColBounds), len(m.Fragments))
	}
	for _, side := range []struct {
		name   string
		bounds []int
		size   int
	}{{"row", m.RowBounds, m.M}, {"column", m.ColBounds, m.N}} {
		b := side.bounds
		ok := b[0] == 0 && b[len(b)-1] == side.size
		for r := 1; ok && r < len(b); r++ {
			ok = b[r-1] <= b[r]
		}
		if !ok {
			return fmt.Errorf("dist: manifest for iter %d: the %d %s bounds do not ascend from 0 to %d", m.Iter, len(b), side.name, side.size)
		}
	}
	return nil
}

// readManifestFile is the one way a manifest comes off disk: read,
// decode, check. ReadManifest returns its error; LatestManifest's scan
// logs it and moves on — so a rule added here binds both.
func readManifestFile(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dist: torn manifest %s: %w", filepath.Base(path), err)
	}
	if err := m.check(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ReadManifest loads the sealed manifest of one specific iteration —
// for pinning a resume to a known round instead of the latest. Unlike
// LatestManifest's scan, a pinned manifest fails loudly: the caller
// named this exact round, so a torn or inconsistent file is an error,
// never something to skip past.
func ReadManifest(dir string, iter int) (*Manifest, error) {
	return readManifestFile(filepath.Join(dir, manifestName(iter)))
}

// LatestManifest scans dir for sealed checkpoint manifests and returns
// the one with the highest iteration, or (nil, nil) when none exist.
// Unreadable, torn, or structurally inconsistent manifest files are
// skipped with a logged warning instead of failing the whole resume:
// the manifest write is atomic-rename, so a bad file is debris from a
// foreign writer or a damaged filesystem — and recovery should proceed
// from the newest manifest that is actually intact.
func LatestManifest(dir string) (*Manifest, error) {
	names, err := filepath.Glob(filepath.Join(dir, "manifest-iter*.json"))
	if err != nil {
		return nil, err
	}
	var best *Manifest
	for _, name := range names {
		m, err := readManifestFile(name)
		if err != nil {
			log.Printf("dist: skipping checkpoint manifest %s: %v", name, err)
			continue
		}
		if best == nil || m.Iter > best.Iter {
			best = m
		}
	}
	return best, nil
}

// LoadDistCheckpoint reassembles a manifest's fragments into one global
// core.Checkpoint for a run over an m x n matrix. test must be the global
// held-out set of the run that wrote the round (fragment accumulators are
// filtered by the manifest's row ownership, so the walk must see the same
// entries in the same order). A round sealed over another shape — a
// checkpoint directory reused after a run on a different matrix — is
// refused before its bounds index anything of this run's.
func LoadDistCheckpoint(dir string, man *Manifest, m, n int, test []sparse.Entry) (*core.Checkpoint, error) {
	if err := man.check(); err != nil {
		return nil, err
	}
	if man.M != m || man.N != n {
		return nil, fmt.Errorf("dist: %s in %s was sealed over a %dx%d matrix, this run's is %dx%d (a checkpoint directory left by another run?)",
			manifestName(man.Iter), dir, man.M, man.N, m, n)
	}
	out := &core.Checkpoint{
		K:           man.K,
		NextIter:    man.Iter,
		Seed:        man.Seed,
		U:           la.NewMatrix(man.M, man.K),
		V:           la.NewMatrix(man.N, man.K),
		PredSum:     make([]float64, len(test)),
		PredSumSq:   make([]float64, len(test)),
		ItemUpdates: int64(man.Iter) * int64(man.M+man.N),
	}
	out.KernelCounts = man.BaseKernelCounts
	rowOwner := ownersArray(man.RowBounds, man.M)
	// Per-rank cursors into the global accumulator positions owned by
	// that rank, in global test order (the order every rank's local
	// predictor stores them in).
	ownedPos := make([][]int, man.Ranks)
	for t, e := range test {
		r := rowOwner[e.Row]
		ownedPos[r] = append(ownedPos[r], t)
	}
	for r := 0; r < man.Ranks; r++ {
		frag, _, err := core.ReadCheckpointFile(filepath.Join(dir, man.Fragments[r]))
		if err != nil {
			return nil, fmt.Errorf("dist: fragment of rank %d: %w", r, err)
		}
		if frag.K != man.K || frag.NextIter != man.Iter || frag.Seed != man.Seed {
			return nil, fmt.Errorf("dist: fragment %s does not match manifest (K=%d iter=%d seed=%d, want K=%d iter=%d seed=%d)",
				man.Fragments[r], frag.K, frag.NextIter, frag.Seed, man.K, man.Iter, man.Seed)
		}
		rowLo, rowHi := man.RowBounds[r], man.RowBounds[r+1]
		colLo, colHi := man.ColBounds[r], man.ColBounds[r+1]
		if frag.U.Rows != rowHi-rowLo || frag.V.Rows != colHi-colLo {
			return nil, fmt.Errorf("dist: fragment %s holds %dx%d owned rows/cols, manifest bounds say %dx%d",
				man.Fragments[r], frag.U.Rows, frag.V.Rows, rowHi-rowLo, colHi-colLo)
		}
		copy(out.U.Data[rowLo*man.K:rowHi*man.K], frag.U.Data)
		copy(out.V.Data[colLo*man.K:colHi*man.K], frag.V.Data)
		if len(frag.PredSum) != len(ownedPos[r]) {
			return nil, fmt.Errorf("dist: fragment %s holds %d test accumulators, ownership implies %d",
				man.Fragments[r], len(frag.PredSum), len(ownedPos[r]))
		}
		for i, t := range ownedPos[r] {
			out.PredSum[t] = frag.PredSum[i]
			out.PredSumSq[t] = frag.PredSumSq[i]
		}
		for i := range out.KernelCounts {
			out.KernelCounts[i] += frag.KernelCounts[i]
		}
		if r == 0 {
			// Traces and the sample count are rank-identical by
			// construction (deterministic allreduce), so any fragment's
			// copy is the global one.
			out.SampleRMSE = frag.SampleRMSE
			out.AvgRMSE = frag.AvgRMSE
			out.NSamples = frag.NSamples
		}
	}
	return out, nil
}

// writeCheckpoint writes this rank's fragment of a coordinated round
// (after iteration nextIter-1), barriers so every fragment is durable,
// then has rank 0 seal the round with the manifest. Collective.
func (nd *Node) writeCheckpoint(nextIter int) error {
	rowLo, rowHi := nd.plan.RowBounds[nd.rank], nd.plan.RowBounds[nd.rank+1]
	colLo, colHi := nd.plan.ColBounds[nd.rank], nd.plan.ColBounds[nd.rank+1]
	// The fragment is the sampler's own state capture (local predictor,
	// trace, the kernel tally of the items this rank drew itself) with the
	// replicas narrowed to the rows this rank owns.
	m, n := nd.s.U.Rows, nd.s.V.Rows
	frag := nd.s.View()
	frag.U = &la.Matrix{Rows: rowHi - rowLo, Cols: nd.k, Data: frag.U.Data[rowLo*nd.k : rowHi*nd.k]}
	frag.V = &la.Matrix{Rows: colHi - colLo, Cols: nd.k, Data: frag.V.Data[colLo*nd.k : colHi*nd.k]}
	frag.ItemUpdates = int64(nextIter) * int64(m+n)
	name := fragmentName(nextIter, nd.rank, nd.ranks)
	if err := core.WriteCheckpointFile(filepath.Join(nd.opt.CheckpointDir, name), frag.Write); err != nil {
		return err
	}
	// Every fragment must be durable before the manifest can name it: a
	// crash past this barrier either leaves the previous manifest as the
	// latest (all its fragments intact) or the new one (ditto).
	if err := nd.c.BarrierE(); err != nil {
		return err
	}
	if nd.rank != 0 {
		return nil
	}
	man := Manifest{
		Iter: nextIter, K: nd.k, Ranks: nd.ranks, Seed: nd.s.Cfg.Seed,
		M: m, N: n,
		RowBounds:        append([]int(nil), nd.plan.RowBounds...),
		ColBounds:        append([]int(nil), nd.plan.ColBounds...),
		BaseKernelCounts: nd.ckBase,
		Fragments:        make([]string, nd.ranks),
	}
	for r := 0; r < nd.ranks; r++ {
		man.Fragments[r] = fragmentName(nextIter, r, nd.ranks)
	}
	return core.WriteCheckpointFile(filepath.Join(nd.opt.CheckpointDir, manifestName(nextIter)), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&man)
	})
}

// Resume loads a reassembled global checkpoint into a freshly built
// node, positioning the chain at c.NextIter. The node may have any rank
// count — c carries full replicas — but must share the checkpoint's
// K, seed, and problem shape, and its plan must be unreordered (a
// reordered plan lives in a permuted index space the checkpoint's
// factors know nothing about).
func (nd *Node) Resume(c *core.Checkpoint) error {
	if nd.plan.Reordered {
		return fmt.Errorf("dist: cannot resume onto a reordered plan")
	}
	if len(c.PredSum) != len(nd.test) || len(c.PredSumSq) != len(nd.test) {
		return fmt.Errorf("dist: checkpoint has %d test accumulators, run has %d test entries",
			len(c.PredSum), len(nd.test))
	}
	// The local predictor holds this rank's owned test entries in global
	// test order — filter the global accumulators the same way, then let
	// the sampler verify K, seed and shape and take the state. The kernel
	// counts so far stay with the node (ckBase): they are global, and the
	// sampler's tally is this rank's share of this run.
	local := *c
	local.PredSum, local.PredSumSq, local.KernelCounts = nil, nil, [3]int64{}
	for t, e := range nd.test {
		if nd.rowOwner[e.Row] == int32(nd.rank) {
			local.PredSum = append(local.PredSum, c.PredSum[t])
			local.PredSumSq = append(local.PredSumSq, c.PredSumSq[t])
		}
	}
	if err := nd.s.Restore(&local); err != nil {
		return err
	}
	nd.ckBase = c.KernelCounts
	nd.firstIter = c.NextIter
	return nil
}
