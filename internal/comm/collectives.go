package comm

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Every collective unwinds with an error when a peer dies mid-operation
// (the failure detector fails the endpoint, waking every blocked
// receive). All ranks must invoke collectives in the same order (SPMD).

// BarrierE blocks until every rank has entered it (dissemination
// algorithm: ⌈log₂ P⌉ rounds of pairwise signals).
func (c *Comm) BarrierE() error {
	tag := c.nextCollTag()
	p := c.size
	if p == 1 {
		return nil
	}
	for k := 1; k < p; k <<= 1 {
		dst := (c.rank + k) % p
		src := (c.rank - k + p) % p
		if err := c.SendE(dst, tag, nil); err != nil {
			return err
		}
		if _, err := c.RecvE(src, tag); err != nil {
			return err
		}
	}
	return nil
}

// BcastE distributes root's data to all ranks and returns each rank's
// copy (binomial tree).
func (c *Comm) BcastE(root int, data []byte) ([]byte, error) {
	tag := c.nextCollTag()
	p := c.size
	if p == 1 {
		return data, nil
	}
	// Re-root the rank space so root behaves as virtual rank 0, then run
	// the standard binomial tree: receive once from (vr − lowest set bit),
	// forward to (vr + mask) for each smaller mask.
	vr := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			m, err := c.RecvE((vr-mask+root)%p, tag)
			if err != nil {
				return nil, err
			}
			data = m.Data
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			if err := c.SendE((vr+mask+root)%p, tag, data); err != nil {
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

// AllgatherE collects every rank's blob; the result slice is indexed by
// rank. Implemented as a ring so each rank sends P-1 messages of its own
// size. A message is a block and a 4-byte owner trailer, which AllgatherE
// appends to mine as append would: in place when mine has the spare
// capacity (EncodeFloat64s' blobs do), so a large block goes on the wire
// uncopied, and mine[:len(mine)] is never written. mine and its spare
// capacity then belong to the fabric, as SendE's data does. A received
// message is forwarded as it arrived. The blocks returned are read-only:
// in process they are the memory other ranks read too.
func (c *Comm) AllgatherE(mine []byte) ([][]byte, error) {
	tag := c.nextCollTag()
	p := c.size
	out := make([][]byte, p)
	out[c.rank] = mine
	if p == 1 {
		return out, nil
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	frame := appendOwner(mine, c.rank)
	owner := c.rank
	for step := 0; step < p-1; step++ {
		// Send the message we most recently received, pull a new one
		// from the left (classic allgather ring).
		if err := c.SendE(right, tag, frame); err != nil {
			return nil, err
		}
		m, err := c.RecvE(left, tag)
		if err != nil {
			return nil, err
		}
		// The block that arrives at this step is the one the left
		// neighbour held a step ago: its owner is one rank further left.
		owner = (owner - 1 + p) % p
		if out[owner], err = splitOwner(m.Data, owner); err != nil {
			return nil, fmt.Errorf("comm: allgather frame from rank %d: %w", left, err)
		}
		frame = m.Data
	}
	return out, nil
}

func appendOwner(b []byte, owner int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(owner))
}

// splitOwner strips the owner trailer appendOwner added, holding it to
// the owner the ring step expects: the trailer indexes the result slice,
// and a peer sent it. The block comes back without spare capacity, so an
// append to it cannot write the trailer other ranks read.
func splitOwner(b []byte, want int) ([]byte, error) {
	n := len(b) - 4
	if n < 0 {
		return nil, fmt.Errorf("%d bytes, shorter than the 4-byte owner trailer", len(b))
	}
	if owner := binary.LittleEndian.Uint32(b[n:]); owner != uint32(want) {
		return nil, fmt.Errorf("carries rank %d's block, this ring step delivers rank %d's", owner, want)
	}
	return b[:n:n], nil
}

// AllreduceSumOrderedE sums per-rank float64 vectors with a fixed
// reduction order: every rank gathers all partials and adds them in rank
// order, so the result is bit-identical on every rank and independent of
// message timing. This is the deterministic reduction the distributed
// hyperparameter sampling uses (see package dist's comment: it is what
// makes the chain independent of the rank count). A partial that is not
// exactly len(mine) values is an error naming its rank.
func (c *Comm) AllreduceSumOrderedE(mine []float64) ([]float64, error) {
	blobs, err := c.AllgatherE(EncodeFloat64s(mine))
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(mine))
	vals := make([]float64, len(mine))
	for r := 0; r < c.size; r++ {
		if err := DecodeFloat64sInto(vals, blobs[r]); err != nil {
			return nil, fmt.Errorf("comm: allreduce partial from rank %d: %w", r, err)
		}
		for i, v := range vals {
			out[i] += v
		}
	}
	return out, nil
}

// EncodeFloat64s serializes a float64 slice little-endian — the one
// float blob layout on the fabric: allreduce partials here, package
// dist's gathered factor rows and intervals. The blob carries four bytes
// of spare capacity, the room AllgatherE's owner trailer takes.
func EncodeFloat64s(v []float64) []byte {
	b := make([]byte, 8*len(v), 8*len(v)+4)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

// DecodeFloat64sInto fills dst from an EncodeFloat64s blob of exactly
// len(dst) values. A peer sent b: any other length, a trailing partial
// value included, is an error rather than a truncation.
func DecodeFloat64sInto(dst []float64, b []byte) error {
	if len(b) != 8*len(dst) {
		return fmt.Errorf("float blob of %d bytes, want %d", len(b), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return nil
}
