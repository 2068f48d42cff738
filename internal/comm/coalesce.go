package comm

// Coalescer implements the paper's Section IV-C send buffering: one send
// (the paper's MPI_Isend) per updated item has too much per-message
// overhead and floods the runtime with in-flight messages, so updated
// items are appended to a per-destination buffer that is flushed as one
// message when full (and explicitly at phase end).
type Coalescer struct {
	c       *Comm
	dst     int
	tag     int
	maxSize int
	buf     []byte
	flushes int
	records int
}

// NewCoalescer creates a buffer of maxSize bytes toward dst. maxSize <= 0
// means flush on every record (the "no buffering" ablation).
func NewCoalescer(c *Comm, dst, tag, maxSize int) *Coalescer {
	return &Coalescer{c: c, dst: dst, tag: tag, maxSize: maxSize}
}

// Append adds one record; if the buffer would exceed its capacity the
// current contents are flushed first, so a record is never split across
// messages. A send failure (dead destination) surfaces as an error; the
// record is still buffered, so accounting stays consistent while the
// caller unwinds.
func (b *Coalescer) Append(record []byte) error {
	if b.maxSize > 0 && len(b.buf)+len(record) > b.maxSize && len(b.buf) > 0 {
		if err := b.Flush(); err != nil {
			return err
		}
	}
	if b.buf == nil {
		// A message's buffer passes to the receiver with the send, so
		// each message takes a fresh one, allocated once at full size.
		b.buf = make([]byte, 0, max(b.maxSize, len(record)))
	}
	b.buf = append(b.buf, record...)
	b.records++
	if b.maxSize <= 0 {
		return b.Flush()
	}
	return nil
}

// Flush sends the buffered records (if any) as a single message.
func (b *Coalescer) Flush() error {
	if len(b.buf) == 0 {
		return nil
	}
	data := b.buf
	b.buf = nil
	if err := b.c.SendE(b.dst, b.tag, data); err != nil {
		return err
	}
	b.flushes++
	return nil
}

// Flushes returns how many messages this buffer has produced.
func (b *Coalescer) Flushes() int { return b.flushes }

// Records returns how many records have been appended.
func (b *Coalescer) Records() int { return b.records }
