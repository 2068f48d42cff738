package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Loader hardening limits. Indices are stored as int32 and the CSR
// builder allocates O(M+N) bookkeeping, so a header that claims absurd
// dimensions must be rejected before any allocation — a corrupt or
// hostile file has to surface as an error, never as an OOM or a panic.
const (
	// maxMMDim caps each matrix dimension (rows or columns). 1<<27 is
	// ~134M — two orders of magnitude above the paper's largest matrix
	// (483 500 compounds) while keeping worst-case builder bookkeeping
	// around 1 GiB.
	maxMMDim = 1 << 27
	// cooCapHint bounds the up-front entry allocation taken from an
	// untrusted nnz declaration; real entries still grow the slice, so a
	// file that promises 10^12 entries but holds three costs 64 MiB at
	// most, not a terabyte.
	cooCapHint = 1 << 22
	// maxMMLine caps one line's length. The streaming readers inherit it
	// from their bufio.Scanner buffer; the parallel parser enforces it
	// explicitly so both paths accept and reject the same files.
	maxMMLine = 1 << 20
)

// WriteMatrixMarket writes a in MatrixMarket coordinate real general
// format (1-based indices), the interchange format the ChEMBL and
// MovieLens preprocessing pipelines of the paper's toolchain use.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.M, a.N, a.NNZ()); err != nil {
		return err
	}
	for i := 0; i < a.M; i++ {
		cols, vals := a.Row(i)
		for k, c := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, c+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// validateMMHeader checks the MatrixMarket banner line. Only the
// qualifiers this package actually implements are accepted: rejecting
// `symmetric` (we would silently drop the mirrored half) and `complex`
// (we would mis-read the imaginary column as garbage) is part of the
// loader's no-silent-mis-parse contract. `pattern` (no value column,
// every entry 1.0) and `integer` parse fine and stay supported.
func validateMMHeader(header string) error {
	if !strings.HasPrefix(header, "%%MatrixMarket") {
		return fmt.Errorf("sparse: missing MatrixMarket header, got %q", truncateForErr(header))
	}
	f := strings.Fields(strings.ToLower(header))
	// Banner: %%MatrixMarket object format [field [symmetry]]
	if len(f) >= 2 && f[1] != "matrix" {
		return fmt.Errorf("sparse: unsupported MatrixMarket object %q (only matrix)", f[1])
	}
	if len(f) < 3 || f[2] != "coordinate" {
		return fmt.Errorf("sparse: only coordinate format supported, got %q", truncateForErr(header))
	}
	if len(f) >= 4 {
		switch f[3] {
		case "real", "integer", "pattern":
		default:
			return fmt.Errorf("sparse: unsupported MatrixMarket field %q (only real, integer, pattern)", f[3])
		}
	}
	if len(f) >= 5 && f[4] != "general" {
		return fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q (only general)", f[4])
	}
	return nil
}

// parseMMSize parses and validates the "m n nnz" size line.
func parseMMSize(line string) (m, n, nnz int, err error) {
	f := strings.Fields(line)
	if len(f) != 3 {
		return 0, 0, 0, fmt.Errorf("sparse: bad size line %q: want %q", truncateForErr(line), "rows cols nnz")
	}
	dims := make([]int64, 3)
	for k, s := range f {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sparse: bad size line %q: %w", truncateForErr(line), err)
		}
		dims[k] = v
	}
	if dims[0] < 0 || dims[0] > maxMMDim || dims[1] < 0 || dims[1] > maxMMDim {
		return 0, 0, 0, fmt.Errorf("sparse: matrix dimensions %dx%d out of range [0, %d]", dims[0], dims[1], int64(maxMMDim))
	}
	if dims[2] < 0 {
		return 0, 0, 0, fmt.Errorf("sparse: negative entry count %d", dims[2])
	}
	return int(dims[0]), int(dims[1]), int(dims[2]), nil
}

// parseEntryFields parses one already-tokenized entry line and validates
// it against the matrix dimensions. It is the reference semantics: the
// byte-level fast scanner of the parallel parser falls back to it, so
// both paths accept and reject exactly the same lines.
func parseEntryFields(f []string, m, n int) (Entry, error) {
	if len(f) < 2 {
		return Entry{}, fmt.Errorf("sparse: bad entry line %q", strings.Join(f, " "))
	}
	i, err := strconv.Atoi(f[0])
	if err != nil {
		return Entry{}, fmt.Errorf("sparse: bad row index %q: %w", f[0], err)
	}
	j, err := strconv.Atoi(f[1])
	if err != nil {
		return Entry{}, fmt.Errorf("sparse: bad col index %q: %w", f[1], err)
	}
	v := 1.0
	if len(f) >= 3 {
		v, err = strconv.ParseFloat(f[2], 64)
		if err != nil {
			return Entry{}, fmt.Errorf("sparse: bad value %q: %w", f[2], err)
		}
	}
	return checkedEntry(i, j, v, m, n)
}

// checkedEntry validates a 1-based (i, j, v) triple and returns the
// 0-based Entry. This is the gate that used to be a COO.Add panic.
func checkedEntry(i, j int, v float64, m, n int) (Entry, error) {
	if i < 1 || i > m || j < 1 || j > n {
		return Entry{}, fmt.Errorf("sparse: entry (%d, %d) outside %dx%d matrix", i, j, m, n)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return Entry{}, fmt.Errorf("sparse: entry (%d, %d) has non-finite value %v", i, j, v)
	}
	return Entry{Row: int32(i - 1), Col: int32(j - 1), Val: v}, nil
}

// isMMSkipLine reports whether a body line is blank or a comment.
func isMMSkipLine(line []byte) bool {
	for _, c := range line {
		switch c {
		case ' ', '\t', '\r', '\v', '\f':
			continue
		case '%':
			return true
		default:
			return false
		}
	}
	return true
}

// parseEntryBytes is the allocation-free fast path of the entry parser:
// manual field scanning over the raw line bytes instead of
// strings.Fields + Sscanf-style machinery. Lines containing non-ASCII
// bytes fall back to parseEntryFields so that Unicode-whitespace
// tokenization matches the reference semantics exactly; for the plain
// ASCII lines every real file consists of, the two paths tokenize
// identically by construction.
func parseEntryBytes(line []byte, m, n int) (Entry, error) {
	for _, c := range line {
		if c >= 0x80 {
			return parseEntryLine(line, m, n)
		}
	}
	pos := 0
	next := func() []byte {
		for pos < len(line) && isMMSpaceByte(line[pos]) {
			pos++
		}
		start := pos
		for pos < len(line) && !isMMSpaceByte(line[pos]) {
			pos++
		}
		return line[start:pos]
	}
	f0, f1 := next(), next()
	if len(f1) == 0 {
		return Entry{}, fmt.Errorf("sparse: bad entry line %q", truncateForErr(string(line)))
	}
	i, err := parseIntBytes(f0)
	if err != nil {
		return Entry{}, fmt.Errorf("sparse: bad row index %q: %w", f0, err)
	}
	j, err := parseIntBytes(f1)
	if err != nil {
		return Entry{}, fmt.Errorf("sparse: bad col index %q: %w", f1, err)
	}
	v := 1.0
	if f2 := next(); len(f2) > 0 {
		// string(f2) does not escape ParseFloat, so the conversion stays
		// on the stack — no per-line heap allocation.
		v, err = strconv.ParseFloat(string(f2), 64)
		if err != nil {
			return Entry{}, fmt.Errorf("sparse: bad value %q: %w", f2, err)
		}
	}
	return checkedEntry(int(i), int(j), v, m, n)
}

func isMMSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// parseIntBytes parses a decimal integer with the same accept set as
// strconv.Atoi (optional sign, digits) and an explicit overflow check.
func parseIntBytes(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("empty field")
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, fmt.Errorf("invalid syntax")
		}
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid syntax")
		}
		v = v*10 + int64(c-'0')
		if v > 1<<40 {
			return 0, fmt.Errorf("value out of range")
		}
	}
	if neg {
		v = -v
	}
	return v, nil
}

func truncateForErr(s string) string {
	if len(s) > 64 {
		return s[:64] + "…"
	}
	return s
}

// readMMPrologue consumes a MatrixMarket stream up to and including its
// size line — banner, then comments and blank lines, then "m n nnz".
// next yields the stream's lines without their '\n' and io.EOF after the
// last. Every reader of the format starts here.
func readMMPrologue(next func() ([]byte, error)) (m, n, nnz int, err error) {
	line, err := next()
	if err == io.EOF {
		return 0, 0, 0, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("sparse: reading MatrixMarket header: %w", err)
	}
	if err := validateMMHeader(string(line)); err != nil {
		return 0, 0, 0, err
	}
	for {
		line, err = next()
		if err == io.EOF {
			return 0, 0, 0, fmt.Errorf("sparse: MatrixMarket stream has no size line")
		}
		if err != nil {
			return 0, 0, 0, fmt.Errorf("sparse: reading MatrixMarket size line: %w", err)
		}
		if !isMMSkipLine(line) {
			return parseMMSize(string(line))
		}
	}
}

// checkMMCount holds a body to the entry count its size line declared.
func checkMMCount(promised, found int) error {
	if found != promised {
		return fmt.Errorf("sparse: header promised %d entries, found %d", promised, found)
	}
	return nil
}

// scanMM is the sequential MatrixMarket reader: the prologue, then
// header with the size line's numbers, then every body line that is not
// blank or a comment through parse and visit, in file order. parse is
// the line tokenizer — parseEntryLine, the reference, for
// ReadMatrixMarket; parseEntryBytes for the converter.
func scanMM(r io.Reader, parse func(line []byte, m, n int) (Entry, error), header func(m, n, nnz int) error, visit func(Entry) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, maxMMLine), maxMMLine)
	m, n, nnz, err := readMMPrologue(func() ([]byte, error) {
		if sc.Scan() {
			return sc.Bytes(), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	})
	if err != nil {
		return err
	}
	if err := header(m, n, nnz); err != nil {
		return err
	}
	count := 0
	for sc.Scan() {
		line := sc.Bytes()
		if isMMSkipLine(line) {
			continue
		}
		e, err := parse(line, m, n)
		if err != nil {
			return err
		}
		if err := visit(e); err != nil {
			return err
		}
		count++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return checkMMCount(nnz, count)
}

// parseEntryLine tokenizes one body line with strings.Fields and hands
// it to parseEntryFields: the reference tokenizer.
func parseEntryLine(line []byte, m, n int) (Entry, error) {
	return parseEntryFields(strings.Fields(string(line)), m, n)
}

// ReadMatrixMarket parses a MatrixMarket coordinate matrix (real,
// integer or pattern field, general symmetry). Malformed input — bad
// headers, out-of-range indices, non-finite values, truncated streams —
// is reported as an error; no input can panic the loader. For large
// files prefer Load, which runs the chunked parallel parser over the
// same semantics.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	var coo *COO
	err := scanMM(r, parseEntryLine, func(m, n, nnz int) error {
		if nnz > cooCapHint {
			nnz = cooCapHint
		}
		coo = NewCOO(m, n, nnz)
		return nil
	}, func(e Entry) error {
		coo.Entries = append(coo.Entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return coo.ToCSR(), nil
}
