package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row view of a boolean matrix: for each row
// only the sorted column indices of set cells are stored. The paper notes
// (§III-B) that sparse representations can further reduce the r*(u+p)
// memory footprint at the cost of conversion time; the benchmark harness
// measures that trade-off.
type CSR struct {
	// RowPtr has len Rows+1; the set columns of row i are
	// ColIdx[RowPtr[i]:RowPtr[i+1]], sorted ascending.
	RowPtr []int
	ColIdx []int
	// NRows and NCols give the logical shape (trailing all-zero rows and
	// columns are representable).
	NRows, NCols int
}

// NewCSR builds an empty CSR with the given shape.
func NewCSR(rows, cols int) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative shape %dx%d", rows, cols))
	}
	return &CSR{
		RowPtr: make([]int, rows+1),
		NRows:  rows,
		NCols:  cols,
	}
}

// CSRFromDense converts a dense BitMatrix to CSR form.
func CSRFromDense(m *BitMatrix) *CSR {
	c := &CSR{
		RowPtr: make([]int, m.Rows()+1),
		ColIdx: make([]int, 0, m.Count()),
		NRows:  m.Rows(),
		NCols:  m.Cols(),
	}
	for i := 0; i < m.Rows(); i++ {
		c.ColIdx = append(c.ColIdx, m.Row(i).Indices()...)
		c.RowPtr[i+1] = len(c.ColIdx)
	}
	return c
}

// CSRFromTriplets builds a CSR from (row, col) coordinate pairs.
// Duplicate pairs are collapsed; out-of-range coordinates are an error.
func CSRFromTriplets(rows, cols int, coords [][2]int) (*CSR, error) {
	perRow := make([][]int, rows)
	for _, rc := range coords {
		i, j := rc[0], rc[1]
		if i < 0 || i >= rows || j < 0 || j >= cols {
			return nil, fmt.Errorf("matrix: coordinate (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		perRow[i] = append(perRow[i], j)
	}
	c := NewCSR(rows, cols)
	for i, js := range perRow {
		sort.Ints(js)
		prev := -1
		for _, j := range js {
			if j == prev {
				continue
			}
			c.ColIdx = append(c.ColIdx, j)
			prev = j
		}
		c.RowPtr[i+1] = len(c.ColIdx)
	}
	return c, nil
}

// ToDense converts the CSR back to a dense BitMatrix.
func (c *CSR) ToDense() *BitMatrix {
	m := NewBitMatrix(c.NRows, c.NCols)
	for i := 0; i < c.NRows; i++ {
		for _, j := range c.RowCols(i) {
			m.Set(i, j)
		}
	}
	return m
}

// Rows returns the number of rows.
func (c *CSR) Rows() int { return c.NRows }

// Cols returns the number of columns.
func (c *CSR) Cols() int { return c.NCols }

// NNZ returns the number of stored (set) cells.
func (c *CSR) NNZ() int { return len(c.ColIdx) }

// RowCols returns the sorted set-column indices of row i. The slice
// aliases internal storage and must be treated as read-only.
func (c *CSR) RowCols(i int) []int {
	if i < 0 || i >= c.NRows {
		panic(fmt.Sprintf("matrix: row %d out of range [0,%d)", i, c.NRows))
	}
	return c.ColIdx[c.RowPtr[i]:c.RowPtr[i+1]]
}

// Transpose returns the column-major view of c as a CSR of its own:
// row j of the result lists, in ascending order, the rows of c whose
// column j is set. It is one counting pass and one fill pass.
func (c *CSR) Transpose() *CSR {
	t := NewCSR(c.NCols, c.NRows)
	for _, j := range c.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < c.NCols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	t.ColIdx = make([]int, len(c.ColIdx))
	next := append([]int(nil), t.RowPtr[:c.NCols]...)
	for i := 0; i < c.NRows; i++ {
		for _, j := range c.RowCols(i) {
			t.ColIdx[next[j]] = i
			next[j]++
		}
	}
	return t
}

// RowSum returns the number of set cells in row i.
func (c *CSR) RowSum(i int) int { return len(c.RowCols(i)) }

// Get reports whether cell (i, j) is set, by binary search within the row.
func (c *CSR) Get(i, j int) bool {
	row := c.RowCols(i)
	k := sort.SearchInts(row, j)
	return k < len(row) && row[k] == j
}

// ColSums returns per-column counts of set cells.
func (c *CSR) ColSums() []int {
	out := make([]int, c.NCols)
	for _, j := range c.ColIdx {
		out[j]++
	}
	return out
}

// IntersectionCount returns the number of columns set in both row a and
// row b, via a linear merge of the two sorted index lists. This is the
// sparse counterpart of bitvec.IntersectionCount and the building block
// of the sparse co-occurrence computation.
func (c *CSR) IntersectionCount(a, b int) int {
	ra, rb := c.RowCols(a), c.RowCols(b)
	n, i, j := 0, 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] == rb[j]:
			n++
			i++
			j++
		case ra[i] < rb[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Hamming returns the Hamming distance between rows a and b.
func (c *CSR) Hamming(a, b int) int {
	return c.RowSum(a) + c.RowSum(b) - 2*c.IntersectionCount(a, b)
}

// MemoryBytes estimates the storage footprint of the CSR structure in
// bytes (8 bytes per stored int). Exposed so the benchmark harness can
// report dense-vs-sparse memory, mirroring the paper's §III-B discussion.
func (c *CSR) MemoryBytes() int {
	return 8 * (len(c.RowPtr) + len(c.ColIdx))
}

// MemoryBytesDense estimates a dense bit-packed matrix footprint for the
// same shape.
func MemoryBytesDense(rows, cols int) int {
	wordsPerRow := (cols + 63) / 64
	return 8 * rows * wordsPerRow
}
