package matrix

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

func TestNewBitMatrixShape(t *testing.T) {
	m := NewBitMatrix(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Fatalf("shape = %dx%d, want 3x5", m.Rows(), m.Cols())
	}
	if m.Count() != 0 {
		t.Fatalf("Count = %d, want 0", m.Count())
	}
}

func TestNegativeShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitMatrix(-1, 2) did not panic")
		}
	}()
	NewBitMatrix(-1, 2)
}

func TestSetGetClear(t *testing.T) {
	m := NewBitMatrix(2, 70)
	m.Set(0, 0)
	m.Set(1, 69)
	if !m.Get(0, 0) || !m.Get(1, 69) {
		t.Fatal("Get after Set failed")
	}
	if m.Get(0, 69) {
		t.Fatal("unset cell reads true")
	}
	m.Clear(1, 69)
	if m.Get(1, 69) {
		t.Fatal("Clear failed")
	}
}

func TestRowOutOfRangePanics(t *testing.T) {
	m := NewBitMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Row(5) did not panic")
		}
	}()
	m.Row(5)
}

func TestFromRows(t *testing.T) {
	rows := []*bitvec.Vector{
		bitvec.FromIndices(4, []int{0}),
		bitvec.FromIndices(4, []int{1, 2}),
	}
	m, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if !m.Get(1, 2) {
		t.Fatal("cell (1,2) not set")
	}
}

func TestFromRowsMismatch(t *testing.T) {
	rows := []*bitvec.Vector{bitvec.New(3), bitvec.New(4)}
	if _, err := FromRows(rows); err == nil {
		t.Fatal("FromRows accepted mismatched row lengths")
	}
}

func TestFromRowsEmpty(t *testing.T) {
	m, err := FromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 {
		t.Fatal("empty FromRows produced rows")
	}
}

// paperRUAM builds the RUAM from Figure 1 of the paper: 5 roles × 4 users.
// R01={U01}, R02={U01,U02}, R03={}, R04={U01,U02}, R05={U04}.
func paperRUAM() *BitMatrix {
	m := NewBitMatrix(5, 4)
	m.Set(0, 0)
	m.Set(1, 0)
	m.Set(1, 1)
	m.Set(3, 0)
	m.Set(3, 1)
	m.Set(4, 3)
	return m
}

func TestRowSumsPaperExample(t *testing.T) {
	m := paperRUAM()
	want := []int{1, 2, 0, 2, 1}
	if got := m.RowSums(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RowSums = %v, want %v", got, want)
	}
	if got := m.RowSum(1); got != 2 {
		t.Fatalf("RowSum(1) = %d, want 2", got)
	}
}

func TestColSumsAndZeroCols(t *testing.T) {
	m := paperRUAM()
	want := []int{3, 2, 0, 1}
	if got := m.ColSums(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ColSums = %v, want %v", got, want)
	}
	if got := m.ZeroCols(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("ZeroCols = %v, want [2]", got)
	}
}

func TestCountDensity(t *testing.T) {
	m := paperRUAM()
	if got := m.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := m.Density(); got != 6.0/20.0 {
		t.Fatalf("Density = %v, want 0.3", got)
	}
	var empty BitMatrix
	if empty.Density() != 0 {
		t.Fatal("empty Density != 0")
	}
}

func TestCloneEqual(t *testing.T) {
	m := paperRUAM()
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(2, 2)
	if m.Equal(c) {
		t.Fatal("mutating clone affected equality with original")
	}
	if m.Get(2, 2) {
		t.Fatal("mutating clone mutated original")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewBitMatrix(2, 3).Equal(NewBitMatrix(3, 2)) {
		t.Fatal("different shapes compared equal")
	}
}

func TestTranspose(t *testing.T) {
	m := paperRUAM()
	tr := m.Transpose()
	if tr.Rows() != 4 || tr.Cols() != 5 {
		t.Fatalf("transpose shape = %dx%d, want 4x5", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.Get(i, j) != tr.Get(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !tr.Transpose().Equal(m) {
		t.Fatal("double transpose != original")
	}
}

func TestAppendRow(t *testing.T) {
	var m BitMatrix
	if err := m.AppendRow(bitvec.FromIndices(3, []int{1})); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRow(bitvec.FromIndices(3, []int{2})); err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape after append = %dx%d", m.Rows(), m.Cols())
	}
	if err := m.AppendRow(bitvec.New(4)); err == nil {
		t.Fatal("AppendRow accepted wrong width")
	}
}

func TestString(t *testing.T) {
	m := NewBitMatrix(2, 3)
	m.Set(0, 1)
	m.Set(1, 2)
	if got := m.String(); got != "010\n001" {
		t.Fatalf("String = %q", got)
	}
}

func randMatrix(r *rand.Rand, rows, cols int, density float64) *BitMatrix {
	m := NewBitMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if r.Float64() < density {
				m.Set(i, j)
			}
		}
	}
	return m
}

func TestCSRRoundTrip(t *testing.T) {
	m := paperRUAM()
	c := CSRFromDense(m)
	if c.NNZ() != m.Count() {
		t.Fatalf("NNZ = %d, want %d", c.NNZ(), m.Count())
	}
	if !c.ToDense().Equal(m) {
		t.Fatal("CSR round trip lost cells")
	}
}

func TestCSRRowColsAndGet(t *testing.T) {
	c := CSRFromDense(paperRUAM())
	if got := c.RowCols(1); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("RowCols(1) = %v, want [0 1]", got)
	}
	if got := c.RowCols(2); len(got) != 0 {
		t.Fatalf("RowCols(2) = %v, want empty", got)
	}
	if !c.Get(4, 3) || c.Get(4, 0) {
		t.Fatal("CSR Get mismatch")
	}
	if c.RowSum(3) != 2 {
		t.Fatalf("RowSum(3) = %d, want 2", c.RowSum(3))
	}
}

func TestCSRColSums(t *testing.T) {
	c := CSRFromDense(paperRUAM())
	if got := c.ColSums(); !reflect.DeepEqual(got, []int{3, 2, 0, 1}) {
		t.Fatalf("ColSums = %v", got)
	}
}

func TestCSRFromTriplets(t *testing.T) {
	c, err := CSRFromTriplets(3, 3, [][2]int{{0, 2}, {0, 0}, {0, 2}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RowCols(0); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("RowCols(0) = %v, want deduplicated sorted [0 2]", got)
	}
	if c.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", c.NNZ())
	}
}

func TestCSRFromTripletsOutOfRange(t *testing.T) {
	if _, err := CSRFromTriplets(2, 2, [][2]int{{2, 0}}); err == nil {
		t.Fatal("accepted out-of-range row")
	}
	if _, err := CSRFromTriplets(2, 2, [][2]int{{0, -1}}); err == nil {
		t.Fatal("accepted negative column")
	}
}

func TestCSRIntersectionAndHamming(t *testing.T) {
	m := paperRUAM()
	c := CSRFromDense(m)
	// Rows R02 (idx 1) and R04 (idx 3) are identical: {U01, U02}.
	if got := c.IntersectionCount(1, 3); got != 2 {
		t.Fatalf("IntersectionCount(1,3) = %d, want 2", got)
	}
	if got := c.Hamming(1, 3); got != 0 {
		t.Fatalf("Hamming(1,3) = %d, want 0", got)
	}
	if got := c.Hamming(0, 4); got != 2 {
		t.Fatalf("Hamming(0,4) = %d, want 2", got)
	}
}

func TestPropertyCSRMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(20)
		cols := 1 + r.Intn(60)
		m := randMatrix(r, rows, cols, 0.3)
		c := CSRFromDense(m)
		if !c.ToDense().Equal(m) {
			return false
		}
		a, b := r.Intn(rows), r.Intn(rows)
		if c.IntersectionCount(a, b) != m.Row(a).IntersectionCount(m.Row(b)) {
			return false
		}
		return c.Hamming(a, b) == m.Row(a).Hamming(m.Row(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCSRTransposeMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := r.Intn(20), r.Intn(60)
		m := randMatrix(r, rows, cols, 0.3)
		tr := CSRFromDense(m).Transpose()
		return reflect.DeepEqual(tr, CSRFromDense(m.Transpose()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryEstimates(t *testing.T) {
	m := NewBitMatrix(100, 1000)
	for i := 0; i < 100; i++ {
		m.Set(i, i)
	}
	c := CSRFromDense(m)
	dense := MemoryBytesDense(100, 1000)
	if dense != 8*100*16 {
		t.Fatalf("dense estimate = %d", dense)
	}
	// 100 nnz + 101 row pointers, far below the dense footprint.
	if c.MemoryBytes() >= dense {
		t.Fatalf("sparse %d should beat dense %d at this density", c.MemoryBytes(), dense)
	}
}

func TestNewCSRNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCSR(-1, 1) did not panic")
		}
	}()
	NewCSR(-1, 1)
}
