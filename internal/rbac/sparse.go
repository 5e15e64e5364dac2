package rbac

import (
	"sort"

	"repro/internal/matrix"
)

// RUAMCSR builds the Role-User Assignment Matrix in compressed sparse
// row form, without materialising the dense bit matrix. At the paper's
// organisation scale (50k roles × 90k users) the dense RUAM needs
// ~560 MB while the CSR form needs a few megabytes — the §III-B memory
// optimisation.
func (d *Dataset) RUAMCSR() *matrix.CSR {
	return buildCSR(d.roleUsers, len(d.roles), len(d.users))
}

// RPAMCSR builds the Role-Permission Assignment Matrix in CSR form.
func (d *Dataset) RPAMCSR() *matrix.CSR {
	return buildCSR(d.rolePerms, len(d.roles), len(d.perms))
}

func buildCSR(sets []map[int]struct{}, rows, cols int) *matrix.CSR {
	c := matrix.NewCSR(rows, cols)
	nnz := 0
	for _, s := range sets {
		nnz += len(s)
	}
	c.ColIdx = make([]int, 0, nnz)
	for ri, s := range sets {
		start := len(c.ColIdx)
		for j := range s {
			c.ColIdx = append(c.ColIdx, j)
		}
		sort.Ints(c.ColIdx[start:])
		c.RowPtr[ri+1] = len(c.ColIdx)
	}
	return c
}
