package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bitmat"
	"repro/internal/bitvec"
	"repro/internal/cluster/bitlsh"
	"repro/internal/cluster/dbscan"
	"repro/internal/cluster/hnsw"
	"repro/internal/cluster/rolediet"
	"repro/internal/ctxcheck"
	"repro/internal/matrix"
)

// Method selects the role-group detection algorithm (§III-C evaluates
// the three of them).
type Method int

// The paper's three methods, plus the float64 DBSCAN cost-model variant.
const (
	// MethodRoleDiet is the paper's custom algorithm: deterministic,
	// complete, and the fastest of the three.
	MethodRoleDiet Method = iota + 1
	// MethodDBSCAN is the exact-clustering baseline.
	MethodDBSCAN
	// MethodHNSW is the approximate-nearest-neighbour baseline; it may
	// miss group members (recall < 1), which the paper accepts because
	// periodic re-runs converge.
	MethodHNSW
	// MethodDBSCANFloat64 is DBSCAN over []float64 rows — the cost model
	// of the paper's scikit-learn baseline, which receives the
	// assignment matrix as a float array. The bit-packed MethodDBSCAN is
	// 20-50x faster per distance call; this variant exists so the
	// Figure 2/3 shape (including the HNSW crossover) can be reproduced
	// against a baseline with the paper's arithmetic.
	MethodDBSCANFloat64
	// MethodLSH is bit-sampling locality-sensitive hashing, a second
	// approximate baseline: exact at threshold 0, probabilistic recall
	// above, never a false pair. It extends the paper's comparison with
	// the LSH family its datasketch dependency is built around.
	MethodLSH
)

// String returns the method's name as used in CLI flags and reports.
func (m Method) String() string {
	switch m {
	case MethodRoleDiet:
		return "rolediet"
	case MethodDBSCAN:
		return "dbscan"
	case MethodHNSW:
		return "hnsw"
	case MethodDBSCANFloat64:
		return "dbscan-float64"
	case MethodLSH:
		return "lsh"
	default:
		return fmt.Sprintf("core.Method(%d)", int(m))
	}
}

// MarshalText encodes the method as its flag/JSON name, so Options
// structs marshal with "method": "rolediet" rather than an opaque int.
func (m Method) MarshalText() ([]byte, error) {
	if m == 0 {
		return []byte(""), nil
	}
	if _, err := ParseMethod(m.String()); err != nil {
		return nil, fmt.Errorf("core: cannot marshal unknown method %d", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a method name, rejecting unknown ones. The
// empty string decodes to the zero Method (defaulted to rolediet by
// withDefaults), so {"method": ""} and an absent field behave alike.
func (m *Method) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*m = 0
		return nil
	}
	parsed, err := ParseMethod(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMethod resolves a method name.
func ParseMethod(name string) (Method, error) {
	switch name {
	case "rolediet":
		return MethodRoleDiet, nil
	case "dbscan":
		return MethodDBSCAN, nil
	case "hnsw":
		return MethodHNSW, nil
	case "dbscan-float64":
		return MethodDBSCANFloat64, nil
	case "lsh":
		return MethodLSH, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q", name)
	}
}

// GroupOptions tunes FindRoleGroups. The JSON form is the wire schema
// shared by the HTTP server, the jobs API, and the CLI's -options flag;
// see Options for the top-level contract.
type GroupOptions struct {
	// Method selects the algorithm; defaults to MethodRoleDiet.
	Method Method `json:"method,omitempty"`
	// Threshold is the maximum Hamming distance within a group: 0 finds
	// roles sharing the same users/permissions (class 4), k >= 1 finds
	// similar ones (class 5).
	Threshold int `json:"threshold,omitempty"`
	// HNSW carries index parameters for MethodHNSW; the zero value uses
	// the library defaults (M=16, efConstruction=200, Manhattan).
	HNSW hnsw.Config `json:"hnsw,omitempty"`
	// HNSWSearchEf is the beam width used when querying each role's
	// neighbourhood; defaults to 64.
	HNSWSearchEf int `json:"hnswSearchEf,omitempty"`
	// LSH carries index parameters for MethodLSH; the zero value picks
	// width- and threshold-dependent defaults.
	LSH bitlsh.Config `json:"lsh,omitempty"`
	// IgnoreEmptyRows excludes roles with no assignments on the analysed
	// side from grouping. All-zero rows are trivially identical to each
	// other, so without this a dataset's disconnected roles (inefficiency
	// class 2) would resurface as one giant class-4 group. The Analyzer
	// always applies the same filter; the raw facade defaults to false.
	IgnoreEmptyRows bool `json:"ignoreEmptyRows,omitempty"`
	// Workers fans the selected backend's hot phase out over this many
	// goroutines. 0 (the default) and 1 run the serial implementation;
	// values >= 2 select the parallel one; negative values are rejected.
	// Exact backends (rolediet, dbscan, dbscan-float64, lsh) return
	// identical results at any worker count; hnsw keeps its recall floor
	// but links may differ run to run when Workers >= 2.
	Workers int `json:"workers,omitempty"`
	// Progress, when non-nil, receives (rowsDone, totalRows) from inside
	// the grouping loops for the backends that support in-loop reporting
	// (rolediet and hnsw; dbscan and lsh report only at boundaries). Not
	// part of the wire schema.
	Progress func(done, total int) `json:"-"`
}

// UnmarshalJSON decodes the wire form, rejecting unknown method names
// (via Method.UnmarshalText) and negative thresholds, so every consumer
// of the schema applies the same validation.
func (o *GroupOptions) UnmarshalJSON(data []byte) error {
	type plain GroupOptions
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if p.Threshold < 0 {
		return fmt.Errorf("core: negative group threshold %d", p.Threshold)
	}
	if p.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", p.Workers)
	}
	*o = GroupOptions(p)
	return nil
}

// FindRoleGroups detects groups of roles whose rows (RUAM or RPAM) are
// identical (Threshold 0) or similar (Threshold k). Groups use the
// connected-component semantics shared by all three methods; every
// group has at least two members, members ascend, and groups are
// ordered by smallest member.
func FindRoleGroups(rows []*bitvec.Vector, opts GroupOptions) ([][]int, error) {
	return FindRoleGroupsContext(context.Background(), rows, opts)
}

// FindRoleGroupsContext is FindRoleGroups bound to a context. Every
// backend polls the context periodically inside its hot loops and
// aborts with ctx.Err() once it is cancelled.
func FindRoleGroupsContext(ctx context.Context, rows []*bitvec.Vector, opts GroupOptions) ([][]int, error) {
	if opts.Threshold < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", opts.Threshold)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: negative workers %d", opts.Workers)
	}
	if len(rows) == 0 {
		return nil, nil
	}
	if opts.IgnoreEmptyRows {
		kept := make([]*bitvec.Vector, 0, len(rows))
		remap := make([]int, 0, len(rows))
		for i, r := range rows {
			if r.Any() {
				kept = append(kept, r)
				remap = append(remap, i)
			}
		}
		inner := opts
		inner.IgnoreEmptyRows = false
		groups, err := FindRoleGroupsContext(ctx, kept, inner)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			for i, idx := range g {
				g[i] = remap[idx]
			}
		}
		return groups, nil
	}
	return findGroupsIn(ctx, &groupInput{n: len(rows), vecs: rows}, opts, false)
}

// groupInput is one grouping run's rows in the forms the backends
// consume: CSR column lists, a packed bit-matrix arena, or per-row
// vectors. A caller sets the form it holds (the Analyzer a CSR view,
// the FindRoleGroups facade its vectors); the others are derived from
// it on first use and cached, so an Analyzer side's class-4 and class-5
// runs share a single packing.
type groupInput struct {
	n    int
	csr  *matrix.CSR
	mat  *bitmat.Matrix
	vecs []*bitvec.Vector
}

// arena returns the packed bit-matrix arena, packing it on first use.
func (in *groupInput) arena() (*bitmat.Matrix, error) {
	if in.mat == nil {
		if in.csr != nil {
			in.mat = bitmat.FromCSR(in.csr)
		} else {
			m, err := bitmat.FromRows(in.vecs)
			if err != nil {
				return nil, err
			}
			in.mat = m
		}
	}
	return in.mat, nil
}

// vectors returns the rows as bit vectors, materialising them from the
// arena on first use. Only dbscan-float64 and hnsw under a non-arena
// metric need them.
func (in *groupInput) vectors() ([]*bitvec.Vector, error) {
	if in.vecs == nil {
		m, err := in.arena()
		if err != nil {
			return nil, err
		}
		in.vecs = make([]*bitvec.Vector, in.n)
		for i := range in.vecs {
			in.vecs[i] = m.RowVector(i)
		}
	}
	return in.vecs, nil
}

// findGroupsIn is the backend dispatch behind FindRoleGroupsContext
// and the Analyzer. in must be non-empty and already filtered for
// IgnoreEmptyRows. sparse selects rolediet's CSR kernel over in.csr
// instead of the arena one; other methods ignore it.
func findGroupsIn(ctx context.Context, in *groupInput, opts GroupOptions, sparse bool) ([][]int, error) {
	if opts.Threshold < 0 {
		return nil, fmt.Errorf("core: negative threshold %d", opts.Threshold)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: negative workers %d", opts.Workers)
	}
	method := opts.Method
	if method == 0 {
		method = MethodRoleDiet
	}
	// Workers 0/1 keep the serial implementations; >= 2 selects each
	// backend's parallel variant with that worker count.
	par := opts.Workers >= 2
	switch method {
	case MethodRoleDiet:
		ropts := rolediet.Options{
			Threshold: opts.Threshold,
			Progress:  opts.Progress,
		}
		var res *rolediet.Result
		var err error
		switch {
		case sparse && par:
			res, err = rolediet.GroupsCSRParallelContext(ctx, in.csr, ropts, opts.Workers)
		case sparse:
			res, err = rolediet.GroupsCSRContext(ctx, in.csr, ropts)
		default:
			var am *bitmat.Matrix
			if am, err = in.arena(); err != nil {
				return nil, err
			}
			if par {
				res, err = rolediet.GroupsMatParallelContext(ctx, am, ropts, opts.Workers)
			} else {
				res, err = rolediet.GroupsMatContext(ctx, am, ropts)
			}
		}
		if err != nil {
			return nil, err
		}
		return res.Groups, nil
	case MethodDBSCAN:
		cfg := dbscan.Config{
			// Small epsilon mirrors the paper's float-comparison guard;
			// distances are integral so it cannot admit false pairs.
			Eps:    float64(opts.Threshold) + 1e-9,
			MinPts: 2,
		}
		am, err := in.arena()
		if err != nil {
			return nil, err
		}
		var res *dbscan.Result
		if par {
			res, err = dbscan.RunMatParallelContext(ctx, am, cfg, opts.Workers)
		} else {
			res, err = dbscan.RunMatContext(ctx, am, cfg)
		}
		if err != nil {
			return nil, err
		}
		return normalizeGroups(res.Groups()), nil
	case MethodHNSW:
		return hnswGroups(ctx, in, opts)
	case MethodDBSCANFloat64:
		rows, err := in.vectors()
		if err != nil {
			return nil, err
		}
		floats := make([][]float64, len(rows))
		for i, r := range rows {
			floats[i] = r.Floats()
		}
		cfg := dbscan.Config{
			Eps:    float64(opts.Threshold) + 1e-9,
			MinPts: 2,
		}
		var res *dbscan.Result
		if par {
			res, err = dbscan.RunFloatsParallelContext(ctx, floats, cfg, opts.Workers)
		} else {
			res, err = dbscan.RunFloatsContext(ctx, floats, cfg)
		}
		if err != nil {
			return nil, err
		}
		return normalizeGroups(res.Groups()), nil
	case MethodLSH:
		am, err := in.arena()
		if err != nil {
			return nil, err
		}
		var res *bitlsh.Result
		if par {
			res, err = bitlsh.FindGroupsMatParallelContext(ctx, am, opts.Threshold, opts.LSH, opts.Workers)
		} else {
			res, err = bitlsh.FindGroupsMatContext(ctx, am, opts.Threshold, opts.LSH)
		}
		if err != nil {
			return nil, err
		}
		return res.Groups, nil
	default:
		return nil, fmt.Errorf("core: unknown method %d", int(method))
	}
}

// hnswGroups mirrors the paper's §III-D use of the ANN index: build an
// index over all role rows, then query it once per role and link every
// verified neighbour within the threshold. Connectivity is resolved
// with union-find; recall is approximate by construction.
//
// Under the arena-compatible metrics (the default Manhattan and
// Hamming) the index is built straight off the shared bit matrix and
// queried by row id, so the whole run makes zero per-distance
// allocations; exotic metrics keep the vector-backed path.
func hnswGroups(ctx context.Context, in *groupInput, opts GroupOptions) ([][]int, error) {
	useMat := hnsw.SupportsMat(opts.HNSW.Metric)
	var rows []*bitvec.Vector
	var idx *hnsw.Index
	var err error
	if useMat {
		var am *bitmat.Matrix
		if am, err = in.arena(); err != nil {
			return nil, err
		}
		if opts.Workers >= 2 {
			idx, err = hnsw.BuildFromMatParallelContext(ctx, am, opts.HNSW, opts.Workers)
		} else {
			idx, err = hnsw.BuildFromMatContext(ctx, am, opts.HNSW)
		}
	} else {
		if rows, err = in.vectors(); err != nil {
			return nil, err
		}
		if opts.Workers >= 2 {
			idx, err = hnsw.BuildParallelContext(ctx, rows, opts.HNSW, opts.Workers)
		} else {
			idx, err = hnsw.BuildContext(ctx, rows, opts.HNSW)
		}
	}
	if err != nil {
		return nil, err
	}
	ef := opts.HNSWSearchEf
	if ef <= 0 {
		ef = 64
	}
	chk := ctxcheck.New(ctx, 1)
	parent := make([]int, in.n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	radius := float64(opts.Threshold)
	for i := 0; i < in.n; i++ {
		// One poll per query: each radius search is a bounded beam scan.
		// Progress follows the same per-query stride.
		if err := chk.Err(); err != nil {
			return nil, err
		}
		if opts.Progress != nil {
			opts.Progress(i, in.n)
		}
		var hits []hnsw.Neighbour
		var err error
		if useMat {
			hits, err = idx.SearchRadiusRow(i, radius, ef)
		} else {
			hits, err = idx.SearchRadius(rows[i], radius, ef)
		}
		if err != nil {
			return nil, err
		}
		for _, h := range hits {
			if h.ID != i {
				union(i, h.ID)
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := 0; i < in.n; i++ {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	groups := make([][]int, 0, len(byRoot))
	for _, g := range byRoot {
		if len(g) >= 2 {
			groups = append(groups, g)
		}
	}
	return normalizeGroups(groups), nil
}

// normalizeGroups sorts members ascending and groups by first member.
// Inputs coming from maps or label vectors already have sorted members,
// but normalisation keeps the contract independent of the source.
func normalizeGroups(groups [][]int) [][]int {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}
