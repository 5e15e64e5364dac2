package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cluster/hnsw"
	"repro/internal/matrix"
	"repro/internal/metric"
	"repro/internal/rbac"
)

// denseReference is the dense analysis path the Analyzer replaced,
// kept as the equivalence oracle: RUAM/RPAM densified, classes 1-3 from
// bit-matrix row and column sums, classes 4-5 through the
// FindRoleGroups facade with empty rows ignored. Durations are left
// zero and progress stages are recorded at the same boundaries.
func denseReference(t *testing.T, d *rbac.Dataset, opts Options) (*Report, []string) {
	t.Helper()
	opts = opts.withDefaults()
	var stages []string
	stage := func(s string) { stages = append(stages, s) }
	rep := &Report{Stats: d.Stats(), Method: opts.Method.String(), SimilarThreshold: opts.SimilarThreshold}

	stage(StageLinearScan)
	ruam, rpam := d.RUAM(), d.RPAM()
	for ui, deg := range ruam.ColSums() {
		if deg == 0 {
			rep.StandaloneUsers = append(rep.StandaloneUsers, d.User(ui))
		}
	}
	for pi, deg := range rpam.ColSums() {
		if deg == 0 {
			rep.StandalonePermissions = append(rep.StandalonePermissions, d.Permission(pi))
		}
	}
	userSums, permSums := ruam.RowSums(), rpam.RowSums()
	for ri := range userSums {
		users, perms := userSums[ri], permSums[ri]
		switch {
		case users == 0 && perms == 0:
			rep.StandaloneRoles = append(rep.StandaloneRoles, d.Role(ri))
		case users == 0:
			rep.RolesWithoutUsers = append(rep.RolesWithoutUsers, d.Role(ri))
		case perms == 0:
			rep.RolesWithoutPermissions = append(rep.RolesWithoutPermissions, d.Role(ri))
		}
		if users == 1 {
			rep.RolesWithSingleUser = append(rep.RolesWithSingleUser, d.Role(ri))
		}
		if perms == 1 {
			rep.RolesWithSinglePermission = append(rep.RolesWithSinglePermission, d.Role(ri))
		}
	}
	if opts.SkipGroups {
		stage(StageDone)
		return rep, stages
	}

	groups := func(m *matrix.BitMatrix, k int) []RoleGroup {
		rows := make([]*bitvec.Vector, m.Rows())
		for i := range rows {
			rows[i] = m.Row(i)
		}
		gopts := opts.Group
		gopts.Method, gopts.Threshold, gopts.IgnoreEmptyRows = opts.Method, k, true
		if opts.Workers != 0 {
			gopts.Workers = opts.Workers
		}
		idx, err := FindRoleGroups(rows, gopts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]RoleGroup, len(idx))
		for gi, g := range idx {
			out[gi].Roles = make([]rbac.RoleID, len(g))
			for i, ri := range g {
				out[gi].Roles[i] = d.Role(ri)
			}
		}
		return out
	}
	stage(StageSameUserGroups)
	rep.SameUserGroups = groups(ruam, 0)
	stage(StageSamePermissionGroups)
	rep.SamePermissionGroups = groups(rpam, 0)
	if opts.SkipSimilar {
		stage(StageDone)
		return rep, stages
	}
	stage(StageSimilarUserGroups)
	rep.SimilarUserGroups = groups(ruam, opts.SimilarThreshold)
	stage(StageSimilarPermissionGroups)
	rep.SimilarPermissionGroups = groups(rpam, opts.SimilarThreshold)
	stage(StageDone)
	return rep, stages
}

// runAnalyzer analyses d with the given per-side kernels pinned and
// returns the report (durations zeroed) and its distinct progress
// stages in emission order.
func runAnalyzer(t *testing.T, d *rbac.Dataset, users, perms kernel, opts Options) (*Report, []string) {
	t.Helper()
	var stages []string
	opts.Progress = func(stage string, _ float64) {
		if len(stages) == 0 || stages[len(stages)-1] != stage {
			stages = append(stages, stage)
		}
	}
	a := NewAnalyzer(d)
	a.ruam.force, a.rpam.force = users, perms
	rep, err := a.AnalyzeContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep.LinearScanDuration, rep.SameGroupsDuration, rep.SimilarGroupDuration = 0, 0, 0
	return rep, stages
}

// equivalenceCorpora is the sweep the CSR-first Analyzer is pinned
// against the dense reference on: the paper's Figure 1, the organisation
// generator at two scales, and generator matrices from sparse to dense.
func equivalenceCorpora(t *testing.T) map[string]*rbac.Dataset {
	t.Helper()
	corpora := map[string]*rbac.Dataset{"figure1": rbac.Figure1()}
	divs := []int{40, 10}
	if testing.Short() {
		divs = []int{40}
	}
	for _, div := range divs {
		corpora[fmt.Sprintf("org-div%d", div)] = orgDataset(t, div)
	}
	for i, density := range []float64{0.01, 0.05, 0.2, 0.5} {
		corpora[fmt.Sprintf("matrix-d%g", density)] = matrixDataset(t, 240, 150, 600, density, density, int64(10+i))
	}
	return corpora
}

// TestAnalyzerKernelEquivalence forces every rolediet kernel on every
// side and requires the report, and the progress stage sequence, of
// the dense reference across thresholds and worker counts.
func TestAnalyzerKernelEquivalence(t *testing.T) {
	kernels := []kernel{kernelAuto, kernelCSR, kernelArena}
	for name, d := range equivalenceCorpora(t) {
		d := d
		t.Run(name, func(t *testing.T) {
			for k := 0; k <= 2; k++ {
				for _, workers := range []int{0, 2} {
					opts := Options{SimilarThreshold: k, Workers: workers}
					want, wantStages := denseReference(t, d, opts)
					for _, ku := range kernels {
						for _, kp := range kernels {
							got, stages := runAnalyzer(t, d, ku, kp, opts)
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("k=%d workers=%d kernels=(%d,%d): report differs from dense reference\n got:  %+v\n want: %+v",
									k, workers, ku, kp, got, want)
							}
							if !reflect.DeepEqual(stages, wantStages) {
								t.Fatalf("k=%d workers=%d kernels=(%d,%d): stages %v, want %v",
									k, workers, ku, kp, stages, wantStages)
							}
						}
					}
				}
			}
		})
	}
}

// TestAnalyzerKernelSkipPaths covers the short-circuits on both kernels.
func TestAnalyzerKernelSkipPaths(t *testing.T) {
	d := matrixDataset(t, 120, 80, 300, 0.05, 0.05, 3)
	for _, opts := range []Options{{SkipGroups: true}, {SkipSimilar: true}} {
		want, wantStages := denseReference(t, d, opts)
		for _, kn := range []kernel{kernelCSR, kernelArena} {
			got, stages := runAnalyzer(t, d, kn, kn, opts)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stages, wantStages) {
				t.Fatalf("%+v kernel %d: got %+v %v, want %+v %v", opts, kn, got, stages, want, wantStages)
			}
		}
	}
}

// TestAnalyzerOtherMethodsMatchReference runs the arena-only backends,
// and the two that materialise vectors from the arena (dbscan-float64,
// hnsw under a non-arena metric), against the dense reference.
func TestAnalyzerOtherMethodsMatchReference(t *testing.T) {
	corpora := map[string]*rbac.Dataset{
		"figure1":      rbac.Figure1(),
		"matrix-d0.05": matrixDataset(t, 90, 70, 200, 0.05, 0.05, 5),
	}
	for name, d := range corpora {
		for _, opts := range []Options{
			{Method: MethodDBSCAN, SimilarThreshold: 2},
			{Method: MethodDBSCAN, SimilarThreshold: 1, Workers: 2},
			{Method: MethodLSH, SimilarThreshold: 1},
			{Method: MethodHNSW, SimilarThreshold: 1},
			{Method: MethodHNSW, SimilarThreshold: 1, Group: GroupOptions{HNSW: hnsw.Config{Metric: metric.Hamming}}},
			{Method: MethodHNSW, SimilarThreshold: 1, Group: GroupOptions{HNSW: hnsw.Config{Metric: metric.Euclidean}}},
			{Method: MethodDBSCANFloat64, SimilarThreshold: 1},
		} {
			want, wantStages := denseReference(t, d, opts)
			got, stages := runAnalyzer(t, d, kernelAuto, kernelAuto, opts)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stages, wantStages) {
				t.Fatalf("%s %s (group %+v): got %+v %v, want %+v %v",
					name, opts.Method, opts.Group, got, stages, want, wantStages)
			}
		}
	}
}

// TestAnalyzerSnapshotIgnoresEdgeMutations extends the snapshot
// isolation guarantee to assignment edges and new entities, which the
// CSR views must have copied rather than aliased.
func TestAnalyzerSnapshotIgnoresEdgeMutations(t *testing.T) {
	d := rbac.Figure1()
	want, _ := denseReference(t, d, Options{})
	a := NewAnalyzer(d)
	for _, mutate := range []func() error{
		func() error { return d.AssignUser("R03", "U01") },
		func() error { return d.RevokePermission("R01", "P02") },
		func() error { return d.AddUser("U-new") },
		func() error { return d.RemovePermission("P05") },
	} {
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := a.Analyze(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got.LinearScanDuration, got.SameGroupsDuration, got.SimilarGroupDuration = 0, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("analyzer observed later mutations:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestKernelSizeRule pins the automatic choice: CSR when the side's
// column lists are no larger than its arena, the arena otherwise.
func TestKernelSizeRule(t *testing.T) {
	sparse := matrixDataset(t, 200, 2000, 64, 0.005, 0.005, 1) // ~10 of 32 words per RUAM row
	dense := matrixDataset(t, 200, 2000, 64, 0.2, 0.2, 1)      // ~400 of 32 words per RUAM row
	for _, tc := range []struct {
		name string
		d    *rbac.Dataset
		want bool
	}{{"sparse", sparse, true}, {"dense", dense, false}} {
		a := NewAnalyzer(tc.d)
		in, _ := a.ruam.groupView()
		if got := a.ruam.useCSR(in); got != tc.want {
			t.Errorf("%s RUAM: useCSR = %v, want %v (nnz %d, %d rows x %d cols)",
				tc.name, got, tc.want, in.csr.NNZ(), in.n, in.csr.Cols())
		}
	}
}
