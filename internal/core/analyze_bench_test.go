package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/rbac"
)

// matrixDataset builds a dataset whose RUAM and RPAM are §IV-A
// generator matrices at the given densities, with planted
// near-identical clusters so classes 4 and 5 are populated.
func matrixDataset(tb testing.TB, roles, users, perms int, userDensity, permDensity float64, seed int64) *rbac.Dataset {
	tb.Helper()
	side := func(cols int, density float64, seed int64) *gen.GeneratedMatrix {
		g, err := gen.Matrix(gen.MatrixParams{
			Rows: roles, Cols: cols, Density: density,
			ClusterProportion: 0.2, MaxClusterSize: 10, SimilarNoise: 1, Seed: seed,
		})
		if err != nil {
			tb.Fatal(err)
		}
		return g
	}
	ruam, rpam := side(users, userDensity, seed), side(perms, permDensity, seed+1)
	d := rbac.NewDataset()
	for u := 0; u < users; u++ {
		d.EnsureUser(rbac.UserID(fmt.Sprintf("u%05d", u)))
	}
	for p := 0; p < perms; p++ {
		d.EnsurePermission(rbac.PermissionID(fmt.Sprintf("p%05d", p)))
	}
	for r := 0; r < roles; r++ {
		role := rbac.RoleID(fmt.Sprintf("r%05d", r))
		d.EnsureRole(role)
		ruam.Rows[r].ForEach(func(u int) bool {
			_ = d.AssignUser(role, d.User(u))
			return true
		})
		rpam.Rows[r].ForEach(func(p int) bool {
			_ = d.AssignPermission(role, d.Permission(p))
			return true
		})
	}
	return d
}

// orgDataset is the organisation generator at 1/div of the paper's
// scale.
func orgDataset(tb testing.TB, div int) *rbac.Dataset {
	tb.Helper()
	d, _, err := gen.Org(gen.DefaultOrgParams().Scaled(div))
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// benchmarkAnalyze times one default analysis (rolediet, k=1, serial)
// per iteration, snapshot included: the work POST /v1/analyze does on a
// cache miss.
func benchmarkAnalyze(b *testing.B, d *rbac.Dataset) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := AnalyzeContext(context.Background(), d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchReport = rep
	}
}

// benchReport keeps the benchmarked result live.
var benchReport *Report

// BenchmarkAnalyzeOrg10 is the org-audit workload's corpus: 9,000 users
// × 5,000 roles × 35,000 permissions, extremely sparse on both sides.
func BenchmarkAnalyzeOrg10(b *testing.B) { benchmarkAnalyze(b, orgDataset(b, 10)) }

// BenchmarkAnalyzeOrg40 is the org-optimize workload's corpus.
func BenchmarkAnalyzeOrg40(b *testing.B) { benchmarkAnalyze(b, orgDataset(b, 40)) }

// BenchmarkAnalyzeDenseSynthetic is a 5,000-role synthetic dataset
// with 2,000 users at density 0.2 (about 400 set bits per row against
// a 32-word arena stride) and 2,000 permissions at density 0.01 (about
// 20), so one side is dense and one sparse by the kernel size rule.
func BenchmarkAnalyzeDenseSynthetic(b *testing.B) {
	benchmarkAnalyze(b, matrixDataset(b, 5000, 2000, 2000, 0.2, 0.01, 1))
}
