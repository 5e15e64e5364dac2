package optimize

import (
	"testing"

	"repro/internal/gen"
)

// benchmarkRun times one default optimization (eliminations, merge
// rounds to convergence, the reachability oracle) per iteration: the
// work POST /v1/optimize does on a cache miss.
func benchmarkRun(b *testing.B, div int) {
	d, _, err := gen.Org(gen.DefaultOrgParams().Scaled(div))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(d, Knobs{})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}

// benchResult keeps the benchmarked result live.
var benchResult *Result

// BenchmarkOptimizeOrg40 is the org-optimize workload's corpus: 2,250
// users × 1,250 roles × 8,750 permissions.
func BenchmarkOptimizeOrg40(b *testing.B) { benchmarkRun(b, 40) }

// BenchmarkOptimizeOrg10 is the paper/10 corpus: 9,000 users × 5,000
// roles × 35,000 permissions.
func BenchmarkOptimizeOrg10(b *testing.B) { benchmarkRun(b, 10) }
