package core

import (
	"context"
	"fmt"

	"repro/internal/rbac"
)

// AnalyzeSparse is Analyze restricted to MethodRoleDiet: for that
// method it returns exactly Analyze's report (every analysis runs off
// CSR adjacency, see NewAnalyzer), and it rejects every other method.
// The restriction mirrors the paper's finding that the DBSCAN and HNSW
// baselines were halted after 24 hours on the organisation-scale
// dataset while the custom algorithm finished in about two minutes.
func AnalyzeSparse(d *rbac.Dataset, opts Options) (*Report, error) {
	return AnalyzeSparseContext(context.Background(), d, opts)
}

// AnalyzeSparseContext is AnalyzeSparse with cooperative cancellation,
// exactly as AnalyzeContext.
func AnalyzeSparseContext(ctx context.Context, d *rbac.Dataset, opts Options) (*Report, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if m := opts.withDefaults().Method; m != MethodRoleDiet {
		return nil, fmt.Errorf("core: sparse analysis supports only rolediet, got %s", m)
	}
	return AnalyzeContext(ctx, d, opts)
}
