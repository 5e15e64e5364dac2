package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/consolidate"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/hierarchy"
	"repro/internal/rbac"
)

// cmdGenerate writes a synthetic dataset to a JSON file.
func cmdGenerate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	var (
		out   = fs.String("out", "dataset.json", "output JSON path")
		org   = fs.Bool("org", false, "generate the organisation-scale dataset instead of a plain matrix")
		scale = fs.Int("scale", 100, "org mode: divide the paper-scale counts by this factor")
		roles = fs.Int("roles", 1000, "matrix mode: number of roles")
		users = fs.Int("users", 1000, "matrix mode: number of users")
		prop  = fs.Float64("cluster-proportion", 0.2, "matrix mode: fraction of roles in planted clusters")
		maxC  = fs.Int("max-cluster", 10, "matrix mode: maximum identical roles per cluster")
		seed  = fs.Int64("seed", 1, "generator seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ds *rbac.Dataset
	if *org {
		p := gen.DefaultOrgParams().Scaled(*scale)
		p.Seed = *seed
		var err error
		ds, _, err = gen.Org(p)
		if err != nil {
			return err
		}
	} else {
		g, err := gen.Matrix(gen.MatrixParams{
			Rows:              *roles,
			Cols:              *users,
			ClusterProportion: *prop,
			MaxClusterSize:    *maxC,
			Seed:              *seed,
		})
		if err != nil {
			return err
		}
		ds = rbac.NewDataset()
		for u := 0; u < *users; u++ {
			_ = ds.AddUser(rbac.UserID(fmt.Sprintf("u%06d", u)))
		}
		for r := 0; r < *roles; r++ {
			id := rbac.RoleID(fmt.Sprintf("r%06d", r))
			_ = ds.AddRole(id)
			g.Rows[r].ForEach(func(u int) bool {
				_ = ds.AssignUser(id, rbac.UserID(fmt.Sprintf("u%06d", u)))
				return true
			})
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := ds.WriteJSON(f); err != nil {
		return err
	}
	s := ds.Stats()
	fmt.Fprintf(stdout, "wrote %s: %d users, %d roles, %d permissions, %d+%d assignments\n",
		*out, s.Users, s.Roles, s.Permissions, s.UserAssignments, s.PermissionAssignments)
	return nil
}

// applyOptionsJSON overlays the shared core.Options wire schema (the
// same one the server's body envelope and /v1/jobs use) onto opts.
// Keys present in the JSON win over the individual flags, mirroring
// the server's body-wins rule; absent keys leave the flags intact.
func applyOptionsJSON(raw string, opts *core.Options) error {
	if raw == "" {
		return nil
	}
	if err := json.Unmarshal([]byte(raw), opts); err != nil {
		return fmt.Errorf("parse -options: %w", err)
	}
	return nil
}

// loadDataset reads a dataset JSON file.
func loadDataset(path string) (*rbac.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rbac.ReadJSON(f)
}

// cmdAnalyze runs the detection framework over a dataset file.
func cmdAnalyze(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		data      = fs.String("data", "", "dataset JSON path (required)")
		method    = fs.String("method", "rolediet", "group method: rolediet, dbscan, hnsw, lsh or dbscan-float64")
		threshold = fs.Int("threshold", 1, "similar-group threshold k")
		sparse    = fs.Bool("sparse", false, "no-op kept for compatibility (every analysis runs off CSR); rejects methods other than rolediet")
		workers   = fs.Int("workers", 0, "grouping worker goroutines; 0 or 1 run serially, >= 2 parallelise")
		format    = fs.String("format", "text", "output format: text or json")
		hierPath  = fs.String("hierarchy", "", "inheritance sidecar JSON; flatten before analysing")
		optsJSON  = fs.String("options", "", `analysis options as JSON, e.g. '{"method":"hnsw","threshold":2}' (same schema as the server's body envelope; overrides -method/-threshold)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("analyze: -data is required")
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	if *hierPath != "" {
		f, err := os.Open(*hierPath)
		if err != nil {
			return err
		}
		h, err := hierarchy.ReadEdges(ds, f)
		f.Close()
		if err != nil {
			return err
		}
		if cycles := h.Cycles(); len(cycles) > 0 {
			fmt.Fprintf(stdout, "WARNING: inheritance cycles involving %v\n", cycles)
		}
		if redundant := h.RedundantEdges(); len(redundant) > 0 {
			fmt.Fprintf(stdout, "redundant inheritance edges: %v\n", redundant)
		}
		ds, err = h.Flatten()
		if err != nil {
			return err
		}
	}
	m, err := core.ParseMethod(*method)
	if err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("analyze: -workers %d < 0", *workers)
	}
	opts := core.Options{Method: m, SimilarThreshold: *threshold, Workers: *workers}
	if err := applyOptionsJSON(*optsJSON, &opts); err != nil {
		return err
	}
	var rep *core.Report
	if *sparse {
		rep, err = core.AnalyzeSparse(ds, opts)
	} else {
		rep, err = core.Analyze(ds, opts)
	}
	if err != nil {
		return err
	}
	switch *format {
	case "text":
		fmt.Fprint(stdout, rep.Summary())
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	default:
		return fmt.Errorf("analyze: unknown format %q", *format)
	}
	return nil
}

// cmdConsolidate plans and applies safe merges, writing the reduced
// dataset.
func cmdConsolidate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("consolidate", flag.ContinueOnError)
	var (
		data     = fs.String("data", "", "dataset JSON path (required)")
		out      = fs.String("out", "", "write the consolidated dataset to this path (optional)")
		workers  = fs.Int("workers", 0, "grouping worker goroutines; 0 or 1 run serially, >= 2 parallelise")
		optsJSON = fs.String("options", "", `analysis options as JSON, e.g. '{"method":"rolediet"}' (same schema as the server's body envelope)`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("consolidate: -data is required")
	}
	if *workers < 0 {
		return fmt.Errorf("consolidate: -workers %d < 0", *workers)
	}
	ds, err := loadDataset(*data)
	if err != nil {
		return err
	}
	copts := core.Options{Workers: *workers}
	if err := applyOptionsJSON(*optsJSON, &copts); err != nil {
		return err
	}
	after, plan, err := consolidate.Consolidate(ds, copts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "planned %d merges removing %d of %d roles (%.1f%%); safety verified\n",
		len(plan.Merges), plan.RolesRemoved(), ds.NumRoles(),
		100*float64(plan.RolesRemoved())/float64(max(1, ds.NumRoles())))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := after.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote consolidated dataset to %s (%d roles)\n", *out, after.NumRoles())
	}
	return nil
}

// cmdSweep reproduces the Figure 2/3 timing comparisons.
func cmdSweep(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		axis    = fs.String("axis", "roles", "varied dimension: roles (Figure 3) or users (Figure 2)")
		fixed   = fs.Int("fixed", 1000, "size of the fixed dimension")
		values  = fs.String("values", "1000,2000,4000,7000,10000", "comma-separated sweep sizes")
		runs    = fs.Int("runs", 5, "repetitions per measurement")
		methods = fs.String("methods", "rolediet,dbscan,hnsw", "comma-separated methods")
		k       = fs.Int("threshold", 0, "group threshold (0 = same users)")
		csv     = fs.Bool("csv", false, "emit CSV instead of a table")
		plot    = fs.Bool("plot", false, "emit an ASCII chart instead of a table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ax bench.Axis
	switch *axis {
	case "roles":
		ax = bench.AxisRoles
	case "users":
		ax = bench.AxisUsers
	default:
		return fmt.Errorf("sweep: unknown axis %q", *axis)
	}
	var vals []int
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("sweep: bad value %q: %w", s, err)
		}
		vals = append(vals, v)
	}
	var ms []core.Method
	for _, s := range strings.Split(*methods, ",") {
		m, err := core.ParseMethod(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		ms = append(ms, m)
	}
	res, err := bench.RunSweep(bench.SweepConfig{
		Axis:      ax,
		Fixed:     *fixed,
		Values:    vals,
		Methods:   ms,
		Runs:      *runs,
		Threshold: *k,
		Progress:  func(line string) { fmt.Fprintln(stderr, line) },
	})
	if err != nil {
		return err
	}
	switch {
	case *csv:
		fmt.Fprint(stdout, res.CSV())
	case *plot:
		fmt.Fprint(stdout, res.Plot(72, 20))
	default:
		fmt.Fprint(stdout, res.Table())
	}
	return nil
}

// cmdOrg reproduces the §IV-B organisation-scale audit.
func cmdOrg(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("org", flag.ContinueOnError)
	scale := fs.Int("scale", 1, "divide the paper-scale counts by this factor (1 = full 50k-role scale)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := bench.RunOrg(*scale)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Table())
	if !res.Matches() {
		return fmt.Errorf("org: detected counts diverge from planted ground truth")
	}
	return nil
}
