package optimize

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rbac"
)

// referenceEliminate is the brute-force definition of the elimination
// phase the planner must reproduce: class-1/2 roles are removed one by
// one, then every class-3 candidate, in role-ID order, is dropped when
// each (user, permission) pair it grants is granted by some other role
// of the dataset as it stands after the drops before it — checked over
// dense rows of every role, removing each drop at once.
func referenceEliminate(t *testing.T, d *rbac.Dataset) ([]Action, *rbac.Dataset) {
	t.Helper()
	p := &planner{ctx: context.Background(), cur: d}
	rep, err := p.analyze(true, true)
	if err != nil {
		t.Fatal(err)
	}
	cur := d.Clone()
	var actions []Action
	drop := func(r rbac.RoleID, kind string, class int, reason string) {
		ri, ok := cur.RoleIndex(r)
		if !ok {
			t.Fatalf("reference: dropped role %q not in dataset", r)
		}
		actions = append(actions, Action{
			Kind: kind, Class: class, Role: r, RolesRemoved: 1,
			EdgesDelta: -(cur.UserRow(ri).Count() + cur.PermRow(ri).Count()),
			Reason:     reason,
		})
		if err := cur.RemoveRole(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rep.StandaloneRoles {
		drop(r, KindDropRole, 1, "standalone role: no users and no permissions")
	}
	for _, r := range rep.RolesWithoutUsers {
		drop(r, KindDropRole, 2, "grants nothing: no users hold the role")
	}
	for _, r := range rep.RolesWithoutPermissions {
		drop(r, KindDropRole, 2, "grants nothing: the role has no permissions")
	}
	seen := make(map[rbac.RoleID]bool)
	var candidates []rbac.RoleID
	for _, r := range append(append([]rbac.RoleID(nil), rep.RolesWithSingleUser...), rep.RolesWithSinglePermission...) {
		if !seen[r] {
			seen[r] = true
			candidates = append(candidates, r)
		}
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a] < candidates[b] })
	for _, r := range candidates {
		ri, ok := cur.RoleIndex(r)
		if !ok {
			continue
		}
		covered := true
		cur.UserRow(ri).ForEach(func(ui int) bool {
			cur.PermRow(ri).ForEach(func(pi int) bool {
				pairCovered := false
				for oi := 0; oi < cur.NumRoles() && !pairCovered; oi++ {
					pairCovered = oi != ri && cur.UserRow(oi).Get(ui) && cur.PermRow(oi).Get(pi)
				}
				covered = pairCovered
				return covered
			})
			return covered
		})
		if covered {
			drop(r, KindDropRedundant, 3, "single-assignment role: every grant is covered by another role")
		}
	}
	return actions, cur
}

// singleHeavyDataset draws a small dataset dominated by single-user and
// single-permission roles over a tiny user and permission universe, so
// grants overlap heavily: redundant roles, mutually covering pairs,
// chains that cover each other in a cycle, and dead (class-1/2) roles.
// Roles are inserted in a shuffled order under random names, so role-ID
// order and index order disagree.
func singleHeavyDataset(r *rand.Rand) *rbac.Dataset {
	nu, np := 1+r.Intn(6), 1+r.Intn(6)
	d := rbac.NewDataset()
	for i := 0; i < nu; i++ {
		_ = d.AddUser(rbac.UserID(fmt.Sprintf("u%d", i)))
	}
	for i := 0; i < np; i++ {
		_ = d.AddPermission(rbac.PermissionID(fmt.Sprintf("p%d", i)))
	}
	type role struct{ users, perms []int }
	some := func(n, max int) []int {
		out := r.Perm(n)[:1+r.Intn(min(n, max))]
		return out
	}
	var roles []role
	for k := r.Intn(14); k >= 0; k-- {
		switch r.Intn(10) {
		case 0: // dead on one or both sides
			roles = append(roles, role{users: some(nu, 2)[:r.Intn(2)], perms: some(np, 2)[:r.Intn(2)]})
		case 1: // general role
			roles = append(roles, role{users: some(nu, 3), perms: some(np, 3)})
		case 2: // a cycle of single-user roles covering each other
			u, n := r.Intn(nu), 2+r.Intn(3)
			base := r.Intn(np)
			for i := 0; i < n; i++ {
				roles = append(roles, role{users: []int{u}, perms: []int{(base + i) % np, (base + i + 1) % np}})
			}
		case 3, 4, 5: // single user
			roles = append(roles, role{users: []int{r.Intn(nu)}, perms: some(np, 3)})
		default: // single permission
			roles = append(roles, role{users: some(nu, 3), perms: []int{r.Intn(np)}})
		}
	}
	for _, i := range r.Perm(len(roles)) {
		id := rbac.RoleID(fmt.Sprintf("r%03d", r.Intn(1000)))
		if d.AddRole(id) != nil {
			continue
		}
		for _, u := range roles[i].users {
			_ = d.AssignUser(id, d.User(u))
		}
		for _, p := range roles[i].perms {
			_ = d.AssignPermission(id, d.Permission(p))
		}
	}
	return d
}

// TestEliminateMatchesBruteForce sweeps seeded single-heavy datasets
// and requires the adjacency-based elimination phase to produce the
// reference's exact actions and dataset.
func TestEliminateMatchesBruteForce(t *testing.T) {
	const seeds = 2000
	redundant, blocked := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		d := singleHeavyDataset(rand.New(rand.NewSource(seed)))
		want, wantDS := referenceEliminate(t, d)

		p := &planner{ctx: context.Background(), cur: d.Clone()}
		if err := p.eliminate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(p.actions, want) {
			t.Fatalf("seed %d: actions differ\ngot  %+v\nwant %+v", seed, p.actions, want)
		}
		got, _ := json.Marshal(p.cur)
		exp, _ := json.Marshal(wantDS)
		if !bytes.Equal(got, exp) {
			t.Fatalf("seed %d: dataset after elimination differs\ngot  %s\nwant %s", seed, got, exp)
		}

		// Tally the positive cases: class-3 drops, and candidates that
		// were covered in the input but lost their cover to an earlier
		// drop (the sequential check at work).
		dropped := make(map[rbac.RoleID]bool)
		for _, a := range want {
			if a.Kind == KindDropRedundant {
				redundant++
			}
			dropped[a.Role] = true
		}
		rep, err := (&planner{ctx: context.Background(), cur: d}).analyze(true, true)
		if err != nil {
			t.Fatal(err)
		}
		cov := newCoverage(d, make([]bool, d.NumRoles()))
		for _, r := range append(rep.RolesWithSingleUser, rep.RolesWithSinglePermission...) {
			if ri, _ := d.RoleIndex(r); !dropped[r] && cov.coveredElsewhere(ri) {
				blocked++
			}
		}
	}
	if redundant < seeds/4 || blocked < seeds/20 {
		t.Fatalf("sweep too weak: %d class-3 drops, %d candidates kept by an earlier drop over %d seeds",
			redundant, blocked, seeds)
	}
	t.Logf("%d class-3 drops, %d candidates kept by an earlier drop over %d seeds", redundant, blocked, seeds)
}
