// Package consolidate turns detected class-4 role groups into concrete,
// provably safe merge plans — the paper's headline that consolidating
// roles sharing the same users or permissions can remove ~10% of all
// roles, "without granting extra permissions" (§II, §IV-B).
//
// Safety argument: if roles r₁…rₙ have identical user sets U, every
// u ∈ U already holds every rᵢ, so u's effective permissions are
// ⋃ perms(rᵢ). Replacing the group with one role (users U, permissions
// ⋃ perms(rᵢ)) leaves every user's effective permissions unchanged.
// Symmetrically for identical permission sets. Similar (class-5) groups
// are NOT safe to merge automatically — a merge would grant the union —
// so the planner only reports them for administrator review.
package consolidate

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/rbac"
)

// Side says which side of a group is identical.
type Side int

// Sides of the tripartite graph a group can share.
const (
	// SideUsers marks groups sharing the same user set.
	SideUsers Side = iota + 1
	// SidePermissions marks groups sharing the same permission set.
	SidePermissions
)

// String names the side.
func (s Side) String() string {
	switch s {
	case SideUsers:
		return "users"
	case SidePermissions:
		return "permissions"
	default:
		return fmt.Sprintf("consolidate.Side(%d)", int(s))
	}
}

// Merge collapses one role group into its first member.
type Merge struct {
	// Keep is the surviving role.
	Keep rbac.RoleID `json:"keep"`
	// Remove lists the roles to delete after folding their assignments
	// into Keep.
	Remove []rbac.RoleID `json:"remove"`
	// Side is the identical side; the other side is unioned into Keep.
	Side Side `json:"side"`
}

// Plan is an ordered set of merges. Each role appears in at most one
// merge, so the plan can be applied in any order.
type Plan struct {
	Merges []Merge `json:"merges"`
}

// RolesRemoved returns the number of roles the plan deletes.
func (p *Plan) RolesRemoved() int {
	n := 0
	for _, m := range p.Merges {
		n += len(m.Remove)
	}
	return n
}

// FromReport builds a plan from a detection report's class-4 groups.
// Same-user groups are planned first; a role already claimed by one
// merge is skipped by later groups (the paper notes the same role can
// be linked to multiple inefficiencies — it can still only be merged
// once per cleanup round; re-running the framework converges).
func FromReport(rep *core.Report) *Plan {
	plan := &Plan{}
	claimed := make(map[rbac.RoleID]struct{})
	addGroups := func(groups []core.RoleGroup, side Side) {
		for _, g := range groups {
			free := make([]rbac.RoleID, 0, len(g.Roles))
			for _, r := range g.Roles {
				if _, taken := claimed[r]; !taken {
					free = append(free, r)
				}
			}
			if len(free) < 2 {
				continue
			}
			for _, r := range free {
				claimed[r] = struct{}{}
			}
			plan.Merges = append(plan.Merges, Merge{
				Keep:   free[0],
				Remove: free[1:],
				Side:   side,
			})
		}
	}
	addGroups(rep.SameUserGroups, SideUsers)
	addGroups(rep.SamePermissionGroups, SidePermissions)
	return plan
}

// Apply executes the plan on a copy of the dataset and returns the
// consolidated copy. The input dataset is not modified.
func Apply(d *rbac.Dataset, plan *Plan) (*rbac.Dataset, error) {
	out := d.Clone()
	pending := out.DeferRoleRemovals()
	for mi, m := range plan.Merges {
		if len(m.Remove) == 0 {
			continue
		}
		for _, victim := range m.Remove {
			if err := checkMerge(pending, m.Keep, victim); err != nil {
				return nil, fmt.Errorf("merge %d: %w", mi, err)
			}
			switch m.Side {
			case SideUsers:
				// Fold the victim's permissions into the keeper.
				perms, err := out.RolePermissions(victim)
				if err != nil {
					return nil, fmt.Errorf("merge %d: %w", mi, err)
				}
				for _, p := range perms {
					if err := out.AssignPermission(m.Keep, p); err != nil {
						return nil, fmt.Errorf("merge %d: %w", mi, err)
					}
				}
			case SidePermissions:
				// Fold the victim's users into the keeper.
				users, err := out.RoleUsers(victim)
				if err != nil {
					return nil, fmt.Errorf("merge %d: %w", mi, err)
				}
				for _, u := range users {
					if err := out.AssignUser(m.Keep, u); err != nil {
						return nil, fmt.Errorf("merge %d: %w", mi, err)
					}
				}
			default:
				return nil, fmt.Errorf("merge %d: unknown side %d", mi, int(m.Side))
			}
			if err := pending.Remove(victim); err != nil {
				return nil, fmt.Errorf("merge %d: %w", mi, err)
			}
		}
	}
	if err := pending.Commit(); err != nil {
		return nil, err
	}
	return out, nil
}

// checkMerge rejects a fold whose victim or keeper is unknown or already
// merged away. Removals are deferred to one pass at the end, so this
// stands in for the lookup errors eager removal would have raised.
func checkMerge(pending *rbac.PendingRemovals, keep, victim rbac.RoleID) error {
	if err := pending.Check(victim); err != nil {
		return err
	}
	return pending.Check(keep)
}

// VerifySafety checks that consolidation preserved every user's
// effective permissions exactly: nothing granted, nothing revoked. It
// returns the first discrepancy found.
//
// The comparison runs in before's permission index space on a two-row
// bitmat arena allocated once and reused for every user: both effective
// rows are OR-ed together straight from the role permission sets (no
// per-user maps, no id round-trips), compared word-wise with RowEqual,
// then sparsely cleared for the next user. A full 2n-row pack was
// measured and rejected: at paper/10 scale it is an ~80 MB arena whose
// cells are touched about once each, so the page-fault and zeroing tax
// dwarfs the word-wise comparison it buys, while the two hot rows here
// stay L1-resident. The original map-of-maps implementation is kept as
// verifySafetyMaps — the benchmark baseline and differential oracle.
func VerifySafety(before, after *rbac.Dataset) error {
	n := before.NumUsers()
	if after.NumUsers() != n {
		return fmt.Errorf("consolidate: user count changed from %d to %d",
			n, after.NumUsers())
	}

	// Index remaps from before's id spaces into after's. Consolidation
	// clones the input, so the spaces almost always align and the remaps
	// stay nil; the general path covers independently built datasets.
	var userMap []int32
	for ui := 0; ui < n; ui++ {
		if before.User(ui) != after.User(ui) {
			userMap = make([]int32, n)
			break
		}
	}
	if userMap != nil {
		for ui := 0; ui < n; ui++ {
			aui, ok := after.UserIndex(before.User(ui))
			if !ok {
				return fmt.Errorf("consolidate: user %q disappeared", before.User(ui))
			}
			userMap[ui] = int32(aui)
		}
	}
	var permMap []int32
	if before.NumPermissions() != after.NumPermissions() {
		permMap = make([]int32, after.NumPermissions())
	} else {
		for pi := 0; pi < after.NumPermissions(); pi++ {
			if before.Permission(pi) != after.Permission(pi) {
				permMap = make([]int32, after.NumPermissions())
				break
			}
		}
	}
	if permMap != nil {
		for pi := range permMap {
			// -1 marks a permission before never defined — an over-grant
			// the moment any user effectively holds it.
			permMap[pi] = -1
			if bpi, ok := before.PermissionIndex(after.Permission(pi)); ok {
				permMap[pi] = int32(bpi)
			}
		}
	}

	// User→role lists, in role index order.
	bRoles := before.RUAMCSR().Transpose()
	aRoles := after.RUAMCSR().Transpose()

	arena := bitmat.New(2, before.NumPermissions())
	touched := make([]int32, 0, 64)
	for ui := 0; ui < n; ui++ {
		for _, ri := range bRoles.RowCols(ui) {
			before.ForEachRolePermission(ri, func(pi int) bool {
				arena.Set(0, pi)
				touched = append(touched, int32(pi))
				return true
			})
		}
		aui := ui
		if userMap != nil {
			aui = int(userMap[ui])
		}
		gained := -1
		for _, ri := range aRoles.RowCols(aui) {
			after.ForEachRolePermission(ri, func(pi int) bool {
				col := pi
				if permMap != nil {
					if col = int(permMap[pi]); col < 0 {
						gained = pi
						return false
					}
				}
				arena.Set(1, col)
				touched = append(touched, int32(col))
				return true
			})
			if gained >= 0 {
				return fmt.Errorf("consolidate: user %q gained permission %q",
					before.User(ui), after.Permission(gained))
			}
		}
		if !arena.RowEqual(0, 1) {
			return rowDiffError(before, arena, ui)
		}
		for _, c := range touched {
			arena.Clear(0, int(c))
			arena.Clear(1, int(c))
		}
		touched = touched[:0]
	}
	return nil
}

// rowDiffError names the first differing permission between user ui's
// before row (arena row 0) and after row (arena row 1), turning a
// failed RowEqual back into the precise lost/gained message the
// map-based checker produced.
func rowDiffError(before *rbac.Dataset, arena *bitmat.Matrix, ui int) error {
	uid := before.User(ui)
	bw := arena.RowWords(0)
	aw := arena.RowWords(1)
	for k := range bw {
		diff := bw[k] ^ aw[k]
		if diff == 0 {
			continue
		}
		j := k<<6 + bits.TrailingZeros64(diff)
		pid := before.Permission(j)
		if bw[k]&(1<<(uint(j)&63)) != 0 {
			return fmt.Errorf("consolidate: user %q lost permission %q", uid, pid)
		}
		return fmt.Errorf("consolidate: user %q gained permission %q", uid, pid)
	}
	return fmt.Errorf("consolidate: user %q effective permissions changed", uid)
}

// verifySafetyMaps is the original map-of-maps implementation of
// VerifySafety, retained as the benchmark baseline and the differential
// oracle for the arena version.
func verifySafetyMaps(before, after *rbac.Dataset) error {
	beforeEff := effectiveByID(before)
	afterEff := effectiveByID(after)
	if len(beforeEff) != len(afterEff) {
		return fmt.Errorf("consolidate: user count changed from %d to %d",
			len(beforeEff), len(afterEff))
	}
	for uid, b := range beforeEff {
		a, ok := afterEff[uid]
		if !ok {
			return fmt.Errorf("consolidate: user %q disappeared", uid)
		}
		for pid := range b {
			if _, ok := a[pid]; !ok {
				return fmt.Errorf("consolidate: user %q lost permission %q", uid, pid)
			}
		}
		for pid := range a {
			if _, ok := b[pid]; !ok {
				return fmt.Errorf("consolidate: user %q gained permission %q", uid, pid)
			}
		}
	}
	return nil
}

// effectiveByID maps each user id to its effective permission id set.
func effectiveByID(d *rbac.Dataset) map[rbac.UserID]map[rbac.PermissionID]struct{} {
	eff := d.EffectivePermissions()
	out := make(map[rbac.UserID]map[rbac.PermissionID]struct{}, len(eff))
	for ui, perms := range eff {
		set := make(map[rbac.PermissionID]struct{}, len(perms))
		for pi := range perms {
			set[d.Permission(pi)] = struct{}{}
		}
		out[d.User(ui)] = set
	}
	return out
}

// Consolidate is the one-call pipeline: analyse, plan, apply, verify.
// It returns the consolidated dataset and the applied plan.
func Consolidate(d *rbac.Dataset, opts core.Options) (*rbac.Dataset, *Plan, error) {
	return ConsolidateContext(context.Background(), d, opts)
}

// ConsolidateContext is Consolidate with cooperative cancellation. The
// detection phase — the expensive part — polls the context inside its
// hot loops; the plan/apply/verify phases check it at their
// boundaries. Once cancelled, the pipeline aborts with ctx.Err() and
// the input dataset is left untouched (Apply always works on a clone).
func ConsolidateContext(ctx context.Context, d *rbac.Dataset, opts core.Options) (*rbac.Dataset, *Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.SkipSimilar = true // plans use class-4 groups only
	rep, err := core.AnalyzeContext(ctx, d, opts)
	if err != nil {
		return nil, nil, err
	}
	plan := FromReport(rep)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	after, err := Apply(d, plan)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if err := VerifySafety(d, after); err != nil {
		return nil, nil, err
	}
	return after, plan, nil
}
