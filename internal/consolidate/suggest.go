package consolidate

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rbac"
)

// The paper stops at *detecting* class-5 (similar roles) and class-3
// (single-assignment roles) inefficiencies: "the approach for
// consolidating roles related to [these] inefficienc[ies] still needs
// to be developed", and fixes "must not be [applied] automatically".
// SuggestSimilar develops that approach as a review workflow: for every
// similar-role group it computes the exact grant delta a merge would
// cause — the (user, permission) pairs that would newly come into
// existence — so an administrator can approve or reject each merge with
// full knowledge of its blast radius. Zero-delta suggestions are safe
// in the class-4 sense and sorted first.

// Grant is one user–permission pair that a merge would newly create.
type Grant struct {
	User       rbac.UserID       `json:"user"`
	Permission rbac.PermissionID `json:"permission"`
}

// Suggestion is a reviewable merge proposal for one similar-role group.
type Suggestion struct {
	// Side says whether the group shares similar users or permissions.
	Side Side `json:"side"`
	// Roles lists the group members; the merge would collapse them into
	// the first.
	Roles []rbac.RoleID `json:"roles"`
	// AddedGrants are the effective permissions that would newly exist
	// if the merge were applied (union of users × union of permissions,
	// minus what users already hold through any role). Empty means the
	// merge is provably safe.
	AddedGrants []Grant `json:"addedGrants"`
}

// RiskFree reports whether applying the suggestion adds no grants.
func (s Suggestion) RiskFree() bool { return len(s.AddedGrants) == 0 }

// SuggestSimilar converts a report's class-5 groups into reviewable
// merge suggestions, sorted by ascending grant delta (risk-free merges
// first), ties broken by the first role id. The dataset must be the one
// the report was computed from.
func SuggestSimilar(d *rbac.Dataset, rep *core.Report) ([]Suggestion, error) {
	eff := d.EffectivePermissions()

	var out []Suggestion
	build := func(groups []core.RoleGroup, side Side) error {
		for _, g := range groups {
			s, err := suggestionFor(d, eff, g.Roles, side)
			if err != nil {
				return err
			}
			out = append(out, s)
		}
		return nil
	}
	if err := build(rep.SimilarUserGroups, SideUsers); err != nil {
		return nil, err
	}
	if err := build(rep.SimilarPermissionGroups, SidePermissions); err != nil {
		return nil, err
	}

	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].AddedGrants) != len(out[j].AddedGrants) {
			return len(out[i].AddedGrants) < len(out[j].AddedGrants)
		}
		if len(out[i].Roles) > 0 && len(out[j].Roles) > 0 {
			return out[i].Roles[0] < out[j].Roles[0]
		}
		return false
	})
	return out, nil
}

// suggestionFor computes the grant delta of merging one group.
func suggestionFor(d *rbac.Dataset, eff []map[int]struct{},
	roles []rbac.RoleID, side Side) (Suggestion, error) {
	userUnion := make(map[int]struct{})
	permUnion := make(map[int]struct{})
	for _, r := range roles {
		ri, ok := d.RoleIndex(r)
		if !ok {
			return Suggestion{}, fmt.Errorf("consolidate: role %q not in dataset", r)
		}
		d.ForEachRoleUser(ri, func(u int) bool {
			userUnion[u] = struct{}{}
			return true
		})
		d.ForEachRolePermission(ri, func(p int) bool {
			permUnion[p] = struct{}{}
			return true
		})
	}

	users := make([]int, 0, len(userUnion))
	for u := range userUnion {
		users = append(users, u)
	}
	sort.Ints(users)
	perms := make([]int, 0, len(permUnion))
	for p := range permUnion {
		perms = append(perms, p)
	}
	sort.Ints(perms)

	var added []Grant
	for _, u := range users {
		for _, p := range perms {
			if _, held := eff[u][p]; !held {
				added = append(added, Grant{User: d.User(u), Permission: d.Permission(p)})
			}
		}
	}
	return Suggestion{Side: side, Roles: roles, AddedGrants: added}, nil
}

// ApplySuggestion merges a suggestion's roles into the first, unioning
// both sides, on a copy of the dataset. The caller is expected to have
// reviewed AddedGrants; the new grants are exactly those pairs.
func ApplySuggestion(d *rbac.Dataset, s Suggestion) (*rbac.Dataset, error) {
	if len(s.Roles) < 2 {
		return nil, fmt.Errorf("consolidate: suggestion needs >= 2 roles, has %d", len(s.Roles))
	}
	out := d.Clone()
	keep := s.Roles[0]
	pending := out.DeferRoleRemovals()
	for _, victim := range s.Roles[1:] {
		if err := checkMerge(pending, keep, victim); err != nil {
			return nil, err
		}
		users, err := out.RoleUsers(victim)
		if err != nil {
			return nil, err
		}
		for _, u := range users {
			if err := out.AssignUser(keep, u); err != nil {
				return nil, err
			}
		}
		perms, err := out.RolePermissions(victim)
		if err != nil {
			return nil, err
		}
		for _, p := range perms {
			if err := out.AssignPermission(keep, p); err != nil {
				return nil, err
			}
		}
		if err := pending.Remove(victim); err != nil {
			return nil, err
		}
	}
	if err := pending.Commit(); err != nil {
		return nil, err
	}
	return out, nil
}

// GrantDelta computes the exact effective-permission additions going
// from before to after (pairs in after but not before). Deletions are
// not reported; use VerifySafety when none are allowed.
func GrantDelta(before, after *rbac.Dataset) []Grant {
	b := effectiveByID(before)
	a := effectiveByID(after)
	var out []Grant
	for uid, perms := range a {
		for pid := range perms {
			if _, held := b[uid][pid]; !held {
				out = append(out, Grant{User: uid, Permission: pid})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Permission < out[j].Permission
	})
	return out
}
