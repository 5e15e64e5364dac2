package optimize

import (
	"fmt"

	"repro/internal/rbac"
)

// Apply replays a plan on a copy of the dataset and returns the result.
// Plans are self-contained (mine-roleset actions embed the full mined
// role definitions), so a plan decoded from JSON replays without
// re-running any analysis, and replaying the plan Run produced yields a
// dataset identical to Result.Optimized. The input is never modified.
func Apply(d *rbac.Dataset, p *Plan) (*rbac.Dataset, error) {
	out := d.Clone()
	// Dropped and merged-away roles are removed in one pass per run of
	// actions; a mined role set replaces every role, so the pending
	// removals are committed before it.
	pending := out.DeferRoleRemovals()
	for ai, a := range p.Actions {
		var err error
		switch a.Kind {
		case KindDropRole, KindDropRedundant:
			err = pending.Remove(a.Role)
		case KindMergeRoles:
			err = applyMerge(out, pending, a)
		case KindMineRoleset:
			if err = pending.Commit(); err == nil {
				err = applyMined(out, a.MinedRoles)
			}
		default:
			err = fmt.Errorf("unknown action kind %q", a.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("optimize: action %d (%s): %w", ai, a.Kind, err)
		}
	}
	if err := pending.Commit(); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	return out, nil
}

// applyMerge folds the removed roles into the keeper along the action's
// side — the same fold order the planner used, so replay is exact.
func applyMerge(d *rbac.Dataset, pending *rbac.PendingRemovals, a Action) error {
	if err := pending.Check(a.Keep); err != nil {
		return fmt.Errorf("keep role: %w", err)
	}
	foldUsers := a.Side == "permissions" || a.Side == "both"
	foldPerms := a.Side == "users" || a.Side == "both"
	if !foldUsers && !foldPerms {
		return fmt.Errorf("unknown merge side %q", a.Side)
	}
	for _, victim := range a.Remove {
		if err := pending.Check(victim); err != nil {
			return err
		}
		if err := pending.Check(a.Keep); err != nil {
			return err
		}
		if foldUsers {
			users, err := d.RoleUsers(victim)
			if err != nil {
				return err
			}
			for _, u := range users {
				if err := d.AssignUser(a.Keep, u); err != nil {
					return err
				}
			}
		}
		if foldPerms {
			perms, err := d.RolePermissions(victim)
			if err != nil {
				return err
			}
			for _, p := range perms {
				if err := d.AssignPermission(a.Keep, p); err != nil {
					return err
				}
			}
		}
		if err := pending.Remove(victim); err != nil {
			return err
		}
	}
	return nil
}

// applyMined replaces the entire role set with the embedded mined
// decomposition. Users and permissions are untouched.
func applyMined(d *rbac.Dataset, roles []MinedRole) error {
	if err := d.RemoveRoles(d.Roles()); err != nil {
		return err
	}
	for _, mr := range roles {
		if err := d.AddRole(mr.ID); err != nil {
			return err
		}
		for _, p := range mr.Permissions {
			if err := d.AssignPermission(mr.ID, p); err != nil {
				return err
			}
		}
		for _, u := range mr.Users {
			if err := d.AssignUser(mr.ID, u); err != nil {
				return err
			}
		}
	}
	return nil
}
