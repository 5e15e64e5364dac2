package rbac

import (
	"fmt"
	"slices"
)

// RemoveRole deletes a role and all its edges. Indices of later roles
// shift down by one, exactly like deleting a matrix row.
func (d *Dataset) RemoveRole(role RoleID) error { return d.RemoveRoles([]RoleID{role}) }

// RemoveRoles deletes several roles and all their edges in one pass:
// the surviving roles keep their relative order and the role index is
// rebuilt once, so removing k roles costs O(R) rather than O(k·R).
// Duplicate ids are removed once. An unknown id is ErrUnknownRole and
// removes nothing.
func (d *Dataset) RemoveRoles(ids []RoleID) error {
	if len(ids) == 0 {
		return nil
	}
	gone := make([]int, 0, len(ids))
	for _, id := range ids {
		ri, ok := d.roleIdx[id]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownRole, id)
		}
		gone = append(gone, ri)
	}
	slices.Sort(gone)
	gone = slices.Compact(gone)
	// Slide each run of survivors down over the removed rows before it.
	w := gone[0]
	for k, ri := range gone {
		delete(d.roleIdx, d.roles[ri])
		end := len(d.roles)
		if k+1 < len(gone) {
			end = gone[k+1]
		}
		copy(d.roles[w:], d.roles[ri+1:end])
		copy(d.roleUsers[w:], d.roleUsers[ri+1:end])
		copy(d.rolePerms[w:], d.rolePerms[ri+1:end])
		w += end - ri - 1
	}
	for i := gone[0]; i < w; i++ {
		d.roleIdx[d.roles[i]] = i
	}
	clear(d.roles[w:])
	clear(d.roleUsers[w:])
	clear(d.rolePerms[w:])
	d.roles = d.roles[:w]
	d.roleUsers = d.roleUsers[:w]
	d.rolePerms = d.rolePerms[:w]
	return nil
}

// RemoveUser deletes a user and every assignment referencing it.
// Indices of later users shift down by one, like deleting a RUAM
// column.
func (d *Dataset) RemoveUser(user UserID) error {
	ui, ok := d.userIdx[user]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownUser, user)
	}
	d.users = append(d.users[:ui], d.users[ui+1:]...)
	delete(d.userIdx, user)
	for i := ui; i < len(d.users); i++ {
		d.userIdx[d.users[i]] = i
	}
	for ri, set := range d.roleUsers {
		if _, had := set[ui]; had {
			delete(set, ui)
		}
		// Shift indices above the removed one.
		shifted := make(map[int]struct{}, len(set))
		for idx := range set {
			if idx > ui {
				shifted[idx-1] = struct{}{}
			} else {
				shifted[idx] = struct{}{}
			}
		}
		d.roleUsers[ri] = shifted
	}
	return nil
}

// RemovePermission deletes a permission and every assignment
// referencing it.
func (d *Dataset) RemovePermission(perm PermissionID) error {
	pi, ok := d.permIdx[perm]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPermission, perm)
	}
	d.perms = append(d.perms[:pi], d.perms[pi+1:]...)
	delete(d.permIdx, perm)
	for i := pi; i < len(d.perms); i++ {
		d.permIdx[d.perms[i]] = i
	}
	for ri, set := range d.rolePerms {
		if _, had := set[pi]; had {
			delete(set, pi)
		}
		shifted := make(map[int]struct{}, len(set))
		for idx := range set {
			if idx > pi {
				shifted[idx-1] = struct{}{}
			} else {
				shifted[idx] = struct{}{}
			}
		}
		d.rolePerms[ri] = shifted
	}
	return nil
}

// PendingRemovals defers role deletions so an edit sequence that drops
// many roles pays for one RemoveRoles pass instead of one re-index per
// role. A marked role stays in the dataset, readable, until Commit, but
// Check already reports it unknown: a sequence that touches a role
// after removing it fails as it would with eager RemoveRole calls.
type PendingRemovals struct {
	d    *Dataset
	ids  []RoleID
	gone map[RoleID]struct{}
}

// DeferRoleRemovals starts an empty batch of deferred role deletions.
func (d *Dataset) DeferRoleRemovals() *PendingRemovals {
	return &PendingRemovals{d: d, gone: make(map[RoleID]struct{})}
}

// Check returns ErrUnknownRole for a role that is not in the dataset or
// is already marked for removal.
func (p *PendingRemovals) Check(role RoleID) error {
	_, gone := p.gone[role]
	if _, ok := p.d.roleIdx[role]; !ok || gone {
		return fmt.Errorf("%w: %q", ErrUnknownRole, role)
	}
	return nil
}

// Remove marks a role for removal at the next Commit.
func (p *PendingRemovals) Remove(role RoleID) error {
	if err := p.Check(role); err != nil {
		return err
	}
	p.gone[role] = struct{}{}
	p.ids = append(p.ids, role)
	return nil
}

// Commit deletes every marked role in one pass and empties the batch.
func (p *PendingRemovals) Commit() error {
	err := p.d.RemoveRoles(p.ids)
	p.ids = p.ids[:0]
	clear(p.gone)
	return err
}
