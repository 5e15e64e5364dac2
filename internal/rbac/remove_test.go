package rbac

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRemoveUser(t *testing.T) {
	d := figure1Dataset(t)
	if err := d.RemoveUser("U02"); err != nil {
		t.Fatal(err)
	}
	if d.NumUsers() != 3 {
		t.Fatalf("NumUsers = %d", d.NumUsers())
	}
	if _, ok := d.UserIndex("U02"); ok {
		t.Fatal("removed user still indexed")
	}
	// Later users shifted; U04 now index 2 and R05 still points at it.
	i, ok := d.UserIndex("U04")
	if !ok || i != 2 {
		t.Fatalf("UserIndex(U04) = (%d, %v)", i, ok)
	}
	if !d.HasAssignment("R05", "U04") {
		t.Fatal("R05-U04 edge lost after unrelated removal")
	}
	// R02 and R04 had U01+U02; they must now hold only U01.
	us, err := d.RoleUsers("R02")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(us, []UserID{"U01"}) {
		t.Fatalf("R02 users = %v", us)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveUser("ghost"); !errors.Is(err, ErrUnknownUser) {
		t.Fatalf("remove ghost user err = %v", err)
	}
}

func TestRemovePermission(t *testing.T) {
	d := figure1Dataset(t)
	if err := d.RemovePermission("P05"); err != nil {
		t.Fatal(err)
	}
	if d.NumPermissions() != 5 {
		t.Fatalf("NumPermissions = %d", d.NumPermissions())
	}
	ps, err := d.RolePermissions("R04")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, []PermissionID{"P06"}) {
		t.Fatalf("R04 perms = %v", ps)
	}
	if !d.HasPermission("R05", "P06") {
		t.Fatal("P06 edge lost after P05 removal")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.RemovePermission("ghost"); !errors.Is(err, ErrUnknownPermission) {
		t.Fatalf("remove ghost perm err = %v", err)
	}
}

func TestPropertyRemovePreservesOtherEdges(t *testing.T) {
	// Removing one user never changes any other user's membership in
	// any role, and the dataset always validates.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		nu, nr := 2+r.Intn(6), 2+r.Intn(6)
		for i := 0; i < nu; i++ {
			_ = d.AddUser(UserID(rune('a' + i)))
		}
		for i := 0; i < nr; i++ {
			_ = d.AddRole(RoleID(rune('A' + i)))
		}
		for i := 0; i < nr; i++ {
			for j := 0; j < nu; j++ {
				if r.Intn(2) == 0 {
					_ = d.AssignUser(RoleID(rune('A'+i)), UserID(rune('a'+j)))
				}
			}
		}
		victim := UserID(rune('a' + r.Intn(nu)))
		type membership struct {
			role RoleID
			user UserID
		}
		var before []membership
		for i := 0; i < nr; i++ {
			role := RoleID(rune('A' + i))
			us, _ := d.RoleUsers(role)
			for _, u := range us {
				if u != victim {
					before = append(before, membership{role, u})
				}
			}
		}
		if err := d.RemoveUser(victim); err != nil {
			return false
		}
		if err := d.Validate(); err != nil {
			return false
		}
		for _, m := range before {
			if !d.HasAssignment(m.role, m.user) {
				return false
			}
		}
		// And the victim is fully gone.
		for i := 0; i < nr; i++ {
			us, _ := d.RoleUsers(RoleID(rune('A' + i)))
			for _, u := range us {
				if u == victim {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveRoles(t *testing.T) {
	d := figure1Dataset(t)
	r05Users, _ := d.RoleUsers("R05")
	r05Perms, _ := d.RolePermissions("R05")
	// Out of order and with a duplicate.
	if err := d.RemoveRoles([]RoleID{"R04", "R02", "R04"}); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Roles(), []RoleID{"R01", "R03", "R05"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Roles after removal = %v, want %v", got, want)
	}
	for i, id := range d.Roles() {
		if ri, ok := d.RoleIndex(id); !ok || ri != i {
			t.Fatalf("RoleIndex(%s) = (%d, %v), want (%d, true)", id, ri, ok, i)
		}
	}
	for _, id := range []RoleID{"R02", "R04"} {
		if _, ok := d.RoleIndex(id); ok {
			t.Fatalf("removed role %s still indexed", id)
		}
	}
	us, _ := d.RoleUsers("R05")
	ps, _ := d.RolePermissions("R05")
	if !reflect.DeepEqual(us, r05Users) || !reflect.DeepEqual(ps, r05Perms) {
		t.Fatalf("R05 edges after removal = %v / %v, want %v / %v", us, ps, r05Users, r05Perms)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveRoles(nil); err != nil || d.NumRoles() != 3 {
		t.Fatalf("empty removal: err %v, %d roles", err, d.NumRoles())
	}
}

func TestRemoveRolesUnknownChangesNothing(t *testing.T) {
	d := figure1Dataset(t)
	before, _ := d.MarshalJSON()
	if err := d.RemoveRoles([]RoleID{"R01", "ghost", "R03"}); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("remove with ghost err = %v", err)
	}
	after, _ := d.MarshalJSON()
	if !bytes.Equal(before, after) {
		t.Fatalf("failed removal changed the dataset:\n%s\nvs\n%s", after, before)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRemoveRolesMatchesRebuild checks RemoveRoles against a
// dataset rebuilt from scratch with only the surviving roles, in their
// original order.
func TestPropertyRemoveRolesMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := NewDataset()
		for i := 0; i < 4; i++ {
			_ = d.AddUser(UserID(rune('a' + i)))
		}
		nr := 1 + r.Intn(12)
		for i := 0; i < nr; i++ {
			id := RoleID(rune('A' + i))
			_ = d.AddRole(id)
			_ = d.AssignUser(id, UserID(rune('a'+r.Intn(4))))
		}
		var ids []RoleID
		removed := make(map[RoleID]bool)
		for k := r.Intn(nr + 3); k > 0; k-- {
			id := RoleID(rune('A' + r.Intn(nr)))
			ids = append(ids, id)
			removed[id] = true
		}
		want := NewDataset()
		for _, u := range d.Users() {
			_ = want.AddUser(u)
		}
		for _, id := range d.Roles() {
			if removed[id] {
				continue
			}
			_ = want.AddRole(id)
			us, _ := d.RoleUsers(id)
			for _, u := range us {
				_ = want.AssignUser(id, u)
			}
		}
		if d.RemoveRoles(ids) != nil || d.Validate() != nil {
			return false
		}
		a, _ := d.MarshalJSON()
		b, _ := want.MarshalJSON()
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingRemovals(t *testing.T) {
	d := figure1Dataset(t)
	batch := d.DeferRoleRemovals()
	if err := batch.Remove("R02"); err != nil {
		t.Fatal(err)
	}
	if err := batch.Check("R02"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("Check of a marked role err = %v", err)
	}
	if err := batch.Remove("R02"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("second Remove of a marked role err = %v", err)
	}
	if err := batch.Remove("ghost"); !errors.Is(err, ErrUnknownRole) {
		t.Fatalf("Remove ghost err = %v", err)
	}
	if _, err := d.RoleUsers("R02"); err != nil || d.NumRoles() != 5 {
		t.Fatalf("marked role must stay readable until Commit: err %v, %d roles", err, d.NumRoles())
	}
	if err := batch.Remove("R05"); err != nil {
		t.Fatal(err)
	}
	if err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Roles(), []RoleID{"R01", "R03", "R04"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Roles after Commit = %v, want %v", got, want)
	}
	if err := batch.Check("R03"); err != nil {
		t.Fatalf("batch not emptied by Commit: %v", err)
	}
	if err := batch.Commit(); err != nil || d.NumRoles() != 3 {
		t.Fatalf("empty Commit: err %v, %d roles", err, d.NumRoles())
	}
}
