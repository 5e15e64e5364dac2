package rbac

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestJSONRoundTrip(t *testing.T) {
	d := figure1Dataset(t)
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != d.Stats() {
		t.Fatalf("stats after round trip: %+v vs %+v", back.Stats(), d.Stats())
	}
	if !back.RUAM().Equal(d.RUAM()) {
		t.Fatal("RUAM changed through JSON round trip")
	}
	if !back.RPAM().Equal(d.RPAM()) {
		t.Fatal("RPAM changed through JSON round trip")
	}
	// Index orders preserved.
	if back.Role(2) != "R03" || back.User(3) != "U04" || back.Permission(0) != "P01" {
		t.Fatal("entity order not preserved")
	}
}

func TestJSONDeterministic(t *testing.T) {
	d := figure1Dataset(t)
	var a, b bytes.Buffer
	if err := d.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("JSON output not deterministic")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	// Edge referencing a missing role.
	bad := `{"users":["u"],"roles":[],"permissions":[],
	  "userAssignments":[{"role":"ghost","user":"u"}],"permissionAssignments":[]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("dangling edge accepted")
	}
	// Duplicate user entries.
	dup := `{"users":["u","u"],"roles":[],"permissions":[],
	  "userAssignments":[],"permissionAssignments":[]}`
	if _, err := ReadJSON(strings.NewReader(dup)); err == nil {
		t.Fatal("duplicate user accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := figure1Dataset(t)
	var userBuf, permBuf bytes.Buffer
	if err := d.WriteUserAssignmentsCSV(&userBuf); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePermissionAssignmentsCSV(&permBuf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAssignmentsCSV(&userBuf, &permBuf)
	if err != nil {
		t.Fatal(err)
	}
	// CSV carries only edges, so entities without any edge (standalone
	// user-less roles appear via perm edges, but P01 and fully
	// disconnected nodes are lost). Compare edge structure per shared
	// entity instead of full stats.
	if back.NumUserAssignments() != d.NumUserAssignments() {
		t.Fatalf("user edges = %d, want %d", back.NumUserAssignments(), d.NumUserAssignments())
	}
	if back.NumPermissionAssignments() != d.NumPermissionAssignments() {
		t.Fatalf("perm edges = %d, want %d", back.NumPermissionAssignments(), d.NumPermissionAssignments())
	}
	for _, role := range back.Roles() {
		wantUsers, err := d.RoleUsers(role)
		if err != nil {
			t.Fatal(err)
		}
		gotUsers, err := back.RoleUsers(role)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantUsers) != len(gotUsers) {
			t.Fatalf("role %s users %v vs %v", role, gotUsers, wantUsers)
		}
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	bad := strings.NewReader("user,role\na,b\n")
	if _, err := ReadAssignmentsCSV(bad, nil); err == nil {
		t.Fatal("wrong header accepted")
	}
	empty := strings.NewReader("")
	if _, err := ReadAssignmentsCSV(empty, nil); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestCSVFieldCountValidation(t *testing.T) {
	bad := strings.NewReader("role,user\na,b,c\n")
	if _, err := ReadAssignmentsCSV(bad, nil); err == nil {
		t.Fatal("3-field row accepted")
	}
}

func TestReadAssignmentsCSVNilReaders(t *testing.T) {
	d, err := ReadAssignmentsCSV(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRoles() != 0 {
		t.Fatal("nil readers produced entities")
	}
	users := strings.NewReader("role,user\nr1,u1\nr1,u2\n")
	d, err = ReadAssignmentsCSV(users, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRoles() != 1 || d.NumUsers() != 2 || d.NumUserAssignments() != 2 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

// referenceJSON is the encoding MarshalJSON must reproduce: the
// datasetJSON form rendered by encoding/json, edges per role in index
// order.
func referenceJSON(t *testing.T, d *Dataset) []byte {
	t.Helper()
	out := datasetJSON{
		Users: d.Users(), Roles: d.Roles(), Permissions: d.Permissions(),
		UserAssignments: []userEdgeJSON{}, PermAssignments: []permEdgeJSON{},
	}
	for ri, r := range d.roles {
		for _, ui := range sortedKeys(d.roleUsers[ri]) {
			out.UserAssignments = append(out.UserAssignments, userEdgeJSON{Role: r, User: d.users[ui]})
		}
		for _, pi := range sortedKeys(d.rolePerms[ri]) {
			out.PermAssignments = append(out.PermAssignments, permEdgeJSON{Role: r, Permission: d.perms[pi]})
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sortedKeys(set map[int]struct{}) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// TestMarshalJSONMatchesEncodingJSON checks the one-pass encoder
// against encoding/json over ids that need every kind of escaping:
// quotes, backslashes, HTML characters, control bytes, non-ASCII,
// U+2028/U+2029 and invalid UTF-8, plus arbitrary random bytes.
func TestMarshalJSONMatchesEncodingJSON(t *testing.T) {
	alphabet := []string{"plain", "", "with space", `qu"ote`, `back\slash`, "<tag>", "a&b",
		"tab\tnl\n", "\x00\x1f\x7f", "héllo", "  ", "\xff\xfe", "emoji😀", "ctl\b\f\r", "~!@#$%^*()"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		id := func(k int) string {
			if r.Intn(4) == 0 {
				b := make([]byte, r.Intn(6))
				r.Read(b)
				return fmt.Sprintf("%s#%d", b, k)
			}
			return fmt.Sprintf("%s#%d", alphabet[r.Intn(len(alphabet))], k)
		}
		d := NewDataset()
		nu, nr, np := r.Intn(6), r.Intn(6), r.Intn(6)
		for k := 0; k < nu; k++ {
			d.EnsureUser(UserID(id(k)))
		}
		for k := 0; k < nr; k++ {
			d.EnsureRole(RoleID(id(k)))
		}
		for k := 0; k < np; k++ {
			d.EnsurePermission(PermissionID(id(k)))
		}
		for k := 0; nr > 0 && k < 12; k++ {
			role := d.Role(r.Intn(nr))
			if nu > 0 {
				_ = d.AssignUser(role, d.User(r.Intn(nu)))
			}
			if np > 0 {
				_ = d.AssignPermission(role, d.Permission(r.Intn(np)))
			}
		}
		want := referenceJSON(t, d)
		got, err := d.MarshalJSON()
		if err != nil || !bytes.Equal(got, want) {
			t.Logf("seed %d: MarshalJSON\n%q\nwant\n%q", seed, got, want)
			return false
		}
		viaEncoder, err := json.Marshal(d)
		return err == nil && bytes.Equal(viaEncoder, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
