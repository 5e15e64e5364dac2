package rbac

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"unicode/utf8"
)

// datasetJSON is the serialised form of a Dataset. Assignments are
// stored as explicit edge lists so the format round-trips exactly and
// stays diff-friendly.
type datasetJSON struct {
	Users           []UserID       `json:"users"`
	Roles           []RoleID       `json:"roles"`
	Permissions     []PermissionID `json:"permissions"`
	UserAssignments []userEdgeJSON `json:"userAssignments"`
	PermAssignments []permEdgeJSON `json:"permissionAssignments"`
}

type userEdgeJSON struct {
	Role RoleID `json:"role"`
	User UserID `json:"user"`
}

type permEdgeJSON struct {
	Role       RoleID       `json:"role"`
	Permission PermissionID `json:"permission"`
}

// MarshalJSON implements json.Marshaler with deterministic edge order:
// entities in index order, each role's edges sorted by index. It is the
// canonical encoding the dataset registry hashes, so it is written in
// one pass into a buffer sized up front rather than through a
// datasetJSON copy and reflection. The bytes are exactly encoding/json's
// rendering of the datasetJSON form, and already compact, so
// json.Marshal(d) returns them unchanged.
func (d *Dataset) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, d.jsonSize())
	buf = append(buf, `{"users":`...)
	buf = appendJSONStrings(buf, d.users)
	buf = append(buf, `,"roles":`...)
	buf = appendJSONStrings(buf, d.roles)
	buf = append(buf, `,"permissions":`...)
	buf = appendJSONStrings(buf, d.perms)
	buf = append(buf, `,"userAssignments":[`...)
	buf = d.appendEdges(buf, d.roleUsers, `,"user":`, func(i int) string { return string(d.users[i]) })
	buf = append(buf, `],"permissionAssignments":[`...)
	buf = d.appendEdges(buf, d.rolePerms, `,"permission":`, func(i int) string { return string(d.perms[i]) })
	return append(buf, "]}"...), nil
}

// jsonSize is the length of the encoding when no id needs escaping.
func (d *Dataset) jsonSize() int {
	n := len(`{"users":[],"roles":[],"permissions":[],"userAssignments":[],"permissionAssignments":[]}`)
	for _, u := range d.users {
		n += len(u) + 3
	}
	for _, p := range d.perms {
		n += len(p) + 3
	}
	for ri, r := range d.roles {
		n += len(r) + 3
		n += len(d.roleUsers[ri]) * (len(r) + len(`{"role":"","user":""},`))
		for ui := range d.roleUsers[ri] {
			n += len(d.users[ui])
		}
		n += len(d.rolePerms[ri]) * (len(r) + len(`{"role":"","permission":""},`))
		for pi := range d.rolePerms[ri] {
			n += len(d.perms[pi])
		}
	}
	return n
}

// appendEdges appends one side's edge objects, roles in index order and
// each role's targets in ascending index order.
func (d *Dataset) appendEdges(buf []byte, sets []map[int]struct{}, key string, name func(int) string) []byte {
	var idx []int
	first := true
	for ri, set := range sets {
		idx = idx[:0]
		for i := range set {
			idx = append(idx, i)
		}
		sort.Ints(idx)
		for _, i := range idx {
			if !first {
				buf = append(buf, ',')
			}
			first = false
			buf = append(buf, `{"role":`...)
			buf = appendJSONString(buf, string(d.roles[ri]))
			buf = append(buf, key...)
			buf = appendJSONString(buf, name(i))
			buf = append(buf, '}')
		}
	}
	return buf
}

// appendJSONStrings appends ids as a JSON array of strings.
func appendJSONStrings[S ~string](buf []byte, ids []S) []byte {
	buf = append(buf, '[')
	for i, id := range ids {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONString(buf, string(id))
	}
	return append(buf, ']')
}

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json renders it (HTML-safe escaping). Printable ASCII other
// than the quote, the backslash and the HTML characters <, > and &
// needs no escaping, which covers ids in practice; any other string is
// rendered by encoding/json itself.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dataset) UnmarshalJSON(data []byte) error {
	var in datasetJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("rbac: decode dataset: %w", err)
	}
	fresh := NewDataset()
	for _, u := range in.Users {
		if err := fresh.AddUser(u); err != nil {
			return err
		}
	}
	for _, r := range in.Roles {
		if err := fresh.AddRole(r); err != nil {
			return err
		}
	}
	for _, p := range in.Permissions {
		if err := fresh.AddPermission(p); err != nil {
			return err
		}
	}
	for _, e := range in.UserAssignments {
		if err := fresh.AssignUser(e.Role, e.User); err != nil {
			return err
		}
	}
	for _, e := range in.PermAssignments {
		if err := fresh.AssignPermission(e.Role, e.Permission); err != nil {
			return err
		}
	}
	*d = *fresh
	return nil
}

// WriteJSON serialises the dataset to w.
func (d *Dataset) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("rbac: write dataset: %w", err)
	}
	return nil
}

// ReadJSON parses a dataset from r.
func ReadJSON(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("rbac: read dataset: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// CSV edge-list formats. Each file is a headered two-column CSV:
//
//	role,user        (user assignments)
//	role,permission  (permission assignments)
//
// Entities appearing only in one file (e.g. standalone users exported as
// a bare node list) can be added via the node CSVs, a single "id" column.

// WriteUserAssignmentsCSV writes the role,user edge list.
func (d *Dataset) WriteUserAssignmentsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"role", "user"}); err != nil {
		return fmt.Errorf("rbac: write csv header: %w", err)
	}
	for ri, set := range d.roleUsers {
		uis := make([]int, 0, len(set))
		for ui := range set {
			uis = append(uis, ui)
		}
		sort.Ints(uis)
		for _, ui := range uis {
			if err := cw.Write([]string{string(d.roles[ri]), string(d.users[ui])}); err != nil {
				return fmt.Errorf("rbac: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePermissionAssignmentsCSV writes the role,permission edge list.
func (d *Dataset) WritePermissionAssignmentsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"role", "permission"}); err != nil {
		return fmt.Errorf("rbac: write csv header: %w", err)
	}
	for ri, set := range d.rolePerms {
		pis := make([]int, 0, len(set))
		for pi := range set {
			pis = append(pis, pi)
		}
		sort.Ints(pis)
		for _, pi := range pis {
			if err := cw.Write([]string{string(d.roles[ri]), string(d.perms[pi])}); err != nil {
				return fmt.Errorf("rbac: write csv row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadAssignmentsCSV loads user and permission edge lists into a new
// dataset, creating entities on first mention. Either reader may be nil
// to skip that edge type — e.g. analysing only role–permission data.
func ReadAssignmentsCSV(userEdges, permEdges io.Reader) (*Dataset, error) {
	d := NewDataset()
	if userEdges != nil {
		if err := readEdgeCSV(userEdges, "user", func(role, other string) {
			d.EnsureRole(RoleID(role))
			d.EnsureUser(UserID(other))
			_ = d.AssignUser(RoleID(role), UserID(other))
		}); err != nil {
			return nil, err
		}
	}
	if permEdges != nil {
		if err := readEdgeCSV(permEdges, "permission", func(role, other string) {
			d.EnsureRole(RoleID(role))
			d.EnsurePermission(PermissionID(other))
			_ = d.AssignPermission(RoleID(role), PermissionID(other))
		}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// readEdgeCSV parses a two-column headered CSV and feeds each edge to
// add. The header's second column must match wantKind.
func readEdgeCSV(r io.Reader, wantKind string, add func(role, other string)) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("rbac: read csv header: %w", err)
	}
	if header[0] != "role" || header[1] != wantKind {
		return fmt.Errorf("rbac: csv header %v, want [role %s]", header, wantKind)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("rbac: read csv row: %w", err)
		}
		add(rec[0], rec[1])
	}
}
