package relstore

import "testing"

// Row maps are shared by the write tables, the binlog and the read
// epochs, so no write may reach a map another holder sees: after updates
// and a rolled-back update, the insert's binlog entry still carries the
// inserted values and every read sees the committed ones.
func TestSharedRowsAreNeverWrittenInPlace(t *testing.T) {
	db := newTestDB(t)
	before := db.Seq()
	var id int64
	if err := db.WithTx(func(tx *Tx) error {
		var err error
		id, err = tx.Insert("device", map[string]any{"name": "pr1", "role": "pr"})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for _, role := range []string{"psw", "ssw"} {
		if err := db.WithTx(func(tx *Tx) error {
			return tx.Update("device", id, map[string]any{"role": role})
		}); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("device", id, map[string]any{"role": "tor"}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()

	entries := db.EntriesSince(before)
	if len(entries) != 3 || entries[0].Op != OpInsert {
		t.Fatalf("binlog = %+v", entries)
	}
	if got := entries[0].Values["role"]; got != "pr" {
		t.Errorf("insert entry role = %v, want pr: an update wrote into the shared row", got)
	}
	if got := entries[1].Values["role"]; got != "psw" {
		t.Errorf("first update entry role = %v, want psw", got)
	}
	row, err := db.Get("device", id)
	if err != nil || row.Values["role"] != "ssw" || row.Values["name"] != "pr1" {
		t.Fatalf("read = %+v, %v; want pr1/ssw", row, err)
	}
	r := NewReplica(db, "replica.test")
	if err := r.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if row, err := r.DB().Get("device", id); err != nil || row.Values["role"] != "ssw" {
		t.Fatalf("replica read = %+v, %v; want ssw", row, err)
	}
	if got := entries[0].Values["role"]; got != "pr" {
		t.Errorf("replica replay wrote into the shared insert entry: role = %v", got)
	}
}
