package core

import (
	"testing"

	"repro/internal/privacy"
	"repro/internal/raid"
)

// TestPlacementUnchanged pins what the placement policy decides, for a
// fixed seed, so that making it cheaper cannot make it different: the
// committed shard count on every provider and the bytes the fleet stores
// per user byte, over an all-up fleet and over one with a provider in an
// outage. The fleet's cost levels are 0,1,2,3,0,1, so cost ranking, the
// load tiebreak and mirror exclusion all decide something. The expected
// values were recorded from the code before PR 18 touched placement.
func TestPlacementUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name        string
		down        int // fleet index in an outage, -1 for none
		perProvider []int
		stored      int64
	}{
		{"all up", -1, []int{38, 28, 24, 15, 37, 28}, 3160064},
		{"one down", 1, []int{44, 0, 29, 28, 43, 38}, 3282944},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := testFleet(t, 6)
			d, err := New(Config{Fleet: fleet, MisleadSeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RegisterClient("alice"); err != nil {
				t.Fatal(err)
			}
			if err := d.AddPassword("alice", "root", privacy.High); err != nil {
				t.Fatal(err)
			}
			if tc.down >= 0 {
				fleet.All()[tc.down].SetOutage(true)
			}
			user := int64(0)
			for i, up := range []struct {
				size int
				pl   privacy.Level
				opts UploadOptions
			}{
				{512 << 10, privacy.High, UploadOptions{Assurance: raid.RAID6, MisleadFraction: 0.25}},
				{256 << 10, privacy.Moderate, UploadOptions{Replicas: 2}},
				{1 << 20, privacy.Public, UploadOptions{}},
				{4 << 10, privacy.Moderate, UploadOptions{}},
			} {
				if _, err := d.Upload("alice", "root", string(rune('a'+i)), payload(up.size, int64(i)), up.pl, up.opts); err != nil {
					t.Fatalf("upload %d: %v", i, err)
				}
				user += int64(up.size)
			}
			if err := d.UpdateChunk("alice", "root", "b", 2, payload(16<<10, 99), UploadOptions{}); err != nil {
				t.Fatalf("update: %v", err)
			}
			if err := d.RemoveChunk("alice", "root", "a", 9); err != nil {
				t.Fatalf("remove: %v", err)
			}

			stored := int64(0)
			for _, p := range fleet.All() {
				stored += p.Usage().BytesStored
			}
			if got := d.Stats().PerProvider; !equalInts(got, tc.perProvider) {
				t.Errorf("shards per provider = %v, want %v", got, tc.perProvider)
			}
			if stored != tc.stored {
				t.Errorf("providers store %d bytes for %d user bytes (%.4f B/B), want %d", stored, user, float64(stored)/float64(user), tc.stored)
			}
		})
	}
}
