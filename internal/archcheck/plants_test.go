package archcheck

import (
	"go/ast"
	"go/parser"
	"path/filepath"
	"testing"
)

// A plant is a violation of one rule, written as one more file of the
// package the rule guards. Plants live in memory only: nothing is
// written to the tree.
type plant struct {
	rule, file, src string
}

// plants holds, for each rule, the violations it exists to stop (a
// second handler or caller, a write or a build in the wrong file, a
// declaration that must stay gone, an exported method the product does
// not declare) and the forms that compile without spelling a call or a
// receiver: a method value, an alias of a table, a bound Delete, a call
// through a named or an asserted anonymous interface, a method on the
// value receiver declared through an alias of the type.
var plants = []plant{
	{"routes", "second_upload.go", `package transport
import ("net/http"; "repro/internal/core")
func (s *DistributorServer) upload2(_ http.ResponseWriter, r *http.Request) (any, error) {
	return s.d.UploadStream("c", "pw", "f", r.Body, 0, core.UploadOptions{})
}`},
	{"routes", "buffered_upload.go", `package transport
import ("net/http"; "repro/internal/core")
func (s *DistributorServer) uploadBuffered(_ http.ResponseWriter, r *http.Request) (any, error) {
	return s.d.Upload("c", "pw", "f", nil, 0, core.UploadOptions{})
}`},
	{"routes", "asserted_upload.go", `package transport
import ("io"; "net/http"; "repro/internal/core"; "repro/internal/privacy")
func (s *DistributorServer) upload3(_ http.ResponseWriter, r *http.Request) (any, error) {
	return any(s.d).(interface {
		UploadStream(client, password, filename string, r io.Reader, pl privacy.Level, opts core.UploadOptions) (core.FileInfo, error)
	}).UploadStream("c", "pw", "f", r.Body, 0, core.UploadOptions{})
}`},
	{"routes", "asserted_buffered_upload.go", `package transport
import ("repro/internal/core"; "repro/internal/privacy")
type bufferedUploader interface {
	Upload(client, password, filename string, data []byte, pl privacy.Level, opts core.UploadOptions) (core.FileInfo, error)
}
func (s *DistributorServer) uploadVia(u bufferedUploader) (any, error) {
	return u.Upload("c", "pw", "f", nil, 0, core.UploadOptions{})
}`},
	{"routes", "second_route.go", `package transport
const statusPath = "/v1/status"`},
	{"tables", "second_log_append.go", `package core
func (d *Distributor) commitFast(rec *walRecord) error { return d.logAppendLocked(rec) }`},
	{"tables", "asserted_log_append.go", `package core
func (d *Distributor) commitVia(rec *walRecord) error {
	return any(d).(interface{ logAppendLocked(*walRecord) error }).logAppendLocked(rec)
}`},
	{"tables", "count_write.go", `package core
func (d *Distributor) bump(i int) { d.provCount[i]++ }`},
	{"tables", "row_write.go", `package core
func (d *Distributor) dropFile(client, filename string) { delete(d.clients[client].Files, filename) }`},
	{"tables", "scrub_counts.go", `package core
func (d *Distributor) recount(i int) {
	counts := d.provCount
	counts[i]++
}`},
	{"placement", "second_avoid.go", `package core
func exclusions(rows *stripeRows, s shardSlot) map[int]bool {
	return avoid(rows.chunks, &rows.stripes[0], s)
}`},
	{"placement", "rehome_value.go", `package core
func (d *Distributor) shipAgain() {
	f := d.rehomePut
	_ = f
}`},
	{"snapshot", "mirror_copy.go", `package core
func mirrorsOf(c chunkEntry) []mirrorRef {
	m := make([]mirrorRef, len(c.Mirrors))
	copy(m, c.Mirrors)
	return m
}`},
	{"snapshot", "mirror_clone.go", `package core
import "slices"
func cloneMirrors(c chunkEntry) []mirrorRef { return slices.Clone(c.Mirrors) }`},
	{"delete", "update_probe.go", `package core
import "repro/internal/provider"
func probeDelete(p provider.Provider) error { return p.Delete("probe") }`},
	{"delete", "second_delete_many.go", `package core
import "repro/internal/provider"
func purge(p provider.Store, keys []string) []error { return provider.DeleteMany(p, keys) }`},
	{"delete", "delete_value.go", `package core
import "repro/internal/provider"
func drop(p provider.Store, key string) error {
	rm := p.Delete
	return rm(key)
}`},
	{"delete", "asserted_delete.go", `package core
import "repro/internal/provider"
func dropVia(p provider.Store, key string) error {
	return p.(interface{ Delete(string) error }).Delete(key)
}`},
	{"delete", "asserted_delete_many.go", `package core
import "repro/internal/provider"
func purgeVia(p provider.Store, keys []string) []error {
	return p.(interface{ DeleteMany([]string) []error }).DeleteMany(keys)
}`},
	{"replication", "commit_hook.go", `package core
var commitHook func(rec *walRecord)`},
	{"replication", "cluster.go", `package core
type Cluster struct{ members []*Distributor }`},
	{"surface", "new_method.go", `package core
func (d *Distributor) Export() []byte { return d.exportMetadataLocked() }`},
	{"surface", "value_method.go", `package core
type dist = Distributor
func (d dist) Fleet() int { return d.fleet.Len() }`},
	{"replication", "apply_value.go", `package core
func (d *Distributor) applyAll(raws [][]byte) error {
	apply := d.applyReplicated
	for _, raw := range raws {
		if err := apply(raw); err != nil {
			return err
		}
	}
	return nil
}`},
}

// TestPlants adds every plant of a package to it as one more file, type-
// checks them together (a plant that does not compile fails here rather
// than passing vacuously), and requires each plant to trip its rule
// inside its own file.
func TestPlants(t *testing.T) {
	t.Parallel()
	byRule := map[string]rule{}
	for _, r := range rules {
		byRule[r.name] = r
	}
	planted := map[string][]*ast.File{} // by the package's directory
	for _, pl := range plants {
		r, ok := byRule[pl.rule]
		if !ok {
			t.Fatalf("plant %s: no rule %s", pl.file, pl.rule)
		}
		f, err := parser.ParseFile(fset, filepath.Join("plant", pl.file), pl.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		planted[r.dir] = append(planted[r.dir], f)
	}
	tripped := map[string]map[string]bool{} // rule → plant files it reported
	for dir, files := range planted {
		p := load(t, dir, files...)
		for _, r := range rules {
			if r.dir != dir {
				continue
			}
			fs, err := r.run(p)
			if err != nil {
				t.Fatal(err)
			}
			tripped[r.name] = map[string]bool{}
			for _, f := range fs {
				tripped[r.name][fset.Position(f.pos).Filename] = true
			}
		}
	}
	for _, pl := range plants {
		if !tripped[pl.rule][filepath.Join("plant", pl.file)] {
			t.Errorf("plant %s does not trip rule %s", pl.file, pl.rule)
		}
	}
}
