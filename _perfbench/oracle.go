package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"imagebench/internal/core"
)

// expectedFile holds the digest of every point's table, recorded once
// by `perfbench -record` (see README.md).
const expectedFile = "_perfbench/expected.json"

// goldenDir holds the repository's own byte-exact quick-profile tables.
const goldenDir = "internal/core/testdata/golden"

// oracle decides whether a table is the right output for a point. A
// point with no override is compared byte for byte with the
// repository's golden file; any other point with the digest recorded
// for it. Both compare the compact JSON encoding of the table.
type oracle struct {
	golden   map[string][]byte // experiment -> compact golden table
	expected map[string]string // point -> sha256 of compact table
}

type expectedDoc struct {
	Note   string            `json:"note"`
	Tables map[string]string `json:"tables"`
}

// loadOracle reads the goldens and the expected-output file under root.
func loadOracle(root string) (*oracle, error) {
	o := &oracle{golden: map[string][]byte{}}
	for _, p := range allPoints() {
		if p.overrides().IsZero() && o.golden[p.exp] == nil {
			b, err := os.ReadFile(filepath.Join(root, goldenDir, p.exp+".json"))
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			c, err := compact(b)
			if err != nil {
				return nil, fmt.Errorf("oracle: golden %s: %w", p.exp, err)
			}
			o.golden[p.exp] = c
		}
	}
	b, err := os.ReadFile(filepath.Join(root, expectedFile))
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var doc expectedDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("oracle: %s: %w", expectedFile, err)
	}
	o.expected = doc.Tables
	for _, p := range allPoints() {
		if !p.overrides().IsZero() && o.expected[p.String()] == "" {
			return nil, fmt.Errorf("oracle: %s has no table for %s (re-record with -record)", expectedFile, p)
		}
	}
	return o, nil
}

// check compares a table (any JSON encoding of it) with the expected
// output for p.
func (o *oracle) check(p point, table []byte) error {
	got, err := compact(table)
	if err != nil {
		return fmt.Errorf("%s: table is not JSON: %v", p, err)
	}
	if p.overrides().IsZero() {
		want, ok := o.golden[p.exp]
		if !ok {
			return fmt.Errorf("%s: no golden table", p)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: table differs from %s/%s.json", p, goldenDir, p.exp)
		}
		return nil
	}
	want, ok := o.expected[p.String()]
	if !ok {
		return fmt.Errorf("%s: point outside the recorded space", p)
	}
	if digest(got) != want {
		return fmt.Errorf("%s: table differs from the recorded output", p)
	}
	return nil
}

func compact(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// record runs every point of every space that the expected-output
// file lacks directly through the experiment registry at
// GOMAXPROCS=1, the way the goldens were recorded (the multi-proc
// fig12c path fails), and rewrites the file with exactly the current
// spaces' points. Digests already in the file are kept, not re-run.
func record(root string) error {
	runtime.GOMAXPROCS(1)
	path := filepath.Join(root, expectedFile)
	var old expectedDoc
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &old); err != nil {
			return fmt.Errorf("record: %s: %w", path, err)
		}
	}
	doc := expectedDoc{
		Note:   "sha256 of the compact JSON table of each point, quick profile plus the point's overrides, recorded at GOMAXPROCS=1 by perfbench -record",
		Tables: map[string]string{},
	}
	for _, p := range allPoints() {
		if p.overrides().IsZero() {
			continue
		}
		if d, ok := old.Tables[p.String()]; ok {
			doc.Tables[p.String()] = d
			continue
		}
		e, err := core.Lookup(p.exp)
		if err != nil {
			return err
		}
		tab, err := e.Run(context.Background(), core.Quick().Apply(p.overrides()))
		if err != nil {
			return fmt.Errorf("record %s: %w", p, err)
		}
		b, err := json.Marshal(tab)
		if err != nil {
			return err
		}
		doc.Tables[p.String()] = digest(b)
		fmt.Fprintf(os.Stderr, "recorded %s\n", p)
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
