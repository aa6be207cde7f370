package molecule

import (
	"bytes"
	"io"
	"testing"
)

// exampleMolecules are the molecules the programs under examples/ build
// (the docking and forces ligands, and proteins on the quickstart, mdstep
// and docking seeds cut to a few dozen atoms), the seed corpus of the
// parser fuzzers.
func exampleMolecules() []*Molecule {
	return []*Molecule{
		GenLigand("ligand", 40, 8),
		GenLigand("ligand", 30, 12),
		GenProtein("quickstart", 24, 42),
		GenProtein("mdstep", 24, 21),
		GenProtein("receptor", 24, 7),
	}
}

// fuzzParser seeds f with every example molecule written by write, plus
// extra, and checks that parse never panics and returns either an error
// or at least one atom.
func fuzzParser(f *testing.F, write func(io.Writer, *Molecule) error, parse func(io.Reader) (*Molecule, error), extra ...string) {
	for _, m := range exampleMolecules() {
		var buf bytes.Buffer
		if err := write(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range extra {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parse(bytes.NewReader(data))
		if err == nil && (m == nil || len(m.Atoms) == 0) {
			t.Fatalf("parse returned no atoms and no error for %q", data)
		}
	})
}

func FuzzReadPQR(f *testing.F) {
	fuzzParser(f, WritePQR, ReadPQR,
		"ATOM      1  N   MET A   1      27.340  24.430   2.614  0.1592  1.8240\nTER\nEND\n",
		"HETATM 1 2\n",
		"ATOM 1 N MET A 1 x y z q r\n")
}

func FuzzReadXYZQR(f *testing.F) {
	fuzzParser(f, WriteXYZQR, ReadXYZQR,
		"2\n# two atoms\n0 0 0 1.0 1.5\n# comment\n1 1 1 -1.0 1.7\n",
		"1\n",
		"1 2 3 4 bad\n")
}
