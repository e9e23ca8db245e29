package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ftsg/internal/metrics"
	"ftsg/internal/mpi"
	"ftsg/internal/vtime"
)

// TestOpenDirSweepsOrphanTmp: temp files left behind by an interrupted
// write (crash between WriteFile and Rename) must be swept when the
// directory is reopened.
func TestOpenDirSweepsOrphanTmp(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "grid000_rank0000.gen000003.ckpt.tmp")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	keep := filepath.Join(dir, genName(0, 0, 2))
	if err := os.WriteFile(keep, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphaned .tmp file survived OpenDir")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Error("committed blob was swept")
	}
}

// TestDirPutFailureCleansUpTmp: when the commit rename fails, the temp
// file must not be left behind.
func TestDirPutFailureCleansUpTmp(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the blob's final path makes Rename fail.
	name := genName(0, 0, 0)
	if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(name, []byte("payload")); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, name+tmpSuffix)); !os.IsNotExist(err) {
		t.Error("failed Put left a stale .tmp file")
	}
}

// TestStoreSurvivesPutFailure: a failed backend write must not fail the
// run, and the generation must be withdrawn so Read never tries it.
func TestStoreSurvivesPutFailure(t *testing.T) {
	dir := t.TempDir()
	b, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	s, err := Open(Options{Backend: b, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	withProc(t, vtime.Generic(), func(p *mpi.Proc) {
		if err := s.Write(p, 0, 0, 10, []float64{1}); err != nil {
			t.Error(err)
			return
		}
		// Sabotage the next generation's path so its commit fails.
		if err := os.Mkdir(filepath.Join(dir, genName(0, 0, 1)), 0o755); err != nil {
			t.Error(err)
			return
		}
		if err := s.Write(p, 0, 0, 20, []float64{2}); err != nil {
			t.Errorf("Write surfaced a backend failure as a run error: %v", err)
			return
		}
		step, data, err := s.Read(p, 0, 0)
		if err != nil {
			t.Errorf("recovery failed after a single lost write: %v", err)
			return
		}
		if step != 10 || data[0] != 1 {
			t.Errorf("got (%d, %g), want surviving generation (10, 1)", step, data[0])
		}
	})
	if got := reg.Counter("checkpoint.write.errors").Value(); got != 1 {
		t.Errorf("checkpoint.write.errors = %d, want 1", got)
	}
}

func TestDirPeek(t *testing.T) {
	b, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("0123456789")
	if err := b.Put("x", blob); err != nil {
		t.Fatal(err)
	}
	hdr, size, err := b.Peek("x", 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr) != "0123" || size != 10 {
		t.Errorf("Peek = (%q, %d), want (0123, 10)", hdr, size)
	}
	// Peek beyond the blob returns what exists.
	hdr, size, err = b.Peek("x", 64)
	if err != nil {
		t.Fatal(err)
	}
	if string(hdr) != "0123456789" || size != 10 {
		t.Errorf("long Peek = (%q, %d)", hdr, size)
	}
}

// TestMemBackendMatchesDir: the two real backends must be observationally
// identical through the Backend interface.
func TestMemBackendMatchesDir(t *testing.T) {
	backends := map[string]Backend{"mem": NewMem()}
	db, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backends["dir"] = db
	for label, b := range backends {
		t.Run(label, func(t *testing.T) {
			if err := b.Put("a", []byte("alpha")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("b", []byte("beta")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("a", []byte("alpha2")); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get("a")
			if err != nil || !bytes.Equal(got, []byte("alpha2")) {
				t.Fatalf("Get(a) = (%q, %v)", got, err)
			}
			hdr, size, err := b.Peek("b", 2)
			if err != nil || string(hdr) != "be" || size != 4 {
				t.Fatalf("Peek(b) = (%q, %d, %v)", hdr, size, err)
			}
			names, err := b.List()
			if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
				t.Fatalf("List = (%v, %v)", names, err)
			}
			if _, err := b.Get("missing"); err == nil {
				t.Fatal("Get(missing) succeeded")
			}
			if err := b.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete("a"); err != nil {
				t.Fatalf("double Delete errored: %v", err)
			}
			if _, err := b.Get("a"); err == nil {
				t.Fatal("Get after Delete succeeded")
			}
			if err := b.Destroy(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMemGetIsACopy: mutating a Get result must not corrupt the stored blob.
func TestMemGetIsACopy(t *testing.T) {
	b := NewMem()
	if err := b.Put("x", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := b.Get("x")
	got[0] = 99
	again, _ := b.Get("x")
	if again[0] != 1 {
		t.Error("Get returned a view into the stored blob")
	}
}
