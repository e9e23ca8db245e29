package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is the user+sys CPU time of the process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS sets the process's VmHWM back to its current RSS.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// fsTypes names the file systems a checkpoint temp dir commonly sits on.
var fsTypes = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// fingerprint identifies the conditions of a result: host, toolchain,
// checkpoint file system, seed and the code measured. The checkout may not
// be a git repository, so the code is named by the VCS revision when the
// build recorded one and always by a digest of the module's Go sources.
func fingerprint(name string, seed int64, tmp string) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s ckpt_fs=%s commit=%s source=%s",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(tmp), commit, sourceDigest("."))
}

// sourceDigest hashes go.mod and every .go file under root's cmd and
// internal trees, in walk order.
func sourceDigest(root string) string {
	h := sha256.New()
	add := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	}
	if err := add(filepath.Join(root, "go.mod")); err != nil {
		return "unknown"
	}
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return add(path)
		})
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// opTally counts operations across the passes of a run.
type opTally struct {
	attempted, failed, unexpected int
	failures                      []op
}

func (t *opTally) add(ops []op) {
	for _, o := range ops {
		t.attempted++
		if o.err == nil {
			continue
		}
		t.failed++
		if !o.known {
			t.unexpected++
		}
		t.failures = append(t.failures, o)
	}
}

// correct is true when every failure is of a documented defect class.
func (t *opTally) correct() bool { return t.attempted > 0 && t.unexpected == 0 }

func (t *opTally) okFrac() float64 {
	return float64(t.attempted-t.failed) / float64(t.attempted)
}

// report lists every failed operation with the command that replays it.
func (t *opTally) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench: %d/%d operations failed (%d of a known defect class)\n",
		t.failed, t.attempted, t.failed-t.unexpected)
	for _, o := range t.failures {
		kind := "UNEXPECTED"
		if o.known {
			kind = "known"
		}
		fmt.Fprintf(w, "perfbench:   %s %s: %v\n      replay: %s\n", kind, o.name, o.err, o.repro)
	}
}
